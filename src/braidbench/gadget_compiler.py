"""Compile counter programs to gadget-graph levels and run their token
semantics.

The model is discrete: monstars are tokens, counters are station
occupancies, and the player is forced through a unique path, so stepping is
deterministic. Timing is synchronous — an in-flight monstar settles before
the player's next gadget entry — which is the abstraction of making the
player's path long enough that he cannot beat the monstar to a gadget.
"""

from __future__ import annotations

import json
from collections import namedtuple
from typing import NamedTuple

from .braidlike_tm import Record, is_int
from .counter_machine import (ADD, BRANCH, GOAL, MOVE, STUCK, Add, CounterProgram, Halt, SubBranch, check_counters,
                              jump_loop, lower_program, run_table)


class LevelFormatError(ValueError):
    pass


# Gadget kinds
class LeverPull(Record, namedtuple("LeverPull", "signal")):
    __slots__ = ()


class Branch(Record, namedtuple("Branch", ())):
    __slots__ = ()


class CounterStation(Record, namedtuple("CounterStation", "counter")):
    __slots__ = ()


class TrapRouter(Record, namedtuple("TrapRouter", ())):
    __slots__ = ()


class Goal(Record, namedtuple("Goal", ())):
    __slots__ = ()


# Signal effects
class Add1(Record, namedtuple("Add1", "counter")):
    __slots__ = ()


class Remove1(Record, namedtuple("Remove1", "counter")):
    __slots__ = ()


class OpenDoor(Record, namedtuple("OpenDoor", "router branch")):
    __slots__ = ()


# Every gadget kind and signal effect by its tag in level JSON: the object
# {"kind": "lever", "signal": s} is LeverPull(s), its other keys the fields.
_KINDS = {
    "kind": {"lever": LeverPull, "branch": Branch, "counter": CounterStation, "router": TrapRouter, "goal": Goal},
    "effect": {"add1": Add1, "remove1": Remove1, "open-door": OpenDoor},
}
_TAG_OF = {cls: (key, name) for key, kinds in _KINDS.items() for name, cls in kinds.items()}
# each class's fields as level_from_json reads them: a field and the prefix
# of its not-a-string message, None for a counter, which Level checks
_READS = {cls: tuple((f, None if f == "counter" else f"{name} {f}") for f in cls._fields)
          for cls, (_, name) in _TAG_OF.items()}

# the exits a tick takes from each gadget kind the player can stand on
_EXITS = {LeverPull: ("out",), Branch: ("monstar", "empty")}


class Level(Record, namedtuple("Level", "gadgets tim_edges signals entry num_counters init_counters")):
    """A level: gadgets maps each id to its gadget, tim_edges each (gadget
    id, exit label) to the gadget id it leads to, and signals each signal
    id to its effect; init_counters is the occupancy per counter at the
    start, zeros if not given. The constructor raises LevelFormatError on
    a malformed field."""

    __slots__ = ()

    def __new__(cls, gadgets, tim_edges, signals, entry, num_counters, init_counters=None):
        if not is_int(num_counters):
            raise LevelFormatError(f"num_counters {num_counters!r} is not an integer")
        if num_counters < 0:
            raise LevelFormatError(f"num_counters {num_counters} is negative")
        init = (0,) * num_counters if init_counters is None else tuple(init_counters)
        if len(init) != num_counters or not all(is_int(v) and v >= 0 for v in init):
            raise LevelFormatError("init_counters must list one non-negative integer per counter")
        if _id("level entry", entry) not in gadgets:
            raise LevelFormatError(f"entry gadget {entry!r} missing")
        for gid, g in gadgets.items():
            if isinstance(g, LeverPull) and _id("lever signal", g.signal) not in signals:
                raise LevelFormatError(f"lever signal {g.signal!r} undeclared")
            if isinstance(g, CounterStation):
                _check_counter(g.counter, num_counters, "counter station", gid)
            for label in _EXITS.get(type(g), ()):
                if (gid, label) not in tim_edges:
                    raise LevelFormatError(f"gadget {gid!r} has no {label!r} exit")
        for (gid, label), target in tim_edges.items():
            if _id("tim edge from", gid) not in gadgets or _id("tim edge to", target) not in gadgets:
                raise LevelFormatError(f"tim edge {gid!r} -> {target!r} references a missing gadget")
            if label not in _EXITS.get(type(gadgets[gid]), ()):
                raise LevelFormatError(f"tim edge {gid!r} -> {target!r} leaves by {label!r}, no exit of its gadget")
        for sig, eff in signals.items():
            if isinstance(eff, OpenDoor) and (_id("open-door router", eff.router) not in gadgets
                                              or _id("open-door branch", eff.branch) not in gadgets):
                raise LevelFormatError(f"signal {sig!r} routes through a missing gadget")
            if isinstance(eff, (Add1, Remove1)):
                _check_counter(eff.counter, num_counters, "signal", sig)
        return tuple.__new__(cls, (gadgets, tim_edges, signals, entry, num_counters, init))


def _check_counter(counter, num_counters, what, key):
    """Raise unless counter indexes one of num_counters counters; the message names what and key."""
    if not is_int(counter):
        raise LevelFormatError(f"{what} {key!r} names counter {counter!r}, not an integer")
    if not 0 <= counter < num_counters:
        raise LevelFormatError(f"{what} {key!r} names counter {counter} out of range")


def _id(what, value):
    """value, which names a gadget, an exit or a signal and so must be a string."""
    if not isinstance(value, str):
        raise LevelFormatError(f"{what} {value!r} is not a string")
    return value


SOLVED = "solved"


class LevelConfig(Record, namedtuple("LevelConfig", "tim_at counters in_flight ticks", defaults=(0,))):
    """Where the player stands, the occupancy per counter index, and the
    sorted (location id, monstars) pairs of the routers and branch slots
    holding any."""

    __slots__ = ()


def initial_level_config(level: Level, counters=None) -> LevelConfig:
    if counters is None:
        counters = level.init_counters
    return LevelConfig(tim_at=level.entry, counters=tuple(counters), in_flight=(), ticks=0)


def compile(program: CounterProgram) -> Level:
    """Translate a counter program into a level.

    Add(c) becomes one lever wired to the counter's add signal. SubBranch
    (c, t) becomes a remove lever, a trap-door lever that routes the freed
    monstar to this instruction's branch gadget, and the branch gadget
    itself: monstar present continues to pc+1, absent jumps to t. Halt and
    the implicit end become goals.
    """
    entries = _entries(program)
    # Stations exist for every counter so occupancies line up with the
    # machine's counter vector; routers only where something is removed.
    gadgets = {f"C{c}": CounterStation(c) for c in range(program.num_counters)}
    tim_edges, signals = {}, {}
    for i, ins in enumerate(program.instructions):
        gid, nxt = entries[i], entries[i + 1]
        if isinstance(ins, Add):
            gadgets[gid] = LeverPull(f"add{i}")
            signals[f"add{i}"] = Add1(ins.counter)
            tim_edges[(gid, "out")] = nxt
        elif isinstance(ins, SubBranch):
            door, br, door_sig, router = f"D{i}", f"B{i}", f"door{i}", _router(ins.counter)
            gadgets.update({gid: LeverPull(f"sub{i}"), door: LeverPull(door_sig), br: Branch(), router: TrapRouter()})
            signals[f"sub{i}"], signals[door_sig] = Remove1(ins.counter), OpenDoor(router, br)
            tim_edges[(gid, "out")], tim_edges[(door, "out")] = door, br
            tim_edges[(br, "monstar")], tim_edges[(br, "empty")] = nxt, entries[ins.target]
        else:  # Halt
            gadgets[gid] = Goal()
    gadgets["Gend"] = Goal()
    return Level(gadgets=gadgets, tim_edges=tim_edges, signals=signals, entry=entries[0],
                 num_counters=program.num_counters, init_counters=program.init_counters)


def _entries(program: CounterProgram) -> tuple:
    """Each instruction's entry gadget in compile's level; the last is the fall-through goal."""
    return tuple(f"G{i}" if isinstance(ins, Halt) else f"L{i}" for i, ins in enumerate(program.instructions)) + ("Gend",)


def _router(counter):
    """The location a remove1 on counter sends its monstar to."""
    return f"R{counter}"


def _lower(level: Level, in_flight=()):
    """Lower a level to a step table of `counter_machine.run_table`, one row
    per gadget, indexed by gadget number, over a list of places: the level's
    counters, then its monstar locations, numbered with the gadgets. A
    Remove1 and an OpenDoor are each a MOVE, a Branch a BRANCH on its own
    location, a goal a GOAL of cost 1, and a gadget the player cannot stand
    on a STUCK row that raises LevelFormatError.

    A router that a Remove1 names but the level lacks, and an in-flight id
    that names no gadget, get location numbers past the gadgets; they hold
    monstars but no row. Returns the table, the location number of each
    id and the id of each location number.
    """
    names = list(level.gadgets)
    index = {name: i for i, name in enumerate(names)}
    n = level.num_counters

    def place(name):
        if name not in index:
            index[name] = len(names)
            names.append(name)
        return n + index[name]

    for name, _ in in_flight:
        place(name)
    table = []
    for gid, g in level.gadgets.items():
        if isinstance(g, Goal):
            row = (GOAL, 1, 0, 0, 0)
        elif isinstance(g, LeverPull):
            eff = level.signals[g.signal]
            out = index[level.tim_edges[(gid, "out")]]
            if isinstance(eff, Add1):
                row = (ADD, eff.counter, 0, out, 0)
            elif isinstance(eff, Remove1):
                # at zero the freed bunny dies on the spikes: no token moves
                row = (MOVE, eff.counter, place(_router(eff.counter)), out, 0)
            else:  # OpenDoor, between two gadgets
                row = (MOVE, n + index[eff.router], n + index[eff.branch], out, 0)
        elif isinstance(g, Branch):
            # the player jumps on the monstar, killing it
            row = (BRANCH, n + index[gid], 0, index[level.tim_edges[(gid, "monstar")]],
                   index[level.tim_edges[(gid, "empty")]])
        else:
            row = (STUCK, LevelFormatError, f"player cannot stand at {gid!r} ({type(g).__name__})", 0, 0)
        table.append(row)
    return table, index, names


class LevelRunResult(Record, namedtuple("LevelRunResult", "kind ticks config", defaults=(None,))):
    """How a run ended, "solved" or "budget", after how many ticks, and on
    a budget its last configuration."""

    __slots__ = ()


def level_run(level: Level, max_ticks: int, init: LevelConfig = None) -> LevelRunResult:
    """Run the level from init, by default its start, to a goal or to
    max_ticks ticks in all: a lowering (`_lower`) and one
    `counter_machine.run_table` over the counters and the monstars in
    flight. Raises ValueError, naming the field, if the level cannot hold
    init."""
    if max_ticks < 0:
        raise ValueError("max_ticks must be >= 0")
    c = initial_level_config(level) if init is None else init
    _check_config(level, c)
    if c.ticks >= max_ticks:
        return LevelRunResult("budget", c.ticks, c)
    table, index, names = _lower(level, c.in_flight)
    n = level.num_counters
    places = list(c.counters) + [0] * len(names)
    for name, count in c.in_flight:
        places[n + index[name]] += count
    pos, ticks, solved = run_table(table, index[c.tim_at], places, [0] * len(places), c.ticks, max_ticks)
    if solved:
        return LevelRunResult("solved", ticks)
    in_flight = sorted((names[i], m) for i, m in enumerate(places[n:]) if m)
    return LevelRunResult("budget", ticks, LevelConfig(names[pos], tuple(places[:n]), tuple(in_flight), ticks))


def _check_config(level: Level, c: LevelConfig):
    """Raise ValueError unless the level can hold c; the message names the field."""
    if not isinstance(c.tim_at, str) or c.tim_at not in level.gadgets:
        raise ValueError(f"tim_at {c.tim_at!r} is not a gadget of the level")
    check_counters(c.counters, level.num_counters)
    for pair in c.in_flight:
        if not (isinstance(pair, tuple) and len(pair) == 2 and isinstance(pair[0], str)
                and is_int(pair[1]) and pair[1] > 0):
            raise ValueError(f"in_flight entry {pair!r} is not a (location id, positive count) pair")


def level_step(level: Level, c: LevelConfig):
    """One deterministic tick of the token semantics, a level_run to
    c.ticks + 1. Returns the next LevelConfig, or SOLVED when the player
    stands at a goal."""
    res = level_run(level, c.ticks + 1, c)
    return SOLVED if res.kind == SOLVED else res.config


class BoundaryRecord(NamedTuple):
    """A plain tuple: bisimulate builds one per instruction it steps, by
    `tuple.__new__`, which skips the Python call of the class."""

    index: int
    cm_pc: object  # instruction index or None once halted
    cm_counters: tuple
    tim_at: str  # gadget id, or "solved"
    occupancies: tuple
    ok: bool


class JumpRecord(NamedTuple):
    """After boundary `index`, k more iterations of a loop, each a repeat of
    the last `steps` boundaries (earlier jumps written out) with every
    counter moved by d, and each taking `ticks` ticks."""

    index: int
    k: int
    steps: int
    ticks: int
    d: tuple


class BisimReport(Record, namedtuple("BisimReport", "passed boundaries cm_halted level_solved ticks steps")):
    """A lockstep run's outcome; boundaries holds the BoundaryRecords, and
    a JumpRecord for each jump."""

    __slots__ = ()


def bisimulate(program: CounterProgram, max_steps: int) -> BisimReport:
    """Run the counter machine and its compiled level in lockstep.

    At every instruction boundary the machine's (pc, counters) must match
    the player's position and the station occupancies; at the end, halting
    must coincide with solving.

    Each instruction is one `counter_machine.run_table` call on each
    side: one step of the lowered program (`lower_program`), then up to 5
    ticks of the lowered level (`_lower`), 3 gadgets per instruction plus
    the goal. The level runs on a stop copy of its table, where every exit
    into an instruction entry goes to a GOAL of cost 0 past the table, one
    per entry, so the run stops at the next entry. Once the machine has
    halted, the level runs on its own table, through the entries, to its
    goal, which takes a tick of its own.

    Like `run_table`, it jumps whole loop iterations through `jump_loop`,
    at each back edge of the program, keyed on the pc, while every boundary
    so far has passed. The values `jump_loop` compares are the level's
    places, with the level's decrement counts. A passing boundary has the
    machine's counters equal to the level's, so from the last arrival at
    the pc both sides moved by the same d. Between two passing boundaries
    a step that lowers the machine's counter makes the level take a unit
    from it at least once, so the level's decrement count of a counter
    bounds the dip of the machine's copy too. Its clock is the ticks, so
    where `jump_loop` finds that the next k iterations repeat, they repeat
    on both sides, tick for tick and step for step. A jump is capped at the
    iterations whose steps fit in max_steps, sets the machine's counters to
    the level's, and is reported as a JumpRecord: k repeats of the last
    iteration's boundaries, every one of them passed.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    rows = lower_program(program)
    n = len(program.instructions)  # the implicit halt's pc, where a halt goes too
    level = compile(program)
    table, index, names = _lower(level)
    entries = [index[gid] for gid in _entries(program)]
    # the stop copy; a GOAL or STUCK row reads neither exit, so its zeros may go to a stop too
    stop = {e: len(table) + i for i, e in enumerate(entries)}
    stops = [(op, a, b, stop.get(out, out), stop.get(alt, alt)) for op, a, b, out, alt in table]
    stops += [(GOAL, 0, 0, 0, 0)] * len(entries)
    num_counters = level.num_counters
    pc, cm_counters = 0, list(program.init_counters)
    cm_dips = [0] * num_counters  # run_table's decrement counts of the machine, which no jump reads
    pos, places = index[level.entry], list(level.init_counters) + [0] * len(names)
    dips = [0] * len(places)  # jump_loop's decrement count per place
    ticks = steps = 0
    solved = False
    occupancies = places[:num_counters]
    ok = pos == entries[pc] and occupancies == cm_counters
    ok_all = ok
    record = tuple.__new__  # BoundaryRecord(...) through its NamedTuple __new__ is slower
    boundaries = [record(BoundaryRecord, (0, pc, tuple(cm_counters), names[pos], tuple(occupancies), ok))]
    seen, arrived = {}, {}  # jump_loop's record of each back edge's target, and its (steps, ticks)
    while steps < max_steps and pc != n:
        at = pc
        pc, steps, halted = run_table(rows, pc, cm_counters, cm_dips, steps, steps + 1)
        pos, ticks, solved = run_table(table if halted else stops, pos, places, dips, ticks, ticks + 5)
        if pos >= len(table):  # a stop: the level is at an entry
            pos, solved = entries[pos - len(table)], False
        cm_tuple = tuple(cm_counters)
        occupancies = places[:num_counters]
        same = occupancies == cm_counters
        if halted:
            pc = n
            ok = solved and same
        else:
            ok = not solved and pos == entries[pc] and same
        ok_all = ok_all and ok
        boundaries.append(record(BoundaryRecord, (
            steps, None if halted else pc, cm_tuple, SOLVED if solved else names[pos],
            cm_tuple if same else tuple(occupancies), ok)))
        if solved:
            break
        if pc <= at and ok_all:  # a back edge
            last = arrived.get(pc)
            arrived[pc] = (steps, ticks)
            # the cap on the tick clock of the iterations whose steps fit; jump_loop jumps from the third arrival
            limit = ticks if last is None else ticks + (max_steps - steps) // (steps - last[0]) * (ticks - last[1])
            after = jump_loop(seen, pc, ticks, places, dips, limit)
            if after != ticks:
                p_steps, p_ticks = steps - last[0], ticks - last[1]
                k = (after - ticks) // p_ticks
                cm_counters[:] = places[:num_counters]
                boundaries.append(JumpRecord(steps, k, p_steps, p_ticks,
                                             tuple((v - u) // k for u, v in zip(cm_tuple, cm_counters))))
                steps += k * p_steps
                ticks = after
                arrived[pc] = (steps, ticks)
    ok_all = ok_all and ((pc == n) == solved)
    return BisimReport(ok_all, tuple(boundaries), pc == n, solved, ticks, steps)


# ---------------------------------------------------------------------------
# Serialization

def level_to_json(level: Level) -> str:
    """The level as one line of JSON with sorted keys and tim edges, so equal
    levels give equal text. It is compact because an indent would make
    `json` use its pure-Python encoder; level_from_json reads any
    whitespace, so indented files still load."""
    obj = {
        "entry": level.entry,
        "num_counters": level.num_counters,
        "gadgets": {gid: _tagged(g) for gid, g in level.gadgets.items()},
        "tim_edges": [{"from": gid, "exit": label, "to": dst} for (gid, label), dst in sorted(level.tim_edges.items())],
        "signals": {sig: _tagged(e) for sig, e in level.signals.items()},
        "init_counters": level.init_counters,
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _tagged(x):
    """A gadget or signal effect as a JSON object: its tag and its fields."""
    key, name = _TAG_OF[type(x)]
    return {key: name, **x._asdict()}


def level_from_json(text: str) -> Level:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise LevelFormatError(str(e))
    if not isinstance(obj, dict):
        raise LevelFormatError("level JSON must be an object")
    try:
        # ids are checked as they are read, so a tim edge's key is a string before it is hashed
        return Level(
            gadgets={gid: _untagged(g, "kind", "gadget kind") for gid, g in obj["gadgets"].items()},
            tim_edges={(_id("tim edge from", e["from"]), _id("tim edge exit", e["exit"])): _id("tim edge to", e["to"])
                       for e in _edge_list(obj["tim_edges"])},
            signals={sig: _untagged(e, "effect", "signal effect") for sig, e in obj["signals"].items()},
            entry=_id("level entry", obj["entry"]),
            num_counters=obj["num_counters"],
            init_counters=obj.get("init_counters"),
        )
    except KeyError as e:
        raise LevelFormatError(f"missing field {e}")
    except (AttributeError, TypeError) as e:
        raise LevelFormatError(f"malformed level: {e}")


def _edge_list(edges):
    """The tim_edges field, which must be a list: an object there would be read as its keys."""
    if not isinstance(edges, list):
        raise LevelFormatError("tim_edges must be a list of edges")
    return edges


def _untagged(o, key, what):
    """The gadget or signal effect of a JSON object tagged at key."""
    name = o.get(key)
    try:
        cls = _KINDS[key][name]
    except (KeyError, TypeError):  # TypeError: a list or object as the tag
        raise LevelFormatError(f"unknown {what} {name!r}") from None
    return cls(*[o[f] if prefix is None else _id(prefix, o[f]) for f, prefix in _READS[cls]])


def level_to_dot(level: Level) -> str:
    """GraphViz export: player edges solid, monstar edges dashed. Gadget ids
    are stable so exports diff cleanly. Every id and label is a DOT quoted
    string (`_dot`)."""
    lines = ["digraph level {", "  rankdir=LR;"]
    shapes = {LeverPull: "box", Branch: "diamond", CounterStation: "cylinder", TrapRouter: "trapezium",
              Goal: "doublecircle"}
    for gid, g in sorted(level.gadgets.items()):
        label = _dot(gid)
        if isinstance(g, LeverPull):
            label = _dot(f"{gid}\\n{g.signal}")
        elif isinstance(g, CounterStation):
            label = _dot(f"{gid}\\ncounter {g.counter}")
        lines.append(f"  {_dot(gid)} [shape={shapes[type(g)]}, label={label}];")
    for (src, exit_label), dst in sorted(level.tim_edges.items()):
        lines.append(f"  {_dot(src)} -> {_dot(dst)} [label={_dot(exit_label)}];")
    # monstar edges from the signals, by router: its stations, then its branches
    removed = {e.counter for e in level.signals.values() if isinstance(e, Remove1)}
    flow = {(_router(g.counter), 0, gid) for gid, g in level.gadgets.items()
            if isinstance(g, CounterStation) and g.counter in removed}
    flow |= {(e.router, 1, e.branch) for e in level.signals.values() if isinstance(e, OpenDoor)}
    for router, door, other in sorted(flow):
        src, dst = (router, other) if door else (other, router)
        if src in level.gadgets and dst in level.gadgets:
            lines.append(f"  {_dot(src)} -> {_dot(dst)} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot(text):
    """text as a DOT quoted string, in which an inner `"` is written `\\"`."""
    return '"' + text.replace('"', '\\"') + '"'
