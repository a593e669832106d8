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
from dataclasses import dataclass, fields
from typing import NamedTuple

from .counter_machine import Add, CounterProgram, Halt, SubBranch, jump_loop, lower_program


class LevelFormatError(ValueError):
    pass


# Gadget kinds
@dataclass(frozen=True)
class LeverPull:
    signal: str


@dataclass(frozen=True)
class Branch:
    pass


@dataclass(frozen=True)
class CounterStation:
    counter: int


@dataclass(frozen=True)
class TrapRouter:
    pass


@dataclass(frozen=True)
class Goal:
    pass


# Signal effects
@dataclass(frozen=True)
class Add1:
    counter: int


@dataclass(frozen=True)
class Remove1:
    counter: int


@dataclass(frozen=True)
class OpenDoor:
    router: str
    branch: str


# Every gadget kind and signal effect by its tag in level JSON: the object
# {"kind": "lever", "signal": s} is LeverPull(s), its other keys the fields.
_KINDS = {
    "kind": {"lever": LeverPull, "branch": Branch, "counter": CounterStation, "router": TrapRouter, "goal": Goal},
    "effect": {"add1": Add1, "remove1": Remove1, "open-door": OpenDoor},
}
_TAG_OF = {cls: (key, name) for key, kinds in _KINDS.items() for name, cls in kinds.items()}
_FIELDS = {cls: tuple(f.name for f in fields(cls)) for cls in _TAG_OF}

# the exits a tick takes from each gadget kind the player can stand on
_EXITS = {LeverPull: ("out",), Branch: ("monstar", "empty")}


@dataclass(frozen=True)
class Level:
    gadgets: dict  # id -> Gadget
    tim_edges: dict  # (gadget id, exit label) -> gadget id
    signals: dict  # signal id -> effect
    entry: str
    num_counters: int
    # occupancy per counter at the start; zeros if not given
    init_counters: tuple = None

    def __post_init__(self):
        if not _is_int(self.num_counters):
            raise LevelFormatError(f"num_counters {self.num_counters!r} is not an integer")
        init = (0,) * self.num_counters if self.init_counters is None else tuple(self.init_counters)
        object.__setattr__(self, "init_counters", init)
        if len(init) != self.num_counters or not all(_is_int(v) and v >= 0 for v in init):
            raise LevelFormatError("init_counters must list one non-negative integer per counter")
        if _id("level entry", self.entry) not in self.gadgets:
            raise LevelFormatError(f"entry gadget {self.entry!r} missing")
        for gid, g in self.gadgets.items():
            if isinstance(g, LeverPull) and _id("lever signal", g.signal) not in self.signals:
                raise LevelFormatError(f"lever signal {g.signal!r} undeclared")
            if isinstance(g, CounterStation):
                self._check_counter(f"counter station {gid!r}", g.counter)
            for label in _EXITS.get(type(g), ()):
                if (gid, label) not in self.tim_edges:
                    raise LevelFormatError(f"gadget {gid!r} has no {label!r} exit")
        for (gid, label), target in self.tim_edges.items():
            if _id("tim edge from", gid) not in self.gadgets or _id("tim edge to", target) not in self.gadgets:
                raise LevelFormatError(f"tim edge {gid!r} -> {target!r} references a missing gadget")
            if label not in _EXITS.get(type(self.gadgets[gid]), ()):
                raise LevelFormatError(f"tim edge {gid!r} -> {target!r} leaves by {label!r}, no exit of its gadget")
        for sig, eff in self.signals.items():
            if isinstance(eff, OpenDoor) and (_id("open-door router", eff.router) not in self.gadgets
                                              or _id("open-door branch", eff.branch) not in self.gadgets):
                raise LevelFormatError(f"signal {sig!r} routes through a missing gadget")
            if isinstance(eff, (Add1, Remove1)):
                self._check_counter(f"signal {sig!r}", eff.counter)

    def _check_counter(self, what, counter):
        if not _is_int(counter):
            raise LevelFormatError(f"{what} names counter {counter!r}, not an integer")
        if not 0 <= counter < self.num_counters:
            raise LevelFormatError(f"{what} names counter {counter} out of range")


def _id(what, value):
    """value, which names a gadget, an exit or a signal and so must be a string."""
    if not isinstance(value, str):
        raise LevelFormatError(f"{what} {value!r} is not a string")
    return value


def _is_int(v):
    """True for an int that is not a bool: JSON's true would index counter 1."""
    return isinstance(v, int) and not isinstance(v, bool)


SOLVED = "solved"


@dataclass(frozen=True)
class LevelConfig:
    tim_at: str
    counters: tuple  # occupancy per counter index
    in_flight: tuple  # sorted (location id, monstars) pairs of the routers and branch slots holding any
    ticks: int = 0


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


# Opcodes of the lowered step table
_GOAL, _ADD, _REMOVE, _DOOR, _BRANCH, _STUCK = range(6)


def _lower(level: Level, in_flight=()):
    """Lower a level to a step table with one (op, arg, arg, out, alt) row
    per gadget, indexed by gadget number.

    Monstar locations are numbered with the gadgets. A router that a Remove1
    names but the level lacks, and an in-flight id that names no gadget, get
    numbers past the gadgets; they hold monstars but no row. Returns the
    table, the number of each location id and the id of each number.
    """
    names = list(level.gadgets)
    index = {name: i for i, name in enumerate(names)}

    def loc(name):
        if name not in index:
            index[name] = len(names)
            names.append(name)
        return index[name]

    for name, _ in in_flight:
        loc(name)
    table = []
    for gid, g in level.gadgets.items():
        if isinstance(g, Goal):
            row = (_GOAL, 0, 0, 0, 0)
        elif isinstance(g, LeverPull):
            eff = level.signals[g.signal]
            out = index[level.tim_edges[(gid, "out")]]
            if isinstance(eff, Add1):
                row = (_ADD, eff.counter, 0, out, 0)
            elif isinstance(eff, Remove1):
                row = (_REMOVE, eff.counter, loc(_router(eff.counter)), out, 0)
            else:  # OpenDoor
                row = (_DOOR, index[eff.router], index[eff.branch], out, 0)
        elif isinstance(g, Branch):
            row = (_BRANCH, 0, 0, index[level.tim_edges[(gid, "monstar")]], index[level.tim_edges[(gid, "empty")]])
        else:
            row = (_STUCK, f"player cannot stand at {gid!r} ({type(g).__name__})", 0, 0, 0)
        table.append(row)
    return table, index, names


def _run(table, pos, counters, flight, ticks, max_ticks):
    """The level interpreter: tick from gadget number pos, updating the
    counters list and the per-location monstar counts in flight in place,
    and jump whole iterations of its loops (`jump_loop`).

    Stops at a goal or at max_ticks ticks.
    Returns (pos, ticks, solved); a solved run counts the goal's tick.
    """
    seen = {}
    while ticks < max_ticks:
        op, a, b, out, alt = table[pos]
        if op == _REMOVE:
            if counters[a] > 0:
                counters[a] -= 1
                flight[b] += 1
            # at zero the freed bunny dies on the spikes: no token moves
            nxt = out
        elif op == _DOOR:
            if flight[a]:
                flight[a] -= 1
                flight[b] += 1
            nxt = out
        elif op == _BRANCH:
            if flight[pos]:
                flight[pos] -= 1  # jump on the monstar, killing it
                nxt = out
            else:
                nxt = alt
        elif op == _ADD:
            counters[a] += 1
            nxt = out
        elif op == _GOAL:
            return pos, ticks + 1, True
        else:
            raise LevelFormatError(a)
        ticks += 1
        if nxt <= pos:  # a back edge
            ticks = jump_loop(seen, nxt, ticks, (counters, flight), max_ticks)
        pos = nxt
    return pos, ticks, False


@dataclass(frozen=True)
class LevelRunResult:
    kind: str  # "solved" | "budget"
    ticks: int
    config: LevelConfig = None


def level_run(level: Level, max_ticks: int, init: LevelConfig = None) -> LevelRunResult:
    """Run the level from init, by default its start, to a goal or to
    max_ticks ticks in all."""
    if max_ticks < 0:
        raise ValueError("max_ticks must be >= 0")
    c = initial_level_config(level) if init is None else init
    if c.ticks >= max_ticks:
        return LevelRunResult("budget", c.ticks, c)
    table, index, names = _lower(level, c.in_flight)
    counters = list(c.counters)
    flight = [0] * len(names)
    for name, count in c.in_flight:
        flight[index[name]] += count
    pos, ticks, solved = _run(table, index[c.tim_at], counters, flight, c.ticks, max_ticks)
    if solved:
        return LevelRunResult("solved", ticks)
    in_flight = sorted((names[i], n) for i, n in enumerate(flight) if n)
    return LevelRunResult("budget", ticks, LevelConfig(names[pos], tuple(counters), tuple(in_flight), ticks))


def level_step(level: Level, c: LevelConfig):
    """One deterministic tick of the token semantics, a level_run to
    c.ticks + 1. Returns the next LevelConfig, or SOLVED when the player
    stands at a goal."""
    res = level_run(level, c.ticks + 1, c)
    return SOLVED if res.kind == SOLVED else res.config


class BoundaryRecord(NamedTuple):
    """A plain tuple: bisimulate builds one per instruction, and a tuple
    builds several times faster than a frozen dataclass."""

    index: int
    cm_pc: object  # instruction index or None once halted
    cm_counters: tuple
    tim_at: str  # gadget id, or "solved"
    occupancies: tuple
    ok: bool


@dataclass(frozen=True)
class BisimReport:
    passed: bool
    boundaries: tuple
    cm_halted: bool
    level_solved: bool
    ticks: int
    steps: int


def bisimulate(program: CounterProgram, max_steps: int) -> BisimReport:
    """Run the counter machine and its compiled level in lockstep.

    At every instruction boundary the machine's (pc, counters) must match
    the player's position and the station occupancies; at the end, halting
    must coincide with solving.

    One loop steps both: an instruction of the lowered program
    (`lower_program`), then ticks of the lowered level table up to the next
    instruction entry. The instruction step repeats `cm_run`'s and the
    ticks repeat `_run`'s, inlined because the two calls per instruction
    cost about 40% of the time. Neither copy jumps loop iterations
    (`jump_loop`): a boundary is recorded after every instruction, so
    every instruction is stepped. The lockstep tests with
    `tests/reference_level.py`, on compiled and on miscompiled levels, pin
    each copy to the reference semantics.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    rows = lower_program(program)
    level = compile(program)
    table, index, names = _lower(level)
    entries = [index[gid] for gid in _entries(program)]
    is_entry = [False] * len(names)
    for e in entries:
        is_entry[e] = True
    pc, cm_counters = 0, list(program.init_counters)
    pos, counters, flight = index[level.entry], list(level.init_counters), [0] * len(names)
    ticks = steps = 0
    solved = False
    ok = pos == entries[pc] and counters == cm_counters
    ok_all = ok
    record = tuple.__new__  # BoundaryRecord(...) through its NamedTuple __new__ is slower
    boundaries = [record(BoundaryRecord, (0, pc, tuple(cm_counters), names[pos], tuple(counters), ok))]
    while steps < max_steps and pc is not None:
        row = rows[pc]
        steps += 1
        if row is None:
            pc = None
        elif row[0]:
            cm_counters[row[1]] += 1
            pc = row[2]
        elif cm_counters[row[1]]:
            cm_counters[row[1]] -= 1
            pc = row[2]
        else:
            pc = row[3]
        # tick the level to the next instruction entry, or all the way to
        # solved when the machine just halted (the goal needs its own tick);
        # 3 gadgets per instruction, plus the goal
        limit = ticks + 5
        while ticks < limit:
            op, a, b, out, alt = table[pos]
            if op == _REMOVE:
                if counters[a] > 0:
                    counters[a] -= 1
                    flight[b] += 1
                pos = out
            elif op == _DOOR:
                if flight[a]:
                    flight[a] -= 1
                    flight[b] += 1
                pos = out
            elif op == _BRANCH:
                if flight[pos]:
                    flight[pos] -= 1
                    pos = out
                else:
                    pos = alt
            elif op == _ADD:
                counters[a] += 1
                pos = out
            elif op == _GOAL:
                ticks += 1
                solved = True
                break
            else:
                raise LevelFormatError(a)
            ticks += 1
            if pc is not None and is_entry[pos]:
                break
        cm_tuple = tuple(cm_counters)
        same = counters == cm_counters
        if pc is None:
            ok = solved and same
        else:
            ok = not solved and pos == entries[pc] and same
        ok_all = ok_all and ok
        boundaries.append(record(BoundaryRecord, (
            steps, pc, cm_tuple, SOLVED if solved else names[pos], cm_tuple if same else tuple(counters), ok)))
        if solved:
            break
    ok_all = ok_all and ((pc is None) == solved)
    return BisimReport(ok_all, tuple(boundaries), pc is None, solved, ticks, steps)


# ---------------------------------------------------------------------------
# Serialization

def level_to_json(level: Level) -> str:
    obj = {
        "entry": level.entry,
        "num_counters": level.num_counters,
        "gadgets": {gid: _tagged(g) for gid, g in sorted(level.gadgets.items())},
        "tim_edges": [{"from": gid, "exit": label, "to": dst} for (gid, label), dst in sorted(level.tim_edges.items())],
        "signals": {sig: _tagged(e) for sig, e in sorted(level.signals.items())},
        "init_counters": level.init_counters,
    }
    return json.dumps(obj, indent=2, sort_keys=True)


def _tagged(x):
    """A gadget or signal effect as a JSON object: its tag and its fields."""
    key, name = _TAG_OF[type(x)]
    return {key: name, **{f: getattr(x, f) for f in _FIELDS[type(x)]}}


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
                       for e in obj["tim_edges"]},
            signals={sig: _untagged(e, "effect", "signal effect") for sig, e in obj["signals"].items()},
            entry=_id("level entry", obj["entry"]),
            num_counters=obj["num_counters"],
            init_counters=obj.get("init_counters"),
        )
    except KeyError as e:
        raise LevelFormatError(f"missing field {e}")
    except (AttributeError, TypeError) as e:
        raise LevelFormatError(f"malformed level: {e}")


def _untagged(o, key, what):
    """The gadget or signal effect of a JSON object tagged at key."""
    name = o.get(key)
    try:
        cls = _KINDS[key][name]
    except (KeyError, TypeError):  # TypeError: a list or object as the tag
        raise LevelFormatError(f"unknown {what} {name!r}") from None
    return cls(*[o[f] if f == "counter" else _id(f"{name} {f}", o[f]) for f in _FIELDS[cls]])


def level_to_dot(level: Level) -> str:
    """GraphViz export: player edges solid, monstar edges dashed. Gadget ids
    are stable so exports diff cleanly."""
    lines = ["digraph level {", "  rankdir=LR;"]
    shapes = {LeverPull: "box", Branch: "diamond", CounterStation: "cylinder", TrapRouter: "trapezium",
              Goal: "doublecircle"}
    for gid, g in sorted(level.gadgets.items()):
        label = gid
        if isinstance(g, LeverPull):
            label = f"{gid}\\n{g.signal}"
        elif isinstance(g, CounterStation):
            label = f"{gid}\\ncounter {g.counter}"
        lines.append(f'  "{gid}" [shape={shapes[type(g)]}, label="{label}"];')
    for (src, exit_label), dst in sorted(level.tim_edges.items()):
        lines.append(f'  "{src}" -> "{dst}" [label="{exit_label}"];')
    # monstar edges from the signals, by router: its stations, then its branches
    removed = {e.counter for e in level.signals.values() if isinstance(e, Remove1)}
    flow = {(_router(g.counter), 0, gid) for gid, g in level.gadgets.items()
            if isinstance(g, CounterStation) and g.counter in removed}
    flow |= {(e.router, 1, e.branch) for e in level.signals.values() if isinstance(e, OpenDoor)}
    for router, door, other in sorted(flow):
        src, dst = (router, other) if door else (other, router)
        if src in level.gadgets and dst in level.gadgets:
            lines.append(f'  "{src}" -> "{dst}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"
