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
from dataclasses import dataclass
from typing import NamedTuple

from .counter_machine import Add, CounterProgram, SubBranch, lower_program


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
    # door signal id -> destination branch gadget id
    doors: tuple


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


# the exits level_step takes from each gadget kind the player can stand on
_EXITS = {LeverPull: ("out",), Branch: ("monstar", "empty")}


@dataclass(frozen=True)
class Level:
    gadgets: dict  # id -> Gadget
    tim_edges: dict  # (gadget id, exit label) -> gadget id
    monstar_edges: tuple  # (from id, to id) pairs, for export only
    signals: dict  # signal id -> effect
    entry: str
    num_counters: int
    # entry gadget per instruction index; index len(program) is the
    # fall-through goal
    instruction_entries: tuple = ()
    # occupancy per counter at the start; zeros if not given
    init_counters: tuple = None

    def __post_init__(self):
        if not _is_int(self.num_counters):
            raise LevelFormatError(f"num_counters {self.num_counters!r} is not an integer")
        init = (0,) * self.num_counters if self.init_counters is None else tuple(self.init_counters)
        object.__setattr__(self, "init_counters", init)
        if len(init) != self.num_counters or not all(_is_int(v) and v >= 0 for v in init):
            raise LevelFormatError("init_counters must list one non-negative integer per counter")
        if self.entry not in self.gadgets:
            raise LevelFormatError(f"entry gadget {self.entry!r} missing")
        for gid, g in self.gadgets.items():
            if isinstance(g, LeverPull) and g.signal not in self.signals:
                raise LevelFormatError(f"lever signal {g.signal!r} undeclared")
            if isinstance(g, CounterStation):
                self._check_counter(f"counter station {gid!r}", g.counter)
            for label in _EXITS.get(type(g), ()):
                if (gid, label) not in self.tim_edges:
                    raise LevelFormatError(f"gadget {gid!r} has no {label!r} exit")
            if isinstance(g, TrapRouter):
                for sig, _ in g.doors:
                    if sig not in self.signals:
                        raise LevelFormatError(f"router door signal {sig!r} undeclared")
        for (gid, _), target in self.tim_edges.items():
            if gid not in self.gadgets or target not in self.gadgets:
                raise LevelFormatError(f"tim edge {gid!r} -> {target!r} references a missing gadget")
        for sig, eff in self.signals.items():
            if isinstance(eff, OpenDoor) and (eff.router not in self.gadgets or eff.branch not in self.gadgets):
                raise LevelFormatError(f"signal {sig!r} routes through a missing gadget")
            if isinstance(eff, (Add1, Remove1)):
                self._check_counter(f"signal {sig!r}", eff.counter)

    def _check_counter(self, what, counter):
        if not _is_int(counter):
            raise LevelFormatError(f"{what} names counter {counter!r}, not an integer")
        if not 0 <= counter < self.num_counters:
            raise LevelFormatError(f"{what} names counter {counter} out of range")


def _is_int(v):
    """True for an int that is not a bool: JSON's true would index counter 1."""
    return isinstance(v, int) and not isinstance(v, bool)


SOLVED = "solved"


@dataclass(frozen=True)
class LevelConfig:
    tim_at: str
    counters: tuple  # occupancy per counter index
    in_flight: tuple  # sorted location ids (routers and branch slots) holding a monstar
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
    gadgets = {}
    tim_edges = {}
    monstar_edges = []
    signals = {}
    n_ins = len(program.instructions)
    entry_of = {}

    # Stations exist for every counter so occupancies line up with the
    # machine's counter vector; routers only where something is removed.
    for c in range(program.num_counters):
        gadgets[f"C{c}"] = CounterStation(c)
    router_doors = {}  # counter -> list of (signal, branch id)

    for i, ins in enumerate(program.instructions):
        if isinstance(ins, Add):
            gid = f"L{i}"
            sig = f"add{i}"
            gadgets[gid] = LeverPull(sig)
            signals[sig] = Add1(ins.counter)
            entry_of[i] = gid
        elif isinstance(ins, SubBranch):
            sub, door, br = f"L{i}", f"D{i}", f"B{i}"
            sub_sig, door_sig = f"sub{i}", f"door{i}"
            gadgets[sub] = LeverPull(sub_sig)
            gadgets[door] = LeverPull(door_sig)
            gadgets[br] = Branch()
            signals[sub_sig] = Remove1(ins.counter)
            signals[door_sig] = OpenDoor(f"R{ins.counter}", br)
            router_doors.setdefault(ins.counter, []).append((door_sig, br))
            tim_edges[(sub, "out")] = door
            tim_edges[(door, "out")] = br
            entry_of[i] = sub
        else:  # Halt
            gid = f"G{i}"
            gadgets[gid] = Goal()
            entry_of[i] = gid
    gadgets["Gend"] = Goal()
    entry_of[n_ins] = "Gend"

    for c, doors in router_doors.items():
        gadgets[f"R{c}"] = TrapRouter(tuple(doors))
        monstar_edges.append((f"C{c}", f"R{c}"))
        for _, br in doors:
            monstar_edges.append((f"R{c}", br))

    # Control-flow edges between instructions.
    for i, ins in enumerate(program.instructions):
        if isinstance(ins, Add):
            tim_edges[(entry_of[i], "out")] = entry_of[i + 1]
        elif isinstance(ins, SubBranch):
            tim_edges[(f"B{i}", "monstar")] = entry_of[i + 1]
            tim_edges[(f"B{i}", "empty")] = entry_of[ins.target]

    return Level(
        gadgets=gadgets,
        tim_edges=tim_edges,
        monstar_edges=tuple(monstar_edges),
        signals=signals,
        entry=entry_of[0],
        num_counters=program.num_counters,
        instruction_entries=tuple(entry_of[i] for i in range(n_ins + 1)),
        init_counters=program.init_counters,
    )


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

    for name in in_flight:
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
                row = (_REMOVE, eff.counter, loc(f"R{eff.counter}"), out, 0)
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
    counters list and the per-location monstar counts in flight in place.

    Stops at a goal or at max_ticks ticks.
    Returns (pos, ticks, solved); a solved run counts the goal's tick.
    """
    while ticks < max_ticks:
        op, a, b, out, alt = table[pos]
        if op == _REMOVE:
            if counters[a] > 0:
                counters[a] -= 1
                flight[b] += 1
            # at zero the freed bunny dies on the spikes: no token moves
            pos = out
        elif op == _DOOR:
            if flight[a]:
                flight[a] -= 1
                flight[b] += 1
            pos = out
        elif op == _BRANCH:
            if flight[pos]:
                flight[pos] -= 1  # jump on the monstar, killing it
                pos = out
            else:
                pos = alt
        elif op == _ADD:
            counters[a] += 1
            pos = out
        elif op == _GOAL:
            return pos, ticks + 1, True
        else:
            raise LevelFormatError(a)
        ticks += 1
    return pos, ticks, False


def _advance(level: Level, c: LevelConfig, max_ticks: int):
    """Run the level from c to a goal or to max_ticks ticks. Returns
    (solved, ticks, config), config None once solved."""
    if c.ticks >= max_ticks:
        return False, c.ticks, c
    table, index, names = _lower(level, c.in_flight)
    counters = list(c.counters)
    flight = [0] * len(names)
    for name in c.in_flight:
        flight[index[name]] += 1
    pos, ticks, solved = _run(table, index[c.tim_at], counters, flight, c.ticks, max_ticks)
    if solved:
        return True, ticks, None
    in_flight = sorted(names[i] for i, n in enumerate(flight) for _ in range(n))
    return False, ticks, LevelConfig(names[pos], tuple(counters), tuple(in_flight), ticks)


def level_step(level: Level, c: LevelConfig):
    """One deterministic tick of the token semantics. Returns the next
    LevelConfig, or SOLVED when the player stands at a goal."""
    solved, _, nxt = _advance(level, c, c.ticks + 1)
    return SOLVED if solved else nxt


@dataclass(frozen=True)
class LevelRunResult:
    kind: str  # "solved" | "budget"
    ticks: int
    config: LevelConfig = None


def level_run(level: Level, max_ticks: int, init: LevelConfig = None) -> LevelRunResult:
    if max_ticks < 0:
        raise ValueError("max_ticks must be >= 0")
    c = initial_level_config(level) if init is None else init
    solved, ticks, end = _advance(level, c, max_ticks)
    return LevelRunResult("solved", ticks) if solved else LevelRunResult("budget", ticks, end)


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
    cost about 40% of the time. The lockstep tests with
    `tests/reference_level.py`, on compiled and on miscompiled levels, pin
    each copy to the reference semantics.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    rows = lower_program(program)
    level = compile(program)
    table, index, names = _lower(level)
    entries = [index[gid] for gid in level.instruction_entries]
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
    def gadget_obj(g):
        if isinstance(g, LeverPull):
            return {"kind": "lever", "signal": g.signal}
        if isinstance(g, Branch):
            return {"kind": "branch"}
        if isinstance(g, CounterStation):
            return {"kind": "counter", "counter": g.counter}
        if isinstance(g, TrapRouter):
            return {"kind": "router", "doors": [list(d) for d in g.doors]}
        return {"kind": "goal"}

    def effect_obj(e):
        if isinstance(e, Add1):
            return {"effect": "add1", "counter": e.counter}
        if isinstance(e, Remove1):
            return {"effect": "remove1", "counter": e.counter}
        return {"effect": "open-door", "router": e.router, "branch": e.branch}

    obj = {
        "entry": level.entry,
        "num_counters": level.num_counters,
        "gadgets": {gid: gadget_obj(g) for gid, g in sorted(level.gadgets.items())},
        "tim_edges": [{"from": gid, "exit": label, "to": dst} for (gid, label), dst in sorted(level.tim_edges.items())],
        "monstar_edges": [list(e) for e in level.monstar_edges],
        "signals": {sig: effect_obj(e) for sig, e in sorted(level.signals.items())},
        "instruction_entries": list(level.instruction_entries),
        "init_counters": list(level.init_counters),
    }
    return json.dumps(obj, indent=2, sort_keys=True)


def level_from_json(text: str) -> Level:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise LevelFormatError(str(e))
    if not isinstance(obj, dict):
        raise LevelFormatError("level JSON must be an object")

    def gadget(o):
        kind = o.get("kind")
        if kind == "lever":
            return LeverPull(o["signal"])
        if kind == "branch":
            return Branch()
        if kind == "counter":
            return CounterStation(o["counter"])
        if kind == "router":
            return TrapRouter(tuple(tuple(d) for d in o["doors"]))
        if kind == "goal":
            return Goal()
        raise LevelFormatError(f"unknown gadget kind {kind!r}")

    def effect(o):
        e = o.get("effect")
        if e == "add1":
            return Add1(o["counter"])
        if e == "remove1":
            return Remove1(o["counter"])
        if e == "open-door":
            return OpenDoor(o["router"], o["branch"])
        raise LevelFormatError(f"unknown signal effect {e!r}")

    try:
        return Level(
            gadgets={gid: gadget(g) for gid, g in obj["gadgets"].items()},
            tim_edges={(e["from"], e["exit"]): e["to"] for e in obj["tim_edges"]},
            monstar_edges=tuple(tuple(e) for e in obj["monstar_edges"]),
            signals={sig: effect(e) for sig, e in obj["signals"].items()},
            entry=obj["entry"],
            num_counters=obj["num_counters"],
            instruction_entries=tuple(obj.get("instruction_entries", ())),
            init_counters=obj.get("init_counters"),
        )
    except KeyError as e:
        raise LevelFormatError(f"missing field {e}")
    except (AttributeError, TypeError) as e:
        raise LevelFormatError(f"malformed level: {e}")


def level_to_dot(level: Level) -> str:
    """GraphViz export: player edges solid, monstar edges dashed. Gadget ids
    are stable so exports diff cleanly."""
    lines = ["digraph level {", "  rankdir=LR;"]
    shapes = {
        LeverPull: "box",
        Branch: "diamond",
        CounterStation: "cylinder",
        TrapRouter: "trapezium",
        Goal: "doublecircle",
    }
    for gid, g in sorted(level.gadgets.items()):
        label = gid
        if isinstance(g, LeverPull):
            label = f"{gid}\\n{g.signal}"
        elif isinstance(g, CounterStation):
            label = f"{gid}\\ncounter {g.counter}"
        lines.append(f'  "{gid}" [shape={shapes[type(g)]}, label="{label}"];')
    for (src, exit_label), dst in sorted(level.tim_edges.items()):
        lines.append(f'  "{src}" -> "{dst}" [label="{exit_label}"];')
    for src, dst in level.monstar_edges:
        lines.append(f'  "{src}" -> "{dst}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"
