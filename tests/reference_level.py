"""Reference semantics for counter programs and levels.

These are the tuple-stepping `cm_step`, `cm_run`, `level_step`,
`level_run` and `bisimulate` that the library replaced with lowered tables
stepped in place: one row per instruction (`counter_machine.lower_program`,
stepped by `cm_run`), one row per gadget (`gadget_compiler._lower`, stepped
by `gadget_compiler._run`), and `bisimulate`'s one loop over both. Each
tick here builds a fresh frozen config and looks instructions, gadgets,
signals and exits up by id, so it shares no state and no table with the
library. The lockstep properties in `tests/test_gadget_compiler.py`
require equal results, field by field and boundary by boundary, and the
same `LevelFormatError` message, also on miscompiled levels: they patch
`compile` here as well as in `gadget_compiler`, since this module imports
it by name.
"""

from collections import Counter

from braidbench.counter_machine import Add, CounterConfig, CounterProgram, Halt, RunResult, initial_config
from braidbench.gadget_compiler import (
    SOLVED,
    Add1,
    BisimReport,
    BoundaryRecord,
    Branch,
    Goal,
    Level,
    LevelConfig,
    LevelFormatError,
    LevelRunResult,
    LeverPull,
    Remove1,
    compile,
    initial_level_config,
)


def ref_cm_step(program: CounterProgram, c: CounterConfig) -> CounterConfig:
    """Execute one instruction. Pure; the input config is not modified."""
    if c.halted:
        raise ValueError("cannot step a halted configuration")
    ins = program.instructions[c.pc]
    counters = c.counters
    if isinstance(ins, Halt):
        pc = None
    elif isinstance(ins, Add):
        counters = counters[: ins.counter] + (counters[ins.counter] + 1,) + counters[ins.counter + 1 :]
        pc = c.pc + 1
    else:  # SubBranch
        if counters[ins.counter] > 0:
            counters = counters[: ins.counter] + (counters[ins.counter] - 1,) + counters[ins.counter + 1 :]
            pc = c.pc + 1
        else:
            pc = ins.target
    if pc is not None and pc >= len(program.instructions):
        pc = None  # fell off the end: implicit halt
    return CounterConfig(pc=pc, counters=counters, steps=c.steps + 1)


def ref_cm_run(program: CounterProgram, init: CounterConfig, max_steps: int) -> RunResult:
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    c = init
    for _ in range(max_steps):
        if c.halted:
            return RunResult("halted", c)
        c = ref_cm_step(program, c)
    if c.halted:
        return RunResult("halted", c)
    return RunResult("budget", c)


def ref_level_step(level: Level, c: LevelConfig):
    """One deterministic step of the token semantics. Returns the next
    LevelConfig, or SOLVED when the player stands at a goal."""
    g = level.gadgets[c.tim_at]
    counters = list(c.counters)
    in_flight = Counter()
    for loc, count in c.in_flight:
        in_flight[loc] += count
    if isinstance(g, Goal):
        return SOLVED
    if isinstance(g, LeverPull):
        eff = level.signals[g.signal]
        if isinstance(eff, Add1):
            counters[eff.counter] += 1
        elif isinstance(eff, Remove1):
            if counters[eff.counter] > 0:
                counters[eff.counter] -= 1
                in_flight[f"R{eff.counter}"] += 1
            # at zero the freed bunny dies on the spikes: no token moves
        else:  # OpenDoor
            if in_flight[eff.router]:
                in_flight[eff.router] -= 1
                in_flight[eff.branch] += 1
        nxt = level.tim_edges[(c.tim_at, "out")]
    elif isinstance(g, Branch):
        if in_flight[c.tim_at]:
            in_flight[c.tim_at] -= 1  # jump on the monstar, killing it
            nxt = level.tim_edges[(c.tim_at, "monstar")]
        else:
            nxt = level.tim_edges[(c.tim_at, "empty")]
    else:
        raise LevelFormatError(f"player cannot stand at {c.tim_at!r} ({type(g).__name__})")
    return LevelConfig(nxt, tuple(counters), tuple(sorted((+in_flight).items())), c.ticks + 1)


def ref_level_run(level: Level, max_ticks: int, init: LevelConfig = None) -> LevelRunResult:
    if max_ticks < 0:
        raise ValueError("max_ticks must be >= 0")
    c = initial_level_config(level) if init is None else init
    while c.ticks < max_ticks:
        nxt = ref_level_step(level, c)
        if nxt is SOLVED:
            return LevelRunResult("solved", c.ticks + 1)
        c = nxt
    return LevelRunResult("budget", c.ticks, c)


def ref_bisimulate(program: CounterProgram, max_steps: int) -> BisimReport:
    """Run the counter machine and its compiled level in lockstep.

    At every instruction boundary the machine's (pc, counters) must match
    the player's position and the station occupancies; at the end, halting
    must coincide with solving.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    level = compile(program)
    cm = initial_config(program)
    lv = initial_level_config(level)
    # each instruction's entry gadget, as compile names it; the last is the fall-through goal
    entries = [f"G{i}" if isinstance(ins, Halt) else f"L{i}" for i, ins in enumerate(program.instructions)] + ["Gend"]
    boundaries = []
    solved = False
    ok_all = True

    def record(idx, ok):
        nonlocal ok_all
        ok_all = ok_all and ok
        boundaries.append(
            BoundaryRecord(idx, cm.pc, cm.counters, SOLVED if solved else lv.tim_at, lv.counters, ok)
        )

    record(0, lv.tim_at == entries[cm.pc] and lv.counters == cm.counters)
    for k in range(1, max_steps + 1):
        if cm.halted:
            break
        cm = ref_cm_step(program, cm)
        # advance the level to the next instruction entry, or all the way to
        # solved when the machine just halted (the goal needs its own tick)
        ticks_before = lv.ticks
        while lv.ticks - ticks_before <= 4:  # 3 gadgets per instruction, plus the goal
            nxt = ref_level_step(level, lv)
            if nxt is SOLVED:
                solved = True
                break
            lv = nxt
            if not cm.halted and lv.tim_at in entries:
                break
        if cm.halted:
            ok = solved and lv.counters == cm.counters
        else:
            ok = (
                not solved
                and lv.tim_at == entries[cm.pc]
                and lv.counters == cm.counters
            )
        record(k, ok)
        if solved:
            break
    ok_all = ok_all and (cm.halted == solved)
    return BisimReport(ok_all, tuple(boundaries), cm.halted, solved, lv.ticks + (1 if solved else 0), cm.steps)
