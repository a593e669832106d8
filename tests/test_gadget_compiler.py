import json
import random

import pytest

from braidbench.counter_machine import (
    Add,
    CounterProgram,
    Halt,
    SubBranch,
    cm_run,
    initial_config,
    parse_counter_program,
)
from braidbench.gadget_compiler import (
    Branch,
    Goal,
    LeverPull,
    LevelFormatError,
    SOLVED,
    bisimulate,
    compile,
    initial_level_config,
    level_from_json,
    level_run,
    level_step,
    level_to_dot,
    level_to_json,
)


def test_compile_halt_only():
    level = compile(CounterProgram(1, (Halt(),)))
    assert isinstance(level.gadgets[level.entry], Goal)


def test_compile_add_halt():
    level = compile(CounterProgram(1, (Add(0), Halt())))
    entry = level.gadgets[level.entry]
    assert isinstance(entry, LeverPull)
    assert level.tim_edges[(level.entry, "out")] == "G1"
    assert len(level.signals) == 1


def test_compile_subbranch_shape():
    level = compile(CounterProgram(1, (SubBranch(0, 0), Halt())))
    levers = [g for g in level.gadgets.values() if isinstance(g, LeverPull)]
    branches = [g for g in level.gadgets.values() if isinstance(g, Branch)]
    assert len(levers) == 2 and len(branches) == 1
    # the empty exit loops back to the instruction's own entry
    assert level.tim_edges[("B0", "empty")] == level.entry
    assert level.tim_edges[("B0", "monstar")] == "G1"


def test_compile_records_instruction_entries():
    p = CounterProgram(1, (Add(0), SubBranch(0, 0), Halt()))
    level = compile(p)
    assert len(level.instruction_entries) == 4
    assert level.instruction_entries[0] == level.entry
    assert level.instruction_entries[3] == "Gend"


def test_level_step_goal_solves():
    level = compile(CounterProgram(1, (Halt(),)))
    assert level_step(level, initial_level_config(level)) is SOLVED


def test_level_step_add_increments():
    level = compile(CounterProgram(1, (Add(0), Halt())))
    c = level_step(level, initial_level_config(level))
    assert c.counters == (1,)


def test_level_step_remove_at_zero_is_noop():
    level = compile(CounterProgram(1, (SubBranch(0, 1), Halt())))
    c = level_step(level, initial_level_config(level))
    assert c.counters == (0,)
    assert c.in_flight == ()


def test_level_step_remove_spawns_monstar():
    level = compile(CounterProgram(1, (SubBranch(0, 1), Halt())))
    c = initial_level_config(level, (2,))
    c = level_step(level, c)  # remove lever
    assert c.counters == (1,) and c.in_flight == ("R0",)
    c = level_step(level, c)  # door lever routes the monstar to the branch
    assert c.in_flight == ("B0",)
    c = level_step(level, c)  # branch: monstar present, slot cleared
    assert c.in_flight == ()
    assert c.tim_at == "G1"


def test_level_run_halt_program():
    level = compile(CounterProgram(1, (Halt(),)))
    res = level_run(level, 10)
    assert res.kind == "solved" and res.ticks == 1


def test_level_run_budget_zero():
    level = compile(CounterProgram(1, (Halt(),)))
    assert level_run(level, 0).kind == "budget"


def test_level_run_nonhalting_budget():
    level = compile(parse_counter_program("counters 1\n0: subb 0 0"))
    assert level_run(level, 10 ** 4).kind == "budget"


def test_bisimulate_two_adds():
    report = bisimulate(CounterProgram(1, (Add(0), Add(0), Halt())), 100)
    assert report.passed
    occ = [b.occupancies for b in report.boundaries]
    assert occ == [(0,), (1,), (2,), (2,)]


def test_bisimulate_zero_branch():
    report = bisimulate(CounterProgram(1, (SubBranch(0, 1), Halt())), 100)
    assert report.passed
    assert report.cm_halted and report.level_solved


def test_bisimulate_nonhalting_both_unfinished():
    p = parse_counter_program("counters 1\n0: subb 0 0")
    report = bisimulate(p, 1000)
    assert report.passed
    assert not report.cm_halted and not report.level_solved


def test_bisimulate_init_counters():
    p = parse_counter_program("counters 2\ninit 2 0\n0: subb 0 2\n1: subb 1 0\n2: halt")
    report = bisimulate(p, 1000)
    assert report.passed


def test_occupancy_never_negative_random_programs():
    rng = random.Random(121)
    for _ in range(100):
        n_counters = rng.randint(1, 3)
        n_ins = rng.randint(1, 6)
        ins = []
        for _ in range(n_ins):
            kind = rng.randrange(3)
            if kind == 0:
                ins.append(Add(rng.randrange(n_counters)))
            elif kind == 1:
                ins.append(SubBranch(rng.randrange(n_counters), rng.randrange(n_ins)))
            else:
                ins.append(Halt())
        p = CounterProgram(n_counters, tuple(ins))
        level = compile(p)  # Level validation runs in the constructor
        c = initial_level_config(level)
        for _ in range(60):
            nxt = level_step(level, c)
            if nxt is SOLVED:
                break
            c = nxt
            assert all(v >= 0 for v in c.counters)


def test_bisimulate_random_programs():
    rng = random.Random(122)
    for _ in range(60):
        n_counters = rng.randint(1, 3)
        n_ins = rng.randint(1, 6)
        ins = []
        for _ in range(n_ins):
            kind = rng.randrange(3)
            if kind == 0:
                ins.append(Add(rng.randrange(n_counters)))
            elif kind == 1:
                ins.append(SubBranch(rng.randrange(n_counters), rng.randrange(n_ins)))
            else:
                ins.append(Halt())
        p = CounterProgram(n_counters, tuple(ins))
        assert bisimulate(p, 500).passed


def test_ticks_tracked_against_steps():
    p = CounterProgram(2, (Add(0), Add(1), SubBranch(0, 3), Halt()))
    report = bisimulate(p, 100)
    assert report.passed
    res = cm_run(p, initial_config(p), 100)
    assert report.ticks <= 3 * res.config.steps + 1


def test_json_round_trip():
    level = compile(CounterProgram(2, (Add(1), SubBranch(1, 0), Halt()), (3, 1)))
    assert level.init_counters == (3, 1)
    assert level_from_json(level_to_json(level)) == level
    # a level file without the field starts from zero counters
    obj = json.loads(level_to_json(level))
    del obj["init_counters"]
    assert level_from_json(json.dumps(obj)).init_counters == (0, 0)


def test_json_rejects_garbage():
    with pytest.raises(LevelFormatError):
        level_from_json("{not json")
    with pytest.raises(LevelFormatError):
        level_from_json('{"entry": "x"}')


def test_dot_export_shape():
    level = compile(CounterProgram(1, (SubBranch(0, 0), Halt())))
    dot = level_to_dot(level)
    assert dot.startswith("digraph level {")
    assert "style=dashed" in dot  # monstar edges
    assert '"B0"' in dot


def test_json_rejects_junction_and_ignores_crossover_count():
    level = compile(CounterProgram(1, (Add(0), SubBranch(0, 0), Halt())))
    obj = json.loads(level_to_json(level))
    obj["crossover_count"] = 3
    assert level_from_json(json.dumps(obj)) == level
    # a well-wired junction, which loaded before the gadget was retired
    obj["gadgets"]["J"] = {"kind": "junction"}
    obj["tim_edges"].append({"from": "J", "exit": "out", "to": level.entry})
    with pytest.raises(LevelFormatError):
        level_from_json(json.dumps(obj))
