import dataclasses
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from braidbench import gadget_compiler
from braidbench.cli import main
from braidbench.counter_machine import (
    Add,
    CounterProgram,
    Halt,
    SubBranch,
    cm_run,
    cm_step,
    initial_config,
    parse_counter_program,
)
from braidbench.gadget_compiler import (
    Add1,
    Branch,
    Goal,
    LeverPull,
    LevelConfig,
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
from reference_level import ref_bisimulate, ref_cm_run, ref_cm_step, ref_level_run, ref_level_step


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


# --- lockstep with the reference semantics in tests/reference_level.py


def outcome(f, *args):
    """The repr of f's result, or the message of the LevelFormatError it
    raises: repr compares every field, with its type."""
    try:
        return repr(f(*args))
    except LevelFormatError as e:
        return f"LevelFormatError: {e}"


def assert_level_steps_agree(level, c, ticks):
    for _ in range(ticks):
        got = outcome(level_step, level, c)
        assert got == outcome(ref_level_step, level, c)
        if got.startswith("LevelFormatError") or got == repr(SOLVED):
            return
        c = ref_level_step(level, c)


@st.composite
def programs(draw):
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 6))
    counter, target = st.integers(0, n - 1), st.integers(0, k - 1)
    ins = draw(st.lists(st.one_of(st.builds(Add, counter), st.builds(SubBranch, counter, target), st.just(Halt())),
                        min_size=k, max_size=k))
    return CounterProgram(n, tuple(ins), tuple(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(p=programs(), budget=st.sampled_from([0, 1, 2]) | st.integers(0, 40))
def test_program_lockstep_with_reference(p, budget):
    assert outcome(bisimulate, p, budget) == outcome(ref_bisimulate, p, budget)
    c = initial_config(p)
    assert outcome(cm_run, p, c, budget) == outcome(ref_cm_run, p, c, budget)
    for _ in range(budget):
        if c.halted:
            break
        assert outcome(cm_step, p, c) == outcome(ref_cm_step, p, c)
        c = ref_cm_step(p, c)
    level = compile(p)
    for init in (None, initial_level_config(level, p.init_counters)):
        for ticks in (budget, 3 * budget + 1):
            assert outcome(level_run, level, ticks, init) == outcome(ref_level_run, level, ticks, init)
    assert_level_steps_agree(level, initial_level_config(level), budget)


# Gadget ids of hand-built levels, with the kinds each may take. A level may
# have the router "R0" that a Remove1 on counter 0 names, or lack it; it
# always lacks "R1". In-flight ids may also be "R1" or "Q", which name no
# gadget.
KINDS = {"R0": ["router", "lever", "branch"], "B0": ["branch", "branch", "counter"], "B1": ["branch"],
         "L0": ["lever"], "L1": ["lever"], "L2": ["lever", "counter"], "G0": ["goal", "counter", "router"]}


@st.composite
def json_levels(draw):
    """A hand-built level JSON, loaded, and a config to start it from. The
    player may reach a station or router, a Remove1 may name a router the
    level lacks, and the start may hold monstars in flight, several at one
    place and at ids that are not gadgets."""
    num_counters = draw(st.integers(1, 2))
    ids = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=2, max_size=6, unique=True))
    anywhere, counter = st.sampled_from(ids), st.integers(0, num_counters - 1)
    gadgets, signals, edges = {}, {}, []
    for gid in ids:
        kind = draw(st.sampled_from(KINDS[gid]))
        gadgets[gid] = {"kind": kind}
        if kind == "lever":
            effect = draw(st.sampled_from(["add1", "remove1", "open-door"]))
            if effect == "open-door":
                signals[f"s{gid}"] = {"effect": effect, "router": draw(anywhere), "branch": draw(anywhere)}
            else:
                signals[f"s{gid}"] = {"effect": effect, "counter": draw(counter)}
            gadgets[gid]["signal"] = f"s{gid}"
            edges.append({"from": gid, "exit": "out", "to": draw(anywhere)})
        elif kind == "branch":
            edges += [{"from": gid, "exit": label, "to": draw(anywhere)} for label in ("monstar", "empty")]
        elif kind == "counter":
            gadgets[gid]["counter"] = draw(counter)
        elif kind == "router":
            gadgets[gid]["doors"] = []
    counts = st.lists(st.integers(0, 3), min_size=num_counters, max_size=num_counters)
    level = level_from_json(json.dumps({
        "entry": draw(anywhere), "num_counters": num_counters, "gadgets": gadgets, "tim_edges": edges,
        "monstar_edges": [], "signals": signals, "init_counters": draw(counts)}))
    in_flight = draw(st.lists(st.sampled_from(sorted(KINDS) + ["R1", "Q"]), max_size=4))
    init = LevelConfig(draw(anywhere), tuple(draw(counts)), tuple(sorted(in_flight)), draw(st.integers(0, 2)))
    return level, init


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(case=json_levels(), budget=st.sampled_from([0, 1]) | st.integers(0, 12))
def test_json_level_lockstep_with_reference(case, budget):
    level, init = case
    for start in (None, init):
        assert outcome(level_run, level, budget, start) == outcome(ref_level_run, level, budget, start)
    assert_level_steps_agree(level, init, budget)


# --- bisimulate must fail on a miscompiled level

def swap_branch_exits(branch):
    def mutant(program):
        level = compile(program)  # this module's name for it; the patch replaces gadget_compiler.compile
        edges = dict(level.tim_edges)
        edges[(branch, "monstar")], edges[(branch, "empty")] = edges[(branch, "empty")], edges[(branch, "monstar")]
        return dataclasses.replace(level, tim_edges=edges)
    return mutant


def drop_add(lever):
    """The add lever becomes a pass-through branch that nothing feeds."""
    def mutant(program):
        level = compile(program)
        assert isinstance(level.signals[level.gadgets[lever].signal], Add1)
        out = level.tim_edges[(lever, "out")]
        edges = {k: v for k, v in level.tim_edges.items() if k != (lever, "out")}
        edges[(lever, "monstar")] = edges[(lever, "empty")] = out
        return dataclasses.replace(level, gadgets={**level.gadgets, lever: Branch()}, tim_edges=edges)
    return mutant


MUTANTS = {
    # the remove at step 2 frees a monstar, so the player must take B1's monstar exit
    "swapped-branch-exits": (swap_branch_exits("B1"),
                             "counters 2\ninit 0 1\n0: add 0\n1: subb 1 3\n2: halt\n3: halt\n", 2),
    "dropped-add": (drop_add("L2"), "counters 1\n0: add 0\n1: add 0\n2: add 0\n3: add 0\n4: halt\n", 3),
}


@pytest.mark.parametrize("mutant,src,first_bad", MUTANTS.values(), ids=MUTANTS.keys())
def test_bisimulate_fails_on_miscompiled_level(tmp_path, capsys, monkeypatch, mutant, src, first_bad):
    program = parse_counter_program(src)
    assert bisimulate(program, 100).passed
    monkeypatch.setattr(gadget_compiler, "compile", mutant)
    report = bisimulate(program, 100)
    assert report.passed is False
    assert [b.index for b in report.boundaries if not b.ok][0] == first_bad
    path = tmp_path / "p.cm"
    path.write_text(src)
    assert main(["bisim", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("fail:") and "MISMATCH" in out
