import dataclasses
import json
import random
import re
import time
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_level
from braidbench import gadget_compiler
from braidbench.cli import main
from braidbench.counter_machine import (
    Add,
    CounterConfig,
    CounterProgram,
    Halt,
    RunResult,
    SubBranch,
    cm_run,
    cm_step,
    initial_config,
    parse_counter_program,
)
from braidbench.gadget_compiler import (
    Add1,
    Branch,
    CounterStation,
    Goal,
    LeverPull,
    Level,
    LevelConfig,
    LevelFormatError,
    LevelRunResult,
    OpenDoor,
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
from test_acceptance import CORPUS


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
    # instruction i is entered at L<i>, or at G<i> for a halt, and the
    # fall-through at Gend; bisimulate's boundaries stand at those entries
    p = CounterProgram(1, (Add(0), SubBranch(0, 0), Halt()))
    assert [b.tim_at for b in bisimulate(p, 10).boundaries] == ["L0", "L1", "G2", SOLVED]
    assert compile(CounterProgram(1, (Add(0),))).tim_edges[("L0", "out")] == "Gend"


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
    assert c.counters == (1,) and c.in_flight == (("R0", 1),)
    c = level_step(level, c)  # door lever routes the monstar to the branch
    assert c.in_flight == (("B0", 1),)
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


def flight_pairs(ids):
    """LevelConfig.in_flight for one monstar at each id in the list."""
    return tuple(sorted(Counter(ids).items()))


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


@st.composite
def loop_programs(draw):
    """Transfer, drain and add loops over counters a and b, with a zero
    scratch counter z for jumps, from `init` counters in the hundreds. The
    last instruction halts or jumps back to the start, which never halts."""
    a, b, z = draw(st.permutations(range(3)))
    init = [0, 0, 0]
    init[a], init[b] = draw(st.integers(100, 400)), draw(st.integers(100, 400))
    ins = []
    for kind, forward in draw(st.lists(st.tuples(st.sampled_from(["transfer", "drain", "adds"]), st.booleans()),
                                       min_size=1, max_size=4)):
        src, dst = (a, b) if forward else (b, a)
        start = len(ins)
        if kind == "transfer":  # move src into dst, 3 steps a unit
            ins += [SubBranch(src, start + 3), Add(dst), SubBranch(z, start)]
        elif kind == "drain":  # empty src, 2 steps a unit
            ins += [SubBranch(src, start + 2), SubBranch(z, start)]
        else:
            ins += [Add(dst)] * draw(st.integers(1, 4))
    ins.append(draw(st.sampled_from([Halt(), SubBranch(z, 0)])))
    return CounterProgram(3, tuple(ins), tuple(init))


# transfer counter 0 into counter 1, then drain counter 1: halts after 2 603 steps
TRANSFER_DRAIN = CounterProgram(3, (SubBranch(0, 3), Add(1), SubBranch(2, 0), SubBranch(1, 5), SubBranch(2, 3), Halt()),
                                (400, 300, 0))


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(p=loop_programs(), budget=st.just(10 ** 4) | st.integers(0, 10 ** 4))
@example(p=TRANSFER_DRAIN, budget=10 ** 4)
@example(p=TRANSFER_DRAIN, budget=2000)
def test_long_run_lockstep_with_reference(p, budget):
    assert outcome(bisimulate, p, budget) == outcome(ref_bisimulate, p, budget)
    c = initial_config(p)
    assert outcome(cm_run, p, c, budget) == outcome(ref_cm_run, p, c, budget)
    level = compile(p)
    for init in (initial_level_config(level, (0,) * p.num_counters), None):
        assert outcome(level_run, level, 3 * budget + 1, init) == outcome(ref_level_run, level, 3 * budget + 1, init)


# Each iteration takes two units off counter 0 and puts one back, so the
# second zero test of an iteration reads one less than the first: a jump
# may only go as far as iterations whose every test stays above zero.
DIP = "counters 2\n0: subb 0 4\n1: subb 0 4\n2: add 0\n3: subb 1 0\n4: halt\n"


def test_jumps_stop_where_a_dip_inside_the_loop_reaches_zero():
    for c0 in range(40):
        p = parse_counter_program(DIP.replace("counters 2", f"counters 2\ninit {c0} 0"))
        level = compile(p)
        for budget in (5, 37, 10 ** 4):
            assert outcome(cm_run, p, initial_config(p), budget) == outcome(ref_cm_run, p, initial_config(p), budget)
            assert outcome(level_run, level, 3 * budget + 1) == outcome(ref_level_run, level, 3 * budget + 1)


@pytest.mark.parametrize("a,b", [(4, 3), (400, 300), (10 ** 9 + 7, 10 ** 9 - 3)])
def test_transfer_drain_runs_exactly_at_scale(a, b):
    # TRANSFER_DRAIN from (a, b, 0) moves a into b in 3a + 1 steps, drains
    # a + b in 2(a + b) + 1 and halts in 1; its level takes 7 ticks a unit
    # moved, 6 a unit drained, 3 to leave each loop and 1 at the goal
    start = time.perf_counter()
    p = dataclasses.replace(TRANSFER_DRAIN, init_counters=(a, b, 0))
    steps, ticks = 5 * a + 2 * b + 3, 13 * a + 6 * b + 7
    assert ticks <= 3 * steps + 1
    level = compile(p)
    j, i = a // 2, (a + b) // 2  # transfer units done, drain units done
    expected = [
        (cm_run, (p, initial_config(p), 10 ** 12), RunResult("halted", CounterConfig(None, (0, 0, 0), steps))),
        (cm_run, (p, initial_config(p), 3 * j + 1),
         RunResult("budget", CounterConfig(1, (a - j - 1, b + j, 0), 3 * j + 1))),
        (cm_run, (p, initial_config(p), 3 * a + 1 + 2 * i),
         RunResult("budget", CounterConfig(3, (0, a + b - i, 0), 3 * a + 1 + 2 * i))),
        (level_run, (level, 3 * steps + 1), LevelRunResult("solved", ticks)),
        (level_run, (level, 10 ** 12), LevelRunResult("solved", ticks)),
        (level_run, (level, 7 * j + 2), LevelRunResult("budget", 7 * j + 2, LevelConfig(
            "B0", (a - j - 1, b + j, 0), (("B0", 1),), 7 * j + 2))),
        (level_run, (level, 7 * a + 3 + 6 * i + 4), LevelRunResult("budget", 7 * a + 3 + 6 * i + 4, LevelConfig(
            "D4", (0, a + b - i - 1, 0), (), 7 * a + 3 + 6 * i + 4))),
    ]
    for f, args, result in expected:
        assert f(*args) == result
    assert time.perf_counter() - start < 1
    if a < 10 ** 3:
        for f, args, result in expected:
            assert {cm_run: ref_cm_run, level_run: ref_level_run}[f](*args) == result


# Gadget ids of hand-built levels, with the kinds each may take. A level may
# have the router "R0" that a Remove1 on counter 0 names, or lack it; it
# always lacks "R1". In-flight ids may also be "R1" or "Q", which name no
# gadget.
KINDS = {"R0": ["router", "lever", "branch"], "B0": ["branch", "branch", "counter"], "B1": ["branch"],
         "L0": ["lever"], "L1": ["lever"], "L2": ["lever", "counter"], "G0": ["goal", "counter", "router"]}


@st.composite
def json_levels(draw, count=st.integers(0, 3)):
    """A hand-built level JSON, loaded, and a config to start it from. The
    player may reach a station or router, a Remove1 may name a router the
    level lacks, and the start may hold monstars in flight, several at one
    place and at ids that are not gadgets. Counters are drawn from count."""
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
    counts = st.lists(count, min_size=num_counters, max_size=num_counters)
    level = level_from_json(json.dumps({
        "entry": draw(anywhere), "num_counters": num_counters, "gadgets": gadgets, "tim_edges": edges,
        "signals": signals, "init_counters": draw(counts)}))
    in_flight = draw(st.lists(st.sampled_from(sorted(KINDS) + ["R1", "Q"]), max_size=4))
    init = LevelConfig(draw(anywhere), tuple(draw(counts)), flight_pairs(in_flight), draw(st.integers(0, 2)))
    return level, init


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(case=json_levels(), budget=st.sampled_from([0, 1]) | st.integers(0, 12))
def test_json_level_lockstep_with_reference(case, budget):
    level, init = case
    for start in (None, init):
        assert outcome(level_run, level, budget, start) == outcome(ref_level_run, level, budget, start)
    assert_level_steps_agree(level, init, budget)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(case=json_levels(count=st.integers(0, 3) | st.integers(100, 400)),
       budget=st.just(10 ** 4) | st.integers(0, 10 ** 4))
def test_json_level_long_run_lockstep_with_reference(case, budget):
    level, init = case
    for start in (None, init):
        assert outcome(level_run, level, budget, start) == outcome(ref_level_run, level, budget, start)


# --- bisimulate must fail on a miscompiled level

def swap_branch_exits(level, branch):
    edges = dict(level.tim_edges)
    edges[(branch, "monstar")], edges[(branch, "empty")] = edges[(branch, "empty")], edges[(branch, "monstar")]
    return dataclasses.replace(level, tim_edges=edges)


def drop_add(level, lever):
    """The add lever becomes a pass-through branch that nothing feeds."""
    assert isinstance(level.signals[level.gadgets[lever].signal], Add1)
    out = level.tim_edges[(lever, "out")]
    edges = {k: v for k, v in level.tim_edges.items() if k != (lever, "out")}
    edges[(lever, "monstar")] = edges[(lever, "empty")] = out
    return dataclasses.replace(level, gadgets={**level.gadgets, lever: Branch()}, tim_edges=edges)


def retarget_door(level, signal, router, branch):
    return dataclasses.replace(level, signals={**level.signals, signal: OpenDoor(router, branch)})


def lever_to_station(level, lever, station):
    """The player walks onto a counter station: the level table's stuck row."""
    return dataclasses.replace(level, tim_edges={**level.tim_edges, (lever, "out"): station})


def mutated(*mutations):
    """A stand-in for compile that applies (function, *args) mutations in
    order to the real compile's level."""
    def mutant(program):
        level = compile(program)  # this module's name for it; the patch replaces gadget_compiler.compile
        for f, *args in mutations:
            level = f(level, *args)
        return level
    return mutant


MUTANTS = {
    # the remove at step 2 frees a monstar, so the player must take B1's monstar exit
    "swapped-branch-exits": (mutated((swap_branch_exits, "B1")),
                             "counters 2\ninit 0 1\n0: add 0\n1: subb 1 3\n2: halt\n3: halt\n", 2),
    "dropped-add": (mutated((drop_add, "L2")), "counters 1\n0: add 0\n1: add 0\n2: add 0\n3: add 0\n4: halt\n", 3),
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


@st.composite
def mutations(draw, level):
    """One to three mutations of a compiled level, as mutated() takes them."""
    kinds = {gid: type(g) for gid, g in level.gadgets.items()}
    levers = [gid for gid, k in kinds.items() if k is LeverPull]
    options = {
        swap_branch_exits: [(gid,) for gid, k in kinds.items() if k is Branch],
        drop_add: [(gid,) for gid in levers if isinstance(level.signals[level.gadgets[gid].signal], Add1)],
        retarget_door: [(sig, router, branch) for sig, eff in level.signals.items() if isinstance(eff, OpenDoor)
                        for router in kinds for branch in kinds],
        lever_to_station: [(gid, station) for gid in levers for station, k in kinds.items() if k is CounterStation],
    }
    usable = [f for f, targets in options.items() if targets]
    if not usable:
        return []
    mutation = st.sampled_from(usable).flatmap(lambda f: st.sampled_from(options[f]).map(lambda args: (f, *args)))
    return draw(st.lists(mutation, min_size=1, max_size=3, unique=True))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(p=programs(), data=st.data(), budget=st.sampled_from([0, 1, 2]) | st.integers(0, 40))
def test_miscompiled_level_lockstep_with_reference(p, data, budget):
    mutant = mutated(*data.draw(mutations(compile(p))))
    with mock.patch.object(gadget_compiler, "compile", mutant), mock.patch.object(reference_level, "compile", mutant):
        assert outcome(bisimulate, p, budget) == outcome(ref_bisimulate, p, budget)


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(p=loop_programs(), data=st.data(), budget=st.just(10 ** 4) | st.integers(0, 10 ** 4))
def test_miscompiled_level_long_run_lockstep_with_reference(p, data, budget):
    # level_run jumps loop iterations, also on a miscompiled level and from
    # a start with monstars in flight
    try:
        level = mutated(*data.draw(mutations(compile(p))))(p)
    except LevelFormatError:  # two mutations of one lever that no level can hold
        return
    ids = sorted(level.gadgets)
    counters = data.draw(st.lists(st.integers(0, 400), min_size=3, max_size=3))
    in_flight = data.draw(st.lists(st.sampled_from(ids + ["Q"]), max_size=4))
    start = LevelConfig(data.draw(st.sampled_from(ids)), tuple(counters), flight_pairs(in_flight),
                        data.draw(st.integers(0, 2)))
    for init in (None, start):
        for ticks in (budget, 3 * budget + 1):
            assert outcome(level_run, level, ticks, init) == outcome(ref_level_run, level, ticks, init)


# --- the bisim command's output, byte for byte, from the reference report

def bisim_json(report):
    return json.dumps({
        "command": "bisim", "verdict": "pass" if report.passed else "fail", "cm_halted": report.cm_halted,
        "level_solved": report.level_solved, "steps": report.steps, "ticks": report.ticks,
        "boundaries": [{"index": b.index, "pc": b.cm_pc, "counters": list(b.cm_counters), "tim_at": b.tim_at,
                        "occupancies": list(b.occupancies), "ok": b.ok} for b in report.boundaries],
    }, sort_keys=True, separators=(",", ":")) + "\n"


def bisim_text(report):
    out = (f"{'pass' if report.passed else 'fail'}: {len(report.boundaries)} boundaries, "
           f"halted={report.cm_halted} solved={report.level_solved}\n")
    for b in report.boundaries:
        out += (f"  [{b.index}] pc={b.cm_pc} counters={list(b.cm_counters)} tim={b.tim_at} "
                f"occ={list(b.occupancies)} {'ok' if b.ok else 'MISMATCH'}\n")
    return out


BISIM_CASES = {name: (None, src) for name, src in CORPUS.items()}
BISIM_CASES["swapped-branch-exits"] = MUTANTS["swapped-branch-exits"][:2]


@pytest.mark.parametrize("mutant,src", BISIM_CASES.values(), ids=BISIM_CASES.keys())
def test_bisim_output_matches_reference_report(tmp_path, capsys, monkeypatch, mutant, src):
    if mutant is not None:
        monkeypatch.setattr(gadget_compiler, "compile", mutant)
        monkeypatch.setattr(reference_level, "compile", mutant)
    path = tmp_path / "p.cm"
    path.write_text(src)
    report = ref_bisimulate(parse_counter_program(src), 300)
    assert main(["--format", "json", "--max-steps", "300", "bisim", str(path)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == json.loads(bisim_json(report))
    assert out == bisim_json(report)
    assert main(["--max-steps", "300", "bisim", str(path)]) == 0
    assert capsys.readouterr().out == bisim_text(report)


# --- level JSON: counters must be ints and ids strings; legacy keys are ignored

def _level_edit(edit):
    """The level JSON of a one-counter add, subb, halt program, edited in place by edit."""
    src = "counters 1\n0: add 0\n1: subb 0 0\n2: halt\n"
    obj = json.loads(level_to_json(compile(parse_counter_program(src))))
    edit(obj)
    return json.dumps(obj)


NON_INT_LEVELS = {
    "add1-counter-float": lambda o: o["signals"]["add0"].update(counter=0.0),
    "add1-counter-bool": lambda o: o["signals"]["add0"].update(counter=False),
    "remove1-counter-float": lambda o: o["signals"]["sub1"].update(counter=0.0),
    "remove1-counter-bool": lambda o: o["signals"]["sub1"].update(counter=False),
    "station-counter-float": lambda o: o["gadgets"]["C0"].update(counter=0.0),
    "station-counter-bool": lambda o: o["gadgets"]["C0"].update(counter=False),
    "init-fraction": lambda o: o.update(init_counters=[1.5]),
    "init-bool": lambda o: o.update(init_counters=[True]),
    "num-counters-bool": lambda o: o.update(num_counters=True),
    "num-counters-float": lambda o: o.update(num_counters=1.0),
}


def assert_rejected(tmp_path, capsys, text, match=None):
    with pytest.raises(LevelFormatError, match=match):
        level_from_json(text)
    path = tmp_path / "l.json"
    path.write_text(text)
    assert main(["level-sim", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("edit", NON_INT_LEVELS.values(), ids=NON_INT_LEVELS.keys())
def test_level_rejects_non_int_counters(tmp_path, capsys, edit):
    assert_rejected(tmp_path, capsys, _level_edit(edit))


def _doors(doors, signal="door1"):
    """Router R0's legacy doors, with the door signal renamed to signal."""
    def edit(o):
        o["signals"][signal] = o["signals"].pop("door1")
        o["gadgets"]["D1"]["signal"] = signal
        o["gadgets"]["R0"]["doors"] = doors
    return edit


def _monstar_edges(edges):
    def edit(o):
        o["monstar_edges"] = edges
    return edit


# A router's doors and the level's monstar_edges are legacy keys: the
# signals alone say where a monstar goes, so even these once-rejected values
# load and run as the unedited level does. So is instruction_entries, which
# no run reads.
LEGACY_EDITS = {
    "instruction-entries-junk": lambda o: o.update(instruction_entries=[["x"], 5, "nowhere"]),
    "doors-one-item": _doors([["door1"]]),
    "doors-three-items": _doors([["door1", "B1", "B1"]]),
    "doors-string": _doors(["sB"], signal="s"),
    "doors-missing-branch": _doors([["door1", "B9"]]),
    "monstar-edges-string": _monstar_edges(["sa"]),
    "monstar-edges-missing-gadget": _monstar_edges([["C0", "nowhere"]]),
    "monstar-edges-one-item": _monstar_edges([["x"]]),
    "monstar-edges-three-items": _monstar_edges([[1, 2, 3]]),
}


@pytest.mark.parametrize("edit", LEGACY_EDITS.values(), ids=LEGACY_EDITS.keys())
def test_level_ignores_legacy_monstar_flow_keys(tmp_path, capsys, edit):
    runs = []
    for text in (_level_edit(lambda o: None), _level_edit(edit)):
        path = tmp_path / "l.json"
        path.write_text(text)
        assert main(["level-sim", str(path)]) == 0
        runs.append((repr(level_run(level_from_json(text), 100)), capsys.readouterr()))
    assert runs[0] == runs[1]
    assert runs[0][1].out.startswith("solved")


# A gadget or signal id must be a string; the error names the field and the value.
NON_STRING_IDS = {
    "entry": (lambda o: o.update(entry=["x"]), "level entry ['x']"),
    "lever-signal": (lambda o: o["gadgets"]["L0"].update(signal=["x"]), "lever signal ['x']"),
    "tim-edge-from": (lambda o: o["tim_edges"][0].update({"from": ["x"]}), "tim edge from ['x']"),
    "tim-edge-exit": (lambda o: o["tim_edges"][0].update(exit={"x": 1}), "tim edge exit {'x': 1}"),
    "tim-edge-to": (lambda o: o["tim_edges"][0].update(to=["x"]), "tim edge to ['x']"),
    "door-router": (lambda o: o["signals"]["door1"].update(router=["x"]), "open-door router ['x']"),
    "door-branch": (lambda o: o["signals"]["door1"].update(branch=3), "open-door branch 3"),
}


@pytest.mark.parametrize("edit,field", NON_STRING_IDS.values(), ids=NON_STRING_IDS.keys())
def test_level_rejects_non_string_ids(tmp_path, capsys, edit, field):
    assert_rejected(tmp_path, capsys, _level_edit(edit), match=re.escape(f"{field} is not a string"))


# Level itself checks the ids it holds as values, so a Level built directly
# names the field too, even for an unhashable value.
DIRECT_NON_STRING_IDS = {
    "entry": (lambda lv: Level(gadgets={}, tim_edges={}, signals={}, entry=["x"], num_counters=0),
              "level entry ['x']"),
    "lever-signal": (lambda lv: dataclasses.replace(lv, gadgets={**lv.gadgets, "L0": LeverPull(["x"])}),
                     "lever signal ['x']"),
    "tim-edge-from": (lambda lv: dataclasses.replace(lv, tim_edges={**lv.tim_edges, (("x",), "out"): "L1"}),
                      "tim edge from ('x',)"),
    "tim-edge-to": (lambda lv: dataclasses.replace(lv, tim_edges={**lv.tim_edges, ("L0", "out"): ["x"]}),
                    "tim edge to ['x']"),
    "door-router": (lambda lv: dataclasses.replace(lv, signals={**lv.signals, "door1": OpenDoor(["x"], "B1")}),
                    "open-door router ['x']"),
    "door-branch": (lambda lv: dataclasses.replace(lv, signals={**lv.signals, "door1": OpenDoor("R0", {"x": 1})}),
                    "open-door branch {'x': 1}"),
}


@pytest.mark.parametrize("build,field", DIRECT_NON_STRING_IDS.values(), ids=DIRECT_NON_STRING_IDS.keys())
def test_level_built_directly_rejects_non_string_ids(build, field):
    level = compile(parse_counter_program("counters 1\n0: add 0\n1: subb 0 0\n2: halt\n"))
    with pytest.raises(LevelFormatError, match=f"^{re.escape(field)} is not a string$"):
        build(level)


# A tim edge leaves by an exit of its gadget's kind: a lever's "out", a
# branch's "monstar" or "empty"; a goal, a station or a router has none.
BAD_EXITS = {
    "goal-bogus": ("G2", "bogus", "L0"),
    "lever-monstar": ("L0", "monstar", "G2"),
    "station-out": ("C0", "out", "L0"),
    "router-empty": ("R0", "empty", "B1"),
}


@pytest.mark.parametrize("src,label,dst", BAD_EXITS.values(), ids=BAD_EXITS.keys())
def test_level_rejects_tim_edges_off_the_gadgets_exits(tmp_path, capsys, src, label, dst):
    text = f"tim edge {src!r} -> {dst!r} leaves by {label!r}, no exit of its gadget"
    message = f"^{re.escape(text)}$"
    edge = {"from": src, "exit": label, "to": dst}
    assert_rejected(tmp_path, capsys, _level_edit(lambda o: o["tim_edges"].append(edge)), match=message)
    level = compile(parse_counter_program("counters 1\n0: add 0\n1: subb 0 0\n2: halt\n"))
    with pytest.raises(LevelFormatError, match=message):
        dataclasses.replace(level, tim_edges={**level.tim_edges, (src, label): dst})


def test_level_built_directly_rejects_a_non_string_exit():
    # the loader rejects it as no string; a Level, as no exit
    level = compile(parse_counter_program("counters 1\n0: add 0\n1: subb 0 0\n2: halt\n"))
    with pytest.raises(LevelFormatError, match="^tim edge 'L0' -> 'G2' leaves by 5, no exit of its gadget$"):
        dataclasses.replace(level, tim_edges={**level.tim_edges, ("L0", 5): "G2"})


# Each check that a level's ids name what it declares.
MISSING_IDS = {
    "entry": (lambda o: o.update(entry="nowhere"), "entry gadget 'nowhere' missing"),
    "lever-signal": (lambda o: o["gadgets"]["L0"].update(signal="nope"), "lever signal 'nope' undeclared"),
    "tim-edge-to": (lambda o: o["tim_edges"][0].update(to="nowhere"),
                    "tim edge 'B1' -> 'nowhere' references a missing gadget"),
    "door-router": (lambda o: o["signals"]["door1"].update(router="R9"),
                    "signal 'door1' routes through a missing gadget"),
    "door-branch": (lambda o: o["signals"]["door1"].update(branch="B9"),
                    "signal 'door1' routes through a missing gadget"),
}


@pytest.mark.parametrize("edit,message", MISSING_IDS.values(), ids=MISSING_IDS.keys())
def test_level_rejects_missing_ids(tmp_path, capsys, edit, message):
    assert_rejected(tmp_path, capsys, _level_edit(edit), match=f"^{re.escape(message)}$")
