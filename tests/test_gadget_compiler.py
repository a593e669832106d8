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
    JumpRecord,
    LeverPull,
    Level,
    LevelConfig,
    LevelFormatError,
    LevelRunResult,
    OpenDoor,
    Remove1,
    SOLVED,
    TrapRouter,
    bisimulate,
    compile,
    initial_level_config,
    level_from_json,
    level_run,
    level_step,
    level_to_dot,
    level_to_json,
)
from reference_level import expand, ref_bisimulate, ref_cm_run, ref_cm_step, ref_level_run, ref_level_step
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


def test_dot_quotes_ids_that_hold_quotes():
    level = compile(CounterProgram(1, (Add(0), Halt())))
    gadgets = {('L"0' if gid == "L0" else gid): g for gid, g in level.gadgets.items()}
    level = level._replace(gadgets=gadgets, entry='L"0',
                           tim_edges={('L"0', "out"): level.tim_edges[("L0", "out")]})
    assert level_run(level, 10) == LevelRunResult("solved", 2)
    lines = level_to_dot(level).splitlines()
    assert '  "L\\"0" [shape=box, label="L\\"0\\nadd0"];' in lines
    quoted = re.compile(r'"((?:[^"\\]|\\.)*)"')
    nodes = []
    for line in lines[2:-1]:
        assert '"' not in quoted.sub("", line), line  # every quote opens or closes a string
        ids = [m.replace('\\"', '"') for m in quoted.findall(line)]
        if " -> " in line:
            assert set(ids[:2]) <= set(gadgets), line
        else:
            nodes.append(ids[0])
    assert nodes == sorted(gadgets)


def test_level_replace_checks_the_edges():
    level = compile(CounterProgram(1, (Add(0), Halt())))
    with pytest.raises(LevelFormatError, match="^tim edge 'L0' -> 'nowhere' references a missing gadget$"):
        level._replace(tim_edges={("L0", "out"): "nowhere"})


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


def assert_same(got, want):
    """Assert got == want, two outcome strings. A mismatch shows the first
    difference only: pytest's own diff of two long one-line reprs is
    quadratic in their length and can run for hours."""
    if got != want:
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        raise AssertionError(f"outcomes differ at character {i} of {len(got)} and {len(want)}:\n"
                             f"  got  ...{got[max(0, i - 200):i + 200]}\n  want ...{want[max(0, i - 200):i + 200]}")


def expanded_bisimulate(program, max_steps):
    """bisimulate's report with its jumps written out as boundaries."""
    return expand(bisimulate(program, max_steps))


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
    assert_same(outcome(expanded_bisimulate, p, budget), outcome(ref_bisimulate, p, budget))
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
# An outer loop whose every pass moves counter 0 to counter 1 and back, then
# adds 1 to counter 0. Each pass takes 6 more steps than the last, and the
# inner loops' jumps take counter 0 to zero: the outer loop must not jump,
# so a jump counts the decrements of the iterations it skips.
NESTED = parse_counter_program("counters 3\ninit 300 0 0\n0: subb 2 1\n1: subb 0 4\n2: add 1\n3: subb 2 1\n"
                               "4: subb 1 7\n5: add 0\n6: subb 2 4\n7: add 0\n8: subb 2 0\n")


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(p=loop_programs(), budget=st.just(10 ** 4) | st.integers(0, 10 ** 4))
@example(p=TRANSFER_DRAIN, budget=10 ** 4)
@example(p=TRANSFER_DRAIN, budget=2000)
@example(p=NESTED, budget=10 ** 4)
@example(p=NESTED, budget=5000)
def test_long_run_lockstep_with_reference(p, budget):
    assert_same(outcome(expanded_bisimulate, p, budget), outcome(ref_bisimulate, p, budget))
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
    p = TRANSFER_DRAIN._replace(init_counters=(a, b, 0))
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


def test_bisimulate_transfer_drain_jumps_at_scale():
    # TRANSFER_DRAIN from 10^9 and 10^9 - 3 under a 10^12 budget: the
    # closed forms of test_transfer_drain_runs_exactly_at_scale, from a
    # report of 21 records, a jump and the iterations next to it in each loop
    start = time.perf_counter()
    a, b = 10 ** 9, 10 ** 9 - 3
    report = bisimulate(TRANSFER_DRAIN._replace(init_counters=(a, b, 0)), 10 ** 12)
    assert time.perf_counter() - start < 1
    assert (report.passed, report.cm_halted, report.level_solved) == (True, True, True)
    assert (report.steps, report.ticks) == (5 * a + 2 * b + 3, 13 * a + 6 * b + 7)
    jumps = [r for r in report.boundaries if isinstance(r, JumpRecord)]
    assert [(j.steps, j.ticks, j.d) for j in jumps] == [(3, 7, (-1, 1, 0)), (2, 6, (0, -1, 0))]
    assert len(report.boundaries) == 21
    assert len(report.boundaries) - len(jumps) + sum(j.k * j.steps for j in jumps) == report.steps + 1


def test_bisimulate_jumps_a_one_instruction_loop():
    # a subb on a zero counter that branches to itself is a back edge to
    # its own pc: the start, three arrivals and the jump
    report = bisimulate(parse_counter_program("counters 1\n0: subb 0 0\n"), 10 ** 4)
    assert (report.passed, report.cm_halted, report.steps, report.ticks) == (True, False, 10 ** 4, 3 * 10 ** 4)
    assert len(report.boundaries) == 5
    assert report.boundaries[-1] == JumpRecord(3, 10 ** 4 - 3, 1, 3, (0,))


def add_loop(adds, init):
    """Move counter 0 into counter 1 `adds` units at a time: an iteration of
    adds + 2 steps with one decrement of counter 0."""
    return CounterProgram(3, (SubBranch(0, adds + 2), *[Add(1)] * adds, SubBranch(2, 0), Halt()), (init, 0, 0))


@pytest.mark.parametrize("adds", [1, 10, 50, 200])
def test_loop_exits_cost_a_few_iterations_whatever_the_body(adds):
    # a value dips within an iteration by at most its decrements there, not
    # by the iteration's length, so the jumps leave only the iterations
    # next to the loop's entry and exit to be stepped: the report holds the
    # start, the three iterations up to the third arrival, the jump, whose
    # last iteration starts at 1 and takes counter 0 to zero, and the exit
    # test and the halt
    p = add_loop(adds, 10 ** 6)
    report = bisimulate(p, 10 ** 12)
    assert (report.passed, report.cm_halted, report.level_solved) == (True, True, True)
    assert (report.steps, report.ticks) == ((adds + 2) * 10 ** 6 + 2, (adds + 6) * 10 ** 6 + 4)
    assert len(report.boundaries) == 1 + 3 * (adds + 2) + 1 + 2
    p = add_loop(adds, 300)
    c = initial_config(p)
    assert outcome(cm_run, p, c, 10 ** 6) == outcome(ref_cm_run, p, c, 10 ** 6)
    level = compile(p)
    assert outcome(level_run, level, 10 ** 6) == outcome(ref_level_run, level, 10 ** 6)
    assert_same(outcome(expanded_bisimulate, p, 10 ** 6), outcome(ref_bisimulate, p, 10 ** 6))


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


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(level=json_levels().map(lambda case: case[0]) | programs().map(compile))
def test_level_json_is_one_line_that_round_trips(level):
    text = level_to_json(level)
    assert "\n" not in text
    assert level_from_json(text) == level
    assert level_to_json(level_from_json(text)) == text
    # an indented copy, as earlier versions wrote, loads to the same level
    assert level_to_json(level_from_json(json.dumps(json.loads(text), indent=2))) == text


# --- bisimulate must fail on a miscompiled level

def swap_branch_exits(level, branch):
    edges = dict(level.tim_edges)
    edges[(branch, "monstar")], edges[(branch, "empty")] = edges[(branch, "empty")], edges[(branch, "monstar")]
    return level._replace(tim_edges=edges)


def drop_add(level, lever):
    """The add lever becomes a pass-through branch that nothing feeds."""
    assert isinstance(level.signals[level.gadgets[lever].signal], Add1)
    out = level.tim_edges[(lever, "out")]
    edges = {k: v for k, v in level.tim_edges.items() if k != (lever, "out")}
    edges[(lever, "monstar")] = edges[(lever, "empty")] = out
    return level._replace(gadgets={**level.gadgets, lever: Branch()}, tim_edges=edges)


def retarget_door(level, signal, router, branch):
    return level._replace(signals={**level.signals, signal: OpenDoor(router, branch)})


def lever_to_station(level, lever, station):
    """The player walks onto a counter station: the level table's stuck row."""
    return level._replace(tim_edges={**level.tim_edges, (lever, "out"): station})


def dip_before_add(level, lever, counter):
    """Before its own add, the add lever's gadget takes two units off
    counter and puts them back, in five ticks in all: inside every
    iteration the level's counter dips by two more than the machine's, and
    no boundary sees it until the dip reaches zero."""
    ids = [lever] + [f"{lever}.{n}" for n in range(1, 5)]
    effects = [Remove1(counter)] * 2 + [Add1(counter)] * 2 + [level.signals[level.gadgets[lever].signal]]
    return level._replace(
        gadgets={**level.gadgets, **{gid: LeverPull(f"{gid}!") for gid in ids}},
        signals={**level.signals, **{f"{gid}!": eff for gid, eff in zip(ids, effects)}},
        tim_edges={**level.tim_edges, **{(gid, "out"): nxt for gid, nxt in zip(ids, ids[1:])},
                   (ids[-1], "out"): level.tim_edges[(lever, "out")]})


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


# TRANSFER's add lever dips counter 0 by two: the iteration that starts at
# 2 fails, one that a jump bounded by the machine's decrements alone skips.
TRANSFER = "counters 3\ninit {}\n0: subb 0 3\n1: add 1\n2: subb 2 0\n3: halt\n"


@pytest.mark.parametrize("a", [3, 30, 400])
def test_bisimulate_bounds_a_dip_by_the_levels_own_decrements(monkeypatch, a):
    p = parse_counter_program(TRANSFER.format(f"{a} 0 0"))
    assert bisimulate(p, 10 ** 4).passed
    mutant = mutated((dip_before_add, "L1", 0))
    monkeypatch.setattr(gadget_compiler, "compile", mutant)
    monkeypatch.setattr(reference_level, "compile", mutant)
    report = bisimulate(p, 10 ** 4)
    assert report.passed is False
    assert [b.index for b in expand(report).boundaries if not b.ok][0] == 3 * (a - 2) + 2
    assert_same(repr(expand(report)), repr(ref_bisimulate(p, 10 ** 4)))


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
        assert_same(outcome(expanded_bisimulate, p, budget), outcome(ref_bisimulate, p, budget))


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(p=loop_programs(), data=st.data(), budget=st.just(10 ** 4) | st.integers(0, 10 ** 4))
def test_miscompiled_level_long_run_lockstep_with_reference(p, data, budget):
    # level_run and bisimulate jump loop iterations, also on a miscompiled
    # level and from a start with monstars in flight
    mutant = mutated(*data.draw(mutations(compile(p))))
    try:
        level = mutant(p)
    except LevelFormatError:  # two mutations of one lever that no level can hold
        return
    with mock.patch.object(gadget_compiler, "compile", mutant), mock.patch.object(reference_level, "compile", mutant):
        assert_same(outcome(expanded_bisimulate, p, budget), outcome(ref_bisimulate, p, budget))
    ids = sorted(level.gadgets)
    counters = data.draw(st.lists(st.integers(0, 400), min_size=3, max_size=3))
    in_flight = data.draw(st.lists(st.sampled_from(ids + ["Q"]), max_size=4))
    start = LevelConfig(data.draw(st.sampled_from(ids)), tuple(counters), flight_pairs(in_flight),
                        data.draw(st.integers(0, 2)))
    for init in (None, start):
        for ticks in (budget, 3 * budget + 1):
            assert outcome(level_run, level, ticks, init) == outcome(ref_level_run, level, ticks, init)


# The first loop moves counter 0 into counter 1; the second drains counter 1.
TRANSFER_THEN_DRAIN = "counters 3\n0: subb 0 3\n1: add 1\n2: subb 2 0\n3: subb 1 5\n4: subb 2 3\n5: halt\n"


def count_in_flight(level):
    """TRANSFER_THEN_DRAIN's level, wired to keep a copy of counter 1 in
    monstars at R1: each pass of the first loop removes and re-adds a unit
    of counter 1, leaving its monstar at R1, and each pass of the second
    loop sends one more monstar from R1 to a dead end before the door, so
    the branch is fed from that pile, which runs out exactly when the
    counter does. Every boundary passes, and only the monstars in flight
    carry the pile from one loop to the other."""
    gadgets = {**level.gadgets, "X": LeverPull("pile"), "Y": LeverPull("unpile"), "Z": LeverPull("spill"),
               "RX": TrapRouter()}
    signals = {**level.signals, "pile": Remove1(1), "unpile": Add1(1), "spill": OpenDoor("R1", "RX")}
    edges = {**level.tim_edges, ("L1", "out"): "X", ("X", "out"): "Y", ("Y", "out"): "L2",
             ("L3", "out"): "Z", ("Z", "out"): "D3"}
    return level._replace(gadgets=gadgets, signals=signals, tim_edges=edges)


@pytest.mark.parametrize("a", [3, 60, 400])
def test_bisimulate_jumps_the_monstars_in_flight(monkeypatch, a):
    p = parse_counter_program(TRANSFER_THEN_DRAIN.replace("counters 3", f"counters 3\ninit {a} 0 0"))
    mutant = mutated((count_in_flight,))
    monkeypatch.setattr(gadget_compiler, "compile", mutant)
    monkeypatch.setattr(reference_level, "compile", mutant)
    report = bisimulate(p, 10 ** 4)
    assert report.passed and report.cm_halted
    assert_same(repr(expand(report)), repr(ref_bisimulate(p, 10 ** 4)))
    assert len([r for r in report.boundaries if isinstance(r, JumpRecord)]) == (2 if a > 20 else 0)


def spill_twice(level):
    """count_in_flight's level with a second spill before the door: each
    pass of the second loop adds one monstar to the pile at R1 and then
    draws it down by three, so the pile runs out halfway through the drain
    and the branch sends the player out of the loop early."""
    level = count_in_flight(level)
    return level._replace(gadgets={**level.gadgets, "Z2": LeverPull("spill")},
                          tim_edges={**level.tim_edges, ("Z", "out"): "Z2", ("Z2", "out"): "D3"})


@pytest.mark.parametrize("a", [61, 401])
def test_bisimulate_bounds_a_pile_by_its_doors(monkeypatch, a):
    # the pile dips by three doors in a pass and moves by two, so a jump
    # that missed the doors would skip the pass from a pile of 1, which fails
    p = parse_counter_program(TRANSFER_THEN_DRAIN.replace("counters 3", f"counters 3\ninit {a} 0 0"))
    mutant = mutated((spill_twice,))
    monkeypatch.setattr(gadget_compiler, "compile", mutant)
    monkeypatch.setattr(reference_level, "compile", mutant)
    report = bisimulate(p, 10 ** 4)
    assert report.passed is False
    assert_same(repr(expand(report)), repr(ref_bisimulate(p, 10 ** 4)))


# Each pass feeds the branches K1 and K2 a monstar each from the pile at R0,
# and then counter 0 puts one back: the pile dips by two and moves by one,
# and the pass from a pile of 1 leaves by K2's empty exit.
PILE = Level(gadgets={"H": LeverPull("feed1"), "K1": Branch(), "A": LeverPull("feed2"), "K2": Branch(),
                      "B": LeverPull("pile"), "G1": Goal(), "G2": Goal(), "R0": TrapRouter()},
             tim_edges={("H", "out"): "K1", ("K1", "monstar"): "A", ("K1", "empty"): "G1", ("A", "out"): "K2",
                        ("K2", "monstar"): "B", ("K2", "empty"): "G2", ("B", "out"): "H"},
             signals={"feed1": OpenDoor("R0", "K1"), "feed2": OpenDoor("R0", "K2"), "pile": Remove1(0)},
             entry="H", num_counters=1)


@pytest.mark.parametrize("pile", [2, 3, 61, 400])
def test_level_run_bounds_a_pile_by_its_doors(pile):
    start = LevelConfig("H", (10 ** 6,), (("R0", pile),), 0)
    for ticks in (5 * pile - 7, 5 * pile, 10 ** 4):
        assert outcome(level_run, PILE, ticks, start) == outcome(ref_level_run, PILE, ticks, start)
    assert level_run(PILE, 10 ** 4, start).kind == "solved"


# Each pass of the outer loop (head H) feeds three monstars to Z and two to
# K from the pile at R0; the inner loop then kills one at K and one at Z
# until Z is empty, and one more at K on the way out. So K's pile dips by 4
# kills in a pass and moves by -2, and the pass from a pile of 1 runs out of
# K and leaves by its empty exit.
KILLS = Level(gadgets={**{gid: LeverPull(sig) for gid, sig in [("H", "z"), ("E1", "z"), ("E2", "z"), ("E3", "k"),
                                                               ("E4", "k")]},
                       "K": Branch(), "Z": Branch(), "G": Goal(), "R0": TrapRouter()},
              tim_edges={("H", "out"): "E1", ("E1", "out"): "E2", ("E2", "out"): "E3", ("E3", "out"): "E4",
                         ("E4", "out"): "K", ("K", "monstar"): "Z", ("K", "empty"): "G", ("Z", "monstar"): "K",
                         ("Z", "empty"): "H"},
              signals={"z": OpenDoor("R0", "Z"), "k": OpenDoor("R0", "K")}, entry="H", num_counters=1)


@pytest.mark.parametrize("pile", [2, 3, 41, 400])
def test_level_run_bounds_a_pile_by_its_kills(pile):
    start = LevelConfig("H", (0,), (("K", pile), ("R0", 10 ** 6)), 0)
    for ticks in (13 * pile // 2 - 5, 10 ** 4):
        assert outcome(level_run, KILLS, ticks, start) == outcome(ref_level_run, KILLS, ticks, start)
    assert level_run(KILLS, 10 ** 4, start).kind == "solved"


# A remove on an empty station and a door on an empty router: each moves
# one monstar if there is one, so the loop through them changes no count.
EMPTY_MOVES = json.dumps({
    "entry": "L0", "num_counters": 2,
    "gadgets": {"L0": {"kind": "lever", "signal": "take"}, "L1": {"kind": "lever", "signal": "door"},
                "B0": {"kind": "branch"}, "R0": {"kind": "router"}, "C0": {"kind": "counter", "counter": 0},
                "G": {"kind": "goal"}},
    "tim_edges": [{"from": "L0", "exit": "out", "to": "L1"}, {"from": "L1", "exit": "out", "to": "B0"},
                  {"from": "B0", "exit": "monstar", "to": "G"}, {"from": "B0", "exit": "empty", "to": "L0"}],
    "signals": {"take": {"effect": "remove1", "counter": 0},
                "door": {"effect": "open-door", "router": "R0", "branch": "B0"}}})


def test_moves_from_an_empty_station_and_router_change_no_count():
    level = level_from_json(EMPTY_MOVES)
    start = LevelConfig("L0", (0, 4), (("Q", 3),), 0)
    c = start
    for tick in range(1, 10):
        nxt = level_step(level, c)
        assert nxt == ref_level_step(level, c)
        assert (nxt.counters, nxt.in_flight, nxt.ticks) == (start.counters, start.in_flight, tick)
        c = nxt
    for ticks in (0, 1, 2, 3, 10 ** 4):
        res = level_run(level, ticks, start)
        assert res == ref_level_run(level, ticks, start)
        assert (res.kind, res.config.counters, res.config.in_flight) == ("budget", start.counters, start.in_flight)


# --- the bisim command's output, byte for byte, from the reference report

def bisim_json(report):
    def record(b):
        if isinstance(b, JumpRecord):
            return {"index": b.index, "k": b.k, "steps": b.steps, "ticks": b.ticks, "d": list(b.d)}
        return {"index": b.index, "pc": b.cm_pc, "counters": list(b.cm_counters), "tim_at": b.tim_at,
                "occupancies": list(b.occupancies), "ok": b.ok}
    return json.dumps({
        "command": "bisim", "verdict": "pass" if report.passed else "fail", "cm_halted": report.cm_halted,
        "level_solved": report.level_solved, "steps": report.steps, "ticks": report.ticks,
        "boundaries": [record(b) for b in report.boundaries],
    }, sort_keys=True, separators=(",", ":")) + "\n"


def bisim_text(report):
    out = (f"{'pass' if report.passed else 'fail'}: {len(expand(report).boundaries)} boundaries, "
           f"halted={report.cm_halted} solved={report.level_solved}\n")
    for b in report.boundaries:
        if isinstance(b, JumpRecord):
            out += f"  jump x{b.k} after [{b.index}]: {b.steps} steps, {b.ticks} ticks, d={list(b.d)}\n"
        else:
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
    program = parse_counter_program(src)
    report = bisimulate(program, 300)
    assert_same(repr(expand(report)), repr(ref_bisimulate(program, 300)))
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


# Every counter index and count must be a JSON integer; each case with its message.
NON_INT_LEVELS = {
    "add1-counter-float": (lambda o: o["signals"]["add0"].update(counter=0.0),
                           "signal 'add0' names counter 0.0, not an integer"),
    "add1-counter-bool": (lambda o: o["signals"]["add0"].update(counter=False),
                          "signal 'add0' names counter False, not an integer"),
    "remove1-counter-float": (lambda o: o["signals"]["sub1"].update(counter=0.0),
                              "signal 'sub1' names counter 0.0, not an integer"),
    "remove1-counter-bool": (lambda o: o["signals"]["sub1"].update(counter=False),
                             "signal 'sub1' names counter False, not an integer"),
    "station-counter-float": (lambda o: o["gadgets"]["C0"].update(counter=0.0),
                              "counter station 'C0' names counter 0.0, not an integer"),
    "station-counter-bool": (lambda o: o["gadgets"]["C0"].update(counter=False),
                             "counter station 'C0' names counter False, not an integer"),
    "init-fraction": (lambda o: o.update(init_counters=[1.5]),
                      "init_counters must list one non-negative integer per counter"),
    "init-bool": (lambda o: o.update(init_counters=[True]),
                  "init_counters must list one non-negative integer per counter"),
    "num-counters-bool": (lambda o: o.update(num_counters=True), "num_counters True is not an integer"),
    "num-counters-float": (lambda o: o.update(num_counters=1.0), "num_counters 1.0 is not an integer"),
}


def assert_rejected(tmp_path, capsys, text, match):
    with pytest.raises(LevelFormatError, match=match):
        level_from_json(text)
    path = tmp_path / "l.json"
    path.write_text(text)
    assert main(["level-sim", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("edit,message", NON_INT_LEVELS.values(), ids=NON_INT_LEVELS.keys())
def test_level_rejects_non_int_counters(tmp_path, capsys, edit, message):
    assert_rejected(tmp_path, capsys, _level_edit(edit), match=f"^{re.escape(message)}$")


# A counter index on a station, an add1 or a remove1: where it sits in the
# JSON, and how to swap it into a Level built in Python.
COUNTER_HOLDERS = {
    "station": (lambda o: o["gadgets"]["C0"],
                lambda lv, c: lv._replace(gadgets={**lv.gadgets, "C0": CounterStation(c)})),
    "add1": (lambda o: o["signals"]["add0"],
             lambda lv, c: lv._replace(signals={**lv.signals, "add0": Add1(c)})),
    "remove1": (lambda o: o["signals"]["sub1"],
                lambda lv, c: lv._replace(signals={**lv.signals, "sub1": Remove1(c)})),
}
BAD_COUNTERS = {
    "station-string": ("station", "0", "counter station 'C0' names counter '0', not an integer"),
    "station-past-end": ("station", 1, "counter station 'C0' names counter 1 out of range"),
    "station-negative": ("station", -1, "counter station 'C0' names counter -1 out of range"),
    "add1-list": ("add1", [0], "signal 'add0' names counter [0], not an integer"),
    "add1-past-end": ("add1", 1, "signal 'add0' names counter 1 out of range"),
    "add1-negative": ("add1", -1, "signal 'add0' names counter -1 out of range"),
    "remove1-null": ("remove1", None, "signal 'sub1' names counter None, not an integer"),
    "remove1-past-end": ("remove1", 1, "signal 'sub1' names counter 1 out of range"),
    "remove1-negative": ("remove1", -1, "signal 'sub1' names counter -1 out of range"),
}


@pytest.mark.parametrize("holder,counter,message", BAD_COUNTERS.values(), ids=BAD_COUNTERS.keys())
def test_level_counter_messages_are_pinned(tmp_path, capsys, holder, counter, message):
    in_json, in_python = COUNTER_HOLDERS[holder]
    match = f"^{re.escape(message)}$"
    assert_rejected(tmp_path, capsys, _level_edit(lambda o: in_json(o).update(counter=counter)), match=match)
    level = compile(parse_counter_program("counters 1\n0: add 0\n1: subb 0 0\n2: halt\n"))
    with pytest.raises(LevelFormatError, match=match):
        in_python(level, counter)


# A level field of the wrong shape: the message names the field.
BAD_FIELDS = {
    "num-counters-negative": (lambda o: o.update(num_counters=-1), "num_counters -1 is negative"),
    "tim-edges-empty-object": (lambda o: o.update(tim_edges={}), "tim_edges must be a list of edges"),
    "tim-edges-object": (lambda o: o.update(tim_edges={e["from"]: e for e in o["tim_edges"]}),
                         "tim_edges must be a list of edges"),
}


@pytest.mark.parametrize("edit,message", BAD_FIELDS.values(), ids=BAD_FIELDS.keys())
def test_level_field_messages_are_pinned(tmp_path, capsys, edit, message):
    assert_rejected(tmp_path, capsys, _level_edit(edit), match=f"^{re.escape(message)}$")


def test_level_built_directly_rejects_negative_num_counters():
    with pytest.raises(LevelFormatError, match="^num_counters -1 is negative$"):
        Level(gadgets={"G": Goal()}, tim_edges={}, signals={}, entry="G", num_counters=-1, init_counters=())


# A tagged object whose tag names no kind, or that lacks a field of its kind.
BAD_TAGS = {
    "junction": (lambda o: o["gadgets"].update(J={"kind": "junction"}), "unknown gadget kind 'junction'"),
    "no-kind": (lambda o: o["gadgets"].update(J={"signal": "add0"}), "unknown gadget kind None"),
    "list-kind": (lambda o: o["gadgets"].update(J={"kind": ["lever"]}), "unknown gadget kind ['lever']"),
    "teleport": (lambda o: o["signals"].update(t={"effect": "teleport"}), "unknown signal effect 'teleport'"),
    "object-effect": (lambda o: o["signals"].update(t={"effect": {}}), "unknown signal effect {}"),
    "lever-without-signal": (lambda o: o["gadgets"]["L0"].pop("signal"), "missing field 'signal'"),
    "station-without-counter": (lambda o: o["gadgets"]["C0"].pop("counter"), "missing field 'counter'"),
    "door-without-branch": (lambda o: o["signals"]["door1"].pop("branch"), "missing field 'branch'"),
    "gadget-list": (lambda o: o["gadgets"].update(J=["lever"]),
                    "malformed level: 'list' object has no attribute 'get'"),
}


@pytest.mark.parametrize("edit,message", BAD_TAGS.values(), ids=BAD_TAGS.keys())
def test_level_rejects_bad_tags(tmp_path, capsys, edit, message):
    assert_rejected(tmp_path, capsys, _level_edit(edit), match=f"^{re.escape(message)}$")


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
    assert_rejected(tmp_path, capsys, _level_edit(edit), match=f"^{re.escape(field)} is not a string$")


# Level itself checks the ids it holds as values, so a Level built directly
# names the field too, even for an unhashable value.
DIRECT_NON_STRING_IDS = {
    "entry": (lambda lv: Level(gadgets={}, tim_edges={}, signals={}, entry=["x"], num_counters=0),
              "level entry ['x']"),
    "lever-signal": (lambda lv: lv._replace(gadgets={**lv.gadgets, "L0": LeverPull(["x"])}),
                     "lever signal ['x']"),
    "tim-edge-from": (lambda lv: lv._replace(tim_edges={**lv.tim_edges, (("x",), "out"): "L1"}),
                      "tim edge from ('x',)"),
    "tim-edge-to": (lambda lv: lv._replace(tim_edges={**lv.tim_edges, ("L0", "out"): ["x"]}),
                    "tim edge to ['x']"),
    "door-router": (lambda lv: lv._replace(signals={**lv.signals, "door1": OpenDoor(["x"], "B1")}),
                    "open-door router ['x']"),
    "door-branch": (lambda lv: lv._replace(signals={**lv.signals, "door1": OpenDoor("R0", {"x": 1})}),
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
        level._replace(tim_edges={**level.tim_edges, (src, label): dst})


def test_level_built_directly_rejects_a_non_string_exit():
    # the loader rejects it as no string; a Level, as no exit
    level = compile(parse_counter_program("counters 1\n0: add 0\n1: subb 0 0\n2: halt\n"))
    with pytest.raises(LevelFormatError, match="^tim edge 'L0' -> 'G2' leaves by 5, no exit of its gadget$"):
        level._replace(tim_edges={**level.tim_edges, ("L0", 5): "G2"})


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
