import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from braidbench.braidlike_tm import (
    BLANK,
    MachineSpec,
    MOVE_LEFT,
    MOVE_RIGHT,
    Write,
    parse_btm,
    successors,
)
from braidbench.counter_machine import Add, CounterConfig, CounterProgram, cm_run, initial_config, parse_counter_program
from braidbench.gadget_compiler import LevelConfig, bisimulate, compile, level_run
from braidbench.oracle_sim import (
    END,
    WALL,
    Certificate,
    SearchBudgetExceeded,
    check_certificate,
    closed_ngram_proof,
    det_behavior_oracle,
    reach_bfs,
    read_only_oracle,
)
from braidbench.rewind_timeline import GameSpec, game_search
from braidbench.tour_guide import compute_guide, decide_det_braidlike, decide_reachability
from reference_bfs import tuple_first_repeat, tuple_halts, tuple_reach_bfs, tuple_run
from test_cli import RIGHT_WRITER, run_limited


def spec_of(transitions, n, s, accept=(), target=None, det=False, start=0):
    return MachineSpec(n, s, start, frozenset(accept), transitions,
                       target_state=target, deterministic=det)


# --- reach_bfs -------------------------------------------------------------

def test_reach_start_is_target():
    spec = spec_of({}, 1, 1, target=0)
    res = reach_bfs(spec, 4)
    assert res.kind == "reached"
    assert len(res.witness) == 1
    # the start is settled before the spec is lowered, but a budget of 0
    # explores nothing, not even the start
    with pytest.raises(SearchBudgetExceeded):
        reach_bfs(spec, 4, max_explored=0)


def test_reach_unreachable_target_any_cap():
    spec = spec_of({(0, 0): ((MOVE_RIGHT, 0),)}, 2, 1, target=1)
    for cap in (1, 4, 64):
        assert reach_bfs(spec, cap).kind == "not-reached"


def test_reach_two_step_witness():
    spec = spec_of(
        {(0, 0): ((Write(1), 1),), (1, 1): ((MOVE_RIGHT, 2),)},
        3, 2, target=2)
    res = reach_bfs(spec, 4)
    assert res.kind == "reached"
    assert len(res.witness) == 3
    assert res.witness[-1].state == 2


def test_reach_requires_target():
    with pytest.raises(ValueError):
        reach_bfs(spec_of({}, 1, 1), 4)


def test_reach_witness_replays():
    # the draws with up to 3 symbols at cap 32 give witnesses that write a
    # blank and write past a blank gap; a search over budget is skipped
    rng = random.Random(17)
    writes = set()
    for max_symbols, cap in [(2, 16)] * 100 + [(3, 32)] * 200:
        n, s = rng.randint(1, 3), rng.randint(1, max_symbols)
        trans = {}
        for q in range(n):
            for a in range(s):
                succs = tuple(dict.fromkeys(
                    (rng.choice([MOVE_LEFT, MOVE_RIGHT, Write(rng.randrange(s))]),
                     rng.randrange(n))
                    for _ in range(rng.randint(0, 2))))
                if succs:
                    trans[(q, a)] = succs
        spec = spec_of(trans, n, s, target=rng.randrange(n))
        try:
            res = reach_bfs(spec, cap, max_explored=10 ** 4)
        except SearchBudgetExceeded:
            continue
        if res.kind != "reached":
            continue
        assert res.witness[-1].state == spec.target_state
        for cur, nxt in zip(res.witness, res.witness[1:]):
            assert any(x == nxt for x in successors(spec, cur))
            if nxt.head == cur.head:
                writes.add("blank" if len(nxt.tape) <= cur.head else "gap" if cur.head > len(cur.tape) else "cell")
    assert writes == {"blank", "gap", "cell"}


def test_reach_monotone_in_cap():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 3)
        trans = {}
        for q in range(n):
            succs = tuple(dict.fromkeys(
                (rng.choice([MOVE_LEFT, MOVE_RIGHT, Write(0), Write(1)]),
                 rng.randrange(n))
                for _ in range(rng.randint(0, 2))))
            if succs:
                trans[(q, 0)] = succs
        spec = spec_of(trans, n, 2, target=rng.randrange(n))
        small = reach_bfs(spec, 3)
        big = reach_bfs(spec, 12)
        if small.kind == "reached":
            assert big.kind == "reached"


def test_reach_cap_hit_reporting():
    drifter = spec_of({(0, 0): ((MOVE_RIGHT, 0),)}, 2, 1, target=1)
    res = reach_bfs(drifter, 3)
    assert res.kind == "not-reached" and res.cap_hit
    dead = spec_of({}, 2, 1, target=1)
    res = reach_bfs(dead, 3)
    assert res.kind == "not-reached" and not res.cap_hit


BLANK_WRITER = "states 3\nsymbols 1\nstart 0\naccept\ntarget 2\ntrans 0 0 write 0 1\ntrans 1 0 right 0\n"


# the benchmark's ladder machines: a step table that loses or adds a
# configuration moves these counts
@pytest.mark.parametrize("text,cap,explored", [(RIGHT_WRITER, 2048, 4097), (BLANK_WRITER, 1024, 2050)])
def test_reach_explored_counts_pinned(text, cap, explored):
    res = reach_bfs(parse_btm(text), cap, max_explored=10 ** 5)
    assert (res.kind, res.explored, res.cap_hit, res.witness) == ("not-reached", explored, True, None)


def test_reach_memory_per_configuration_is_flat():
    # The right-writer explores 2 * cap + 1 configurations. A tape tuple per
    # configuration cost 8 340 bytes each at this cap and grew with it.
    spec = spec_of({(0, 0): ((Write(1), 0),), (0, 1): ((MOVE_RIGHT, 0),)}, 2, 2, target=1)
    tracemalloc.start()
    try:
        res = reach_bfs(spec, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.explored == 8193
    assert peak / res.explored < 1000, peak / res.explored


# Never writes symbol 2, so its target 1 is unreachable; a 1-gram proof
# settles it, but the BFS explores about 4 times more configurations per two
# cells of cap: 37 811 at cap 12 and over 10**6 at cap 32.
NEVER_WRITES_TWO = (
    "states 3\nsymbols 3\nstart 0\naccept\ntarget 1\n"
    "trans 0 0 write 1 0\ntrans 0 0 left 2\ntrans 0 1 right 0\ntrans 0 1 left 0\ntrans 0 2 left 0\n"
    "trans 0 2 right 1\ntrans 1 1 right 2\ntrans 1 2 left 2\ntrans 1 2 left 1\ntrans 2 0 right 0\n"
    "trans 2 0 right 2\ntrans 2 1 write 0 2\ntrans 2 1 right 0\ntrans 2 2 left 0\ntrans 2 2 right 1\n"
)


def test_reach_default_budget_bounds_the_search():
    spec = parse_btm(NEVER_WRITES_TWO)
    res = reach_bfs(spec, 12)
    assert (res.kind, res.explored, res.cap_hit) == ("not-reached", 37811, True)
    # without a default budget this search exhausted memory, so it runs in
    # a subprocess with its address space capped
    code = ("from braidbench import parse_btm\n"
            "from braidbench.oracle_sim import SearchBudgetExceeded, reach_bfs\n"
            "try:\n"
            f"    reach_bfs(parse_btm({NEVER_WRITES_TWO!r}), 32)\n"
            "except SearchBudgetExceeded as e:\n"
            "    print(e)\n")
    out = run_limited("-c", code)
    assert (out.returncode, out.stdout) == (0, "reach_bfs exceeded 100000 configurations\n"), out.stderr


# --- det_behavior_oracle ---------------------------------------------------

def test_oracle_write_blank_loops():
    # writing blank at cell 0 leaves the canonical configuration unchanged
    spec = spec_of({(0, 0): ((Write(0), 0),)}, 1, 1, det=True)
    assert det_behavior_oracle(spec, 100, 10).kind == "loop"


def test_oracle_accepting_start():
    spec = spec_of({}, 1, 1, accept=[0], det=True)
    assert det_behavior_oracle(spec, 100, 10).kind == "accept"


def test_oracle_drifter_unresolved():
    # a walker that moves right through states 0..19 and accepts in state
    # 20: the cell budget stops the run at head 11, its twelfth
    # configuration, and no sound proof says it never halts
    spec = spec_of({(q, 0): ((MOVE_RIGHT, q + 1),) for q in range(20)}, 21, 1, accept=[20], det=True)
    res = det_behavior_oracle(spec, 10 ** 6, 10)
    assert (res.kind, res.explored, res.certificate) == ("unresolved", 12, None)
    assert det_behavior_oracle(spec, 10 ** 6, 20).kind == "accept"


def test_oracle_drifter_certified_loop():
    # past the cell budget, a closed 1-gram set proves the drifter never halts
    spec = spec_of({(0, 0): ((MOVE_RIGHT, 0),)}, 1, 1, det=True)
    res = det_behavior_oracle(spec, 10 ** 6, 10)
    assert (res.kind, res.explored) == ("loop", 2)
    assert res.certificate == Certificate(1, frozenset({(WALL,), (0,)}), frozenset({(END,)}))
    assert check_certificate(spec, "loop", res.certificate)


def test_oracle_dead_end_rejects():
    spec = spec_of({(0, 0): ((Write(1), 1),)}, 2, 2, det=True)
    assert det_behavior_oracle(spec, 100, 10).kind == "reject"


def test_oracle_write_then_accept():
    spec = spec_of({(0, 0): ((Write(1), 1),)}, 2, 2, accept=[1], det=True)
    res = det_behavior_oracle(spec, 10, 10)
    assert res.kind == "accept" and res.explored == 1


def test_oracle_stuck_left_rejects():
    spec = spec_of({(0, 0): ((MOVE_LEFT, 0),)}, 1, 1, det=True)
    assert det_behavior_oracle(spec, 10, 10).kind == "reject"


@pytest.mark.parametrize("k", [1, 2, 5])
def test_oracle_step_budget_boundary(k):
    # states 0..k-1 each move right into the next; state k accepts after k steps
    spec = spec_of({(q, 0): ((MOVE_RIGHT, q + 1),) for q in range(k)}, k + 1, 1, accept=[k], det=True)
    for max_steps in range(k + 2):
        res = det_behavior_oracle(spec, max_steps, k + 1)
        expected = ("accept", k) if k <= max_steps + 1 else ("unresolved", max_steps + 2)
        assert (res.kind, res.explored) == expected, max_steps


@st.composite
def det_machines(draw):
    """A deterministic machine, 1-3 states and 1-2 symbols, every action
    allowed, with at most one accept state."""
    n, s = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    actions = [MOVE_LEFT, MOVE_RIGHT] + [Write(a) for a in range(s)]
    step = st.tuples(st.sampled_from(actions), st.integers(0, n - 1))
    trans = {}
    for key in ((q, a) for q in range(n) for a in range(s)):
        succ = draw(st.none() | step)
        if succ is not None:
            trans[key] = (succ,)
    return spec_of(trans, n, s, accept=draw(st.sets(st.integers(0, n - 1), max_size=1)), det=True)


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(spec=det_machines())
def test_oracle_sees_every_repeat_within_three_times_its_step(spec):
    """Brent's rule sees a run's first repeat, at step s, after s to 3s
    steps, so every repeat within a third of the step budget is a loop that
    no proof had to certify; a run that halts there halts the same way."""
    max_steps = 300
    s = tuple_first_repeat(spec, max_steps // 3)
    res = det_behavior_oracle(spec, max_steps, max_steps)
    if s is not None:
        assert (res.kind, res.certificate) == ("loop", None)
        assert s <= res.explored < 3 * s
    elif (run := tuple_run(spec, max_steps // 3)) is not None:
        assert res.kind == run[0]


def walk_then_cycle(walk, cycle):
    """walk states that each move right into the next, then cycle states
    that each write blank over the blank cell and pass to the next, around:
    the run's preperiod is walk steps and its cycle cycle steps long."""
    trans = {(q, 0): ((MOVE_RIGHT, q + 1),) for q in range(walk)}
    trans.update({(walk + i, 0): ((Write(0), walk + (i + 1) % cycle),) for i in range(cycle)})
    return spec_of(trans, walk + cycle, 1, det=True)


@pytest.mark.parametrize("walk,cycle,seen", [(100, 37, 164), (5, 200, 455), (200, 300, 811), (0, 1, 1)])
def test_oracle_sees_a_long_cycle_after_a_long_walk(walk, cycle, seen):
    # the saved configuration is the one after 2^k - 1 steps for the least k
    # with 2^k > walk and 2^k >= cycle, so the repeat shows cycle steps later
    spec = walk_then_cycle(walk, cycle)
    assert tuple_first_repeat(spec, 10 ** 4) == walk + cycle
    res = det_behavior_oracle(spec, 10 ** 4, walk)
    assert (res.kind, res.explored, res.certificate) == ("loop", seen, None)
    assert seen < 3 * (walk + cycle)
    assert decide_det_braidlike(spec) == "loop"


# Marks cell 0, then sweeps: right over the 1s to the blank past them, where
# it writes 1, and back left to the mark. Each sweep lengthens the tape, so
# the run never repeats, and in 2 * 10**5 steps its head gets no further
# than cell 446, so the step budget ends it.
SWEEPER = spec_of({
    (0, 0): ((Write(2), 1),),
    (1, 2): ((MOVE_RIGHT, 2),),
    (2, 1): ((MOVE_RIGHT, 2),),
    (2, 0): ((Write(1), 3),),
    (3, 1): ((MOVE_LEFT, 3),),
    (3, 2): ((MOVE_RIGHT, 2),),
}, 4, 3, det=True)


def test_oracle_run_holds_constant_memory():
    # an exact visited set held one triple per step, about 20 MB here
    tracemalloc.start()
    try:
        res = det_behavior_oracle(SWEEPER, 2 * 10 ** 5, 10 ** 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.kind == "loop" and res.certificate is not None
    assert peak < 2 ** 20, peak


def test_oracle_rejects_nondeterministic():
    spec = spec_of({}, 1, 1)
    with pytest.raises(ValueError):
        det_behavior_oracle(spec, 1, 1)


PROGRAM = parse_counter_program("counters 1\n0: add 0\n1: halt\n")
# two states, no transitions: the target is never reached
STUCK = spec_of({}, 2, 1, target=1)
GAME = GameSpec(("t0",), ("m0",), "m0", "t0", {}, frozenset({("m0", "t0")}))

# Each call passes one argument that its function's guard refuses.
BAD_ARGUMENTS = {
    "cm_run-max_steps": (lambda: cm_run(PROGRAM, initial_config(PROGRAM), -1), "max_steps must be >= 0"),
    "level_run-max_ticks": (lambda: level_run(compile(PROGRAM), -1), "max_ticks must be >= 0"),
    # a start the program or level cannot hold: in the list of places an
    # extra counter would be monstars at a location, and pc 2 the implicit halt
    "CounterProgram-init": (lambda: CounterProgram(1, (Add(0),), (1.5,)), "init counters must list"),
    # anything but an Add or a SubBranch would lower to a halt
    "CounterProgram-instruction": (lambda: CounterProgram(1, ("x",)), "^instruction 0: 'x' is not an Add, "),
    "CounterProgram-num_counters-float": (lambda: CounterProgram(1.5, (Add(0),)), "^num_counters 1.5 is not an "),
    "CounterProgram-num_counters-bool": (lambda: CounterProgram(True, (Add(0),)), "^num_counters True is not an "),
    "cm_run-pc": (lambda: cm_run(PROGRAM, CounterConfig(2, (0,)), 10), "^pc 2 "),
    "cm_run-negative-counter": (lambda: cm_run(PROGRAM, CounterConfig(0, (-2,)), 10), r"^counters \(-2,\) "),
    "cm_run-extra-counter": (lambda: cm_run(PROGRAM, CounterConfig(0, (3, 7)), 10), r"^counters \(3, 7\) "),
    "level_run-extra-counter": (lambda: level_run(compile(PROGRAM), 10, LevelConfig("L0", (3, 5), ())),
                                r"^counters \(3, 5\) "),
    "level_run-in_flight": (lambda: level_run(compile(PROGRAM), 10, LevelConfig("L0", (0,), (("R0", -2),))),
                            r"^in_flight entry \('R0', -2\) "),
    "level_run-tim_at": (lambda: level_run(compile(PROGRAM), 10, LevelConfig("nowhere", (0,), ())),
                         "^tim_at 'nowhere' "),
    "bisimulate-max_steps": (lambda: bisimulate(PROGRAM, -1), "max_steps must be >= 0"),
    "reach_bfs-cell_cap": (lambda: reach_bfs(STUCK, 0), "cell_cap must be >= 1"),
    "det_behavior_oracle-max_steps": (lambda: det_behavior_oracle(always_accept(), -1, 10), "max_steps and max_cells"),
    "det_behavior_oracle-max_cells": (lambda: det_behavior_oracle(always_accept(), 10, -1), "max_steps and max_cells"),
    "read_only_oracle-nondeterministic": (lambda: read_only_oracle(spec_of({}, 1, 1), ()),
                                          "requires a deterministic machine"),
    "game_search-max_len": (lambda: game_search(GAME, 0), "max_len must be >= 1"),
    "compute_guide-nondeterministic": (lambda: compute_guide(None, 0, spec_of({}, 1, 1)),
                                       "requires a deterministic machine"),
    "decide_reachability-cell_cap": (lambda: decide_reachability(STUCK, 0), "cell_cap must be >= 1"),
}


@pytest.mark.parametrize("call,message", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS.keys())
def test_argument_guards_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# --- read_only_oracle ------------------------------------------------------

def always_accept():
    return spec_of({}, 1, 3, accept=[0], det=True)


def right_drifter():
    return spec_of({(0, a): ((MOVE_RIGHT, 0),) for a in range(3)}, 1, 3, det=True)


def last_symbol_scanner():
    # input alphabet: 1 encodes '0', 2 encodes '1'; accept iff input ends in '1'
    trans = {
        (0, 1): ((MOVE_RIGHT, 0),),
        (0, 2): ((MOVE_RIGHT, 1),),
        (1, 1): ((MOVE_RIGHT, 0),),
        (1, 2): ((MOVE_RIGHT, 1),),
        (1, 0): ((MOVE_RIGHT, 2),),
    }
    return spec_of(trans, 3, 3, accept=[2], det=True)


def test_read_only_immediate_accept():
    for inp in ((), (1,), (2, 2, 1)):
        assert read_only_oracle(always_accept(), inp).kind == "accept"


def test_read_only_drifter_loops_on_empty():
    assert read_only_oracle(right_drifter(), ()).kind == "loop"


def test_read_only_negative_drift_rides_home():
    # Past the input, state 4 recurs one cell further left (a negative
    # drift), so the head rides back into the input region and gets stuck
    # at the wall: reject, not loop.
    moves = [MOVE_RIGHT] * 4 + [MOVE_LEFT, MOVE_LEFT, MOVE_RIGHT]
    nexts = [1, 2, 3, 4, 5, 6, 4]
    spec = spec_of({(q, 0): ((m, nxt),) for q, (m, nxt) in enumerate(zip(moves, nexts))}, 7, 1, det=True)
    res = read_only_oracle(spec, ())
    assert (res.kind, res.explored) == ("reject", 14)
    assert decide_det_braidlike(spec, ()) == "reject"


def test_read_only_scanner_examples():
    spec = last_symbol_scanner()
    assert read_only_oracle(spec, (1, 2)).kind == "accept"  # "01"
    assert read_only_oracle(spec, (2, 1)).kind == "reject"  # "10"


def test_read_only_rejects_writer():
    spec = spec_of({(0, 0): ((Write(1), 0),)}, 1, 2, det=True)
    with pytest.raises(ValueError):
        read_only_oracle(spec, ())


def test_read_only_input_symbol_range_checked():
    with pytest.raises(ValueError):
        read_only_oracle(always_accept(), (7,))


def test_an_accepting_start_is_settled_after_the_input_checks():
    with pytest.raises(ValueError, match="input symbol 7 out of range"):
        decide_det_braidlike(always_accept(), (7,))
    writer = spec_of({(0, 0): ((Write(1), 0),)}, 1, 2, accept=[0], det=True)
    with pytest.raises(ValueError, match="requires a read-only machine"):
        decide_det_braidlike(writer, ())


def test_read_only_terminates_random_machines():
    # fuzz: every read-only deterministic machine must resolve; a generous
    # ceiling on explored steps guards against a runaway
    rng = random.Random(61)
    for _ in range(300):
        n, s = rng.randint(1, 4), rng.randint(1, 3)
        trans = {}
        for q in range(n):
            for a in range(s):
                if rng.random() < 0.85:
                    trans[(q, a)] = ((rng.choice([MOVE_LEFT, MOVE_RIGHT]),
                                      rng.randrange(n)),)
        spec = spec_of(trans, n, s, accept=rng.sample(range(n), rng.randint(0, 1)),
                       det=True)
        inp = tuple(rng.randrange(s) for _ in range(rng.randint(0, 6)))
        res = read_only_oracle(spec, inp)
        assert res.kind in ("accept", "reject", "loop")
        assert res.explored < 10 ** 5


def staircase(n):
    """N states that walk N - 1 cells right into the blank region, then left
    to the wall, where the stuck move rejects."""
    trans = {(q, 0): ((MOVE_RIGHT, q + 1),) for q in range(n - 1)}
    trans[(n - 1, 0)] = ((MOVE_LEFT, n - 1),)
    return spec_of(trans, n, 1, det=True)


@pytest.mark.parametrize("n", range(1, 6))
def test_read_only_staircase_halts_at_the_last_cell_before_n_plus_N(n):
    # on the empty input the head turns at cell N - 1 = n + N - 1, the
    # farthest cell of a run that halts: stopping one cell lower says loop
    spec = staircase(n)
    res = read_only_oracle(spec, ())
    assert (res.kind, decide_det_braidlike(spec, ())) == ("reject", "reject")
    assert tuple_run(spec, 100) == ("reject", res.explored, n - 1)


@st.composite
def read_only_cases(draw):
    """A deterministic read-only machine, 1-4 states and 1-3 symbols, with
    at most one accept state, and an input of length 0-7."""
    n, s = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    step = st.tuples(st.sampled_from([MOVE_LEFT, MOVE_RIGHT]), st.integers(0, n - 1))
    trans = {}
    for key in ((q, a) for q in range(n) for a in range(s)):
        succ = draw(st.none() | step)
        if succ is not None:
            trans[key] = (succ,)
    spec = spec_of(trans, n, s, accept=draw(st.sets(st.integers(0, n - 1), max_size=1)), det=True)
    return spec, tuple(draw(st.lists(st.integers(0, s - 1), max_size=7)))


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(case=read_only_cases())
def test_read_only_oracle_matches_the_guide_walk_and_a_plain_run(case):
    """decide_det_braidlike gives the same verdict. A plain run halts the
    same way after explored steps, without passing cell n + N - 1; on a
    loop it has not halted after far more steps than a halting run of
    distinct configurations below cell n + N can take."""
    spec, inp = case
    res = read_only_oracle(spec, inp)
    assert res.kind == decide_det_braidlike(spec, inp)
    run = tuple_run(spec, 10_000, inp)
    if res.kind == "loop":
        assert run is None
    else:
        assert run[:2] == (res.kind, res.explored)
        assert run[2] < len(inp) + spec.num_states


# --- closed_ngram_proof and check_certificate ------------------------------

def test_proof_certifies_unreachable_target_at_any_cap():
    # the right-writer never enters state 1; a BFS can only say so per cap
    spec = spec_of({(0, 0): ((Write(1), 0),), (0, 1): ((MOVE_RIGHT, 0),)}, 2, 2, target=1)
    res = closed_ngram_proof(spec, "not-reached")
    assert (res.kind, res.explored, res.witness, res.cap_hit) == ("not-reached", 4, None, False)
    assert res.certificate == Certificate(1, frozenset({(WALL,), (1,)}), frozenset({(END,)}))


def test_proof_needs_two_cells_of_context():
    # Left of every 1 it writes lies a blank, which sends the head right
    # again, so a left move off a 1 never reaches cell 0. A 1-gram set
    # forgets what lies left of the cell a left move pulls in, so it lets a
    # left move off a 1 land on another 1 next to the wall, where the next
    # left move is stuck; a 2-gram set keeps the blank in between.
    spec = spec_of({(0, 0): ((MOVE_RIGHT, 1),), (0, 1): ((MOVE_LEFT, 0),),
                    (1, 0): ((Write(1), 0),), (1, 1): ((MOVE_RIGHT, 0),)}, 2, 2, det=True)
    res = closed_ngram_proof(spec, "loop")
    assert (res.explored, res.certificate.n) == (10, 2)
    assert res.certificate.left == {(WALL, WALL), (BLANK, WALL), (BLANK, 1), (1, BLANK)}
    assert check_certificate(spec, "loop", res.certificate)


def test_proof_pulls_back_what_it_pushed():
    # writes 1 at cell 0, walks right two cells and back, and enters the
    # target on reading the 1. The 1 leaves both windows on the way out, so
    # only the pushed n-gram, pulled back in, lets the proof see it.
    spec = spec_of({(0, 0): ((Write(1), 1),), (1, 1): ((MOVE_RIGHT, 2),), (2, 0): ((MOVE_RIGHT, 3),),
                    (3, 0): ((MOVE_LEFT, 4),), (4, 0): ((MOVE_LEFT, 5),), (5, 1): ((Write(1), 6),)},
                   7, 2, target=6)
    assert tuple_reach_bfs(spec, 4).kind == "reached"
    assert closed_ngram_proof(spec, "not-reached") is None


def test_proof_pushes_a_trailing_blank_as_end():
    # walks between cells 0 and 1 of the blank tape forever. A left move
    # off cell 1 pushes a blank in front of END, which is no cell, so it
    # pushes END and the right set stays {END}.
    spec = spec_of({(0, 0): ((MOVE_RIGHT, 1),), (1, 0): ((MOVE_LEFT, 2),), (2, 0): ((MOVE_RIGHT, 1),)},
                   3, 1, det=True)
    res = closed_ngram_proof(spec, "loop")
    assert res.explored == 4
    assert res.certificate == Certificate(1, frozenset({(WALL,), (BLANK,)}), frozenset({(END,)}))
    assert check_certificate(spec, "loop", res.certificate)


def test_proof_refuses_what_halts_or_reaches():
    stuck = spec_of({(0, 0): ((MOVE_LEFT, 0),)}, 1, 1, det=True)
    assert closed_ngram_proof(stuck, "loop") is None
    assert closed_ngram_proof(spec_of({}, 1, 1, accept=[0], det=True), "loop") is None
    assert closed_ngram_proof(spec_of({}, 1, 1, target=0), "not-reached") is None


def test_check_certificate_rejects_malformed():
    spec = spec_of({(0, 0): ((MOVE_RIGHT, 0),)}, 1, 1, det=True)
    good = closed_ngram_proof(spec, "loop").certificate
    assert check_certificate(spec, "loop", good)
    for bad in (good._replace(n=2), good._replace(n=0), good._replace(left=frozenset({(0,)})),
                good._replace(right=good.right | {(5,)}), good._replace(left=good.left | {(END,)})):
        assert not check_certificate(spec, "loop", bad), bad
    with pytest.raises(ValueError):
        check_certificate(spec, "reached", good)
    with pytest.raises(ValueError):
        closed_ngram_proof(spec, "not-reached")  # no target


ACTIONS = st.sampled_from([MOVE_LEFT, MOVE_RIGHT, Write(0), Write(1), Write(2)])


@st.composite
def machines(draw):
    """A deterministic machine without a target, or a nondeterministic one
    with a target: 1-4 states, 1-3 symbols."""
    n, s = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    det = draw(st.booleans())
    step = st.tuples(ACTIONS.filter(lambda a: not isinstance(a, Write) or a.symbol < s), st.integers(0, n - 1))
    trans = {}
    for key in ((q, a) for q in range(n) for a in range(s)):
        succs = tuple(dict.fromkeys(draw(st.lists(step, max_size=1 if det else 2))))
        if succs:
            trans[key] = succs
    if det:
        return spec_of(trans, n, s, accept=draw(st.sets(st.integers(0, n - 1), max_size=1)), det=True)
    return spec_of(trans, n, s, target=draw(st.integers(0, n - 1)))


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(spec=machines())
def test_certificates_are_sound_and_checked(spec):
    """No certificate for a machine that the tuple BFS shows reaching its
    target, or whose tuple simulation halts. check_certificate accepts every
    certificate produced, and rejects it with any one n-gram dropped: each
    n-gram of a closed set was pushed by a window the rest still reach."""
    kind = "loop" if spec.deterministic else "not-reached"
    res = closed_ngram_proof(spec, kind)
    if res is None:
        return
    if spec.deterministic:
        assert not tuple_halts(spec, 2000)
    else:
        assert tuple_reach_bfs(spec, 24).kind == "not-reached"
    cert = res.certificate
    assert check_certificate(spec, kind, cert)
    for gram in cert.left:
        assert not check_certificate(spec, kind, cert._replace(left=cert.left - {gram}))
    for gram in cert.right:
        assert not check_certificate(spec, kind, cert._replace(right=cert.right - {gram}))
