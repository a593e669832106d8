import random
import tracemalloc

import pytest

from braidbench.braidlike_tm import (
    MachineSpec,
    MOVE_LEFT,
    MOVE_RIGHT,
    Write,
    successors,
)
from braidbench.oracle_sim import det_behavior_oracle, reach_bfs, read_only_oracle


def spec_of(transitions, n, s, accept=(), target=None, det=False, start=0):
    return MachineSpec(n, s, start, frozenset(accept), transitions,
                       target_state=target, deterministic=det)


# --- reach_bfs -------------------------------------------------------------

def test_reach_start_is_target():
    spec = spec_of({}, 1, 1, target=0)
    res = reach_bfs(spec, 4)
    assert res.kind == "reached"
    assert len(res.witness) == 1


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
    rng = random.Random(17)
    for _ in range(100):
        n, s = rng.randint(1, 3), rng.randint(1, 2)
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
        res = reach_bfs(spec, 16)
        if res.kind != "reached":
            continue
        assert res.witness[-1].state == spec.target_state
        for cur, nxt in zip(res.witness, res.witness[1:]):
            assert any(x == nxt for x in successors(spec, cur))


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


# --- det_behavior_oracle ---------------------------------------------------

def test_oracle_write_blank_loops():
    # writing blank at cell 0 leaves the canonical configuration unchanged
    spec = spec_of({(0, 0): ((Write(0), 0),)}, 1, 1, det=True)
    assert det_behavior_oracle(spec, 100, 10).kind == "loop"


def test_oracle_accepting_start():
    spec = spec_of({}, 1, 1, accept=[0], det=True)
    assert det_behavior_oracle(spec, 100, 10).kind == "accept"


def test_oracle_drifter_unresolved():
    # the cell budget stops the run at head 11, its twelfth configuration
    spec = spec_of({(0, 0): ((MOVE_RIGHT, 0),)}, 1, 1, det=True)
    res = det_behavior_oracle(spec, 10 ** 6, 10)
    assert (res.kind, res.explored) == ("unresolved", 12)


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


def test_oracle_rejects_nondeterministic():
    spec = spec_of({}, 1, 1)
    with pytest.raises(ValueError):
        det_behavior_oracle(spec, 1, 1)


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
