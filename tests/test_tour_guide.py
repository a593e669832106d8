import random

import pytest

from braidbench.braidlike_tm import (
    MachineSpec,
    MOVE_LEFT,
    MOVE_RIGHT,
    Write,
)
from braidbench.oracle_sim import det_behavior_oracle, read_only_oracle
from braidbench.tour_guide import (
    ACCEPT,
    DESTROY_ME,
    LOOP_FOREVER,
    REJECT,
    ReturnInState,
    TourGuide,
    compute_guide,
    decide_det_braidlike,
    decide_reachability,
    decide_read_only,
    det_guide_bound,
    nondet_guide_bound,
)
from reference_bfs import tuple_reach_bfs


def spec_of(transitions, n, s, accept=(), target=None, det=False, start=0):
    return MachineSpec(n, s, start, frozenset(accept), transitions,
                       target_state=target, deterministic=det)


# --- bounds ----------------------------------------------------------------

def test_det_guide_bound_values():
    assert det_guide_bound(1) == 5
    assert det_guide_bound(2) == 72
    assert det_guide_bound(3) == 1029


def test_nondet_guide_bound_values():
    assert nondet_guide_bound(1) == 64
    assert nondet_guide_bound(2) == 24576


def test_nondet_bound_dominates_det_bound():
    for n in range(1, 8):
        assert nondet_guide_bound(n) >= det_guide_bound(n)


def test_bounds_reject_zero_states():
    with pytest.raises(ValueError):
        det_guide_bound(0)
    with pytest.raises(ValueError):
        nondet_guide_bound(0)


# --- compute_guide ---------------------------------------------------------

def test_guide_all_right_movers():
    spec = spec_of({(q, 0): ((MOVE_RIGHT, (q + 1) % 3),) for q in range(3)},
                   3, 1, det=True)
    g = compute_guide(None, 0, spec)
    assert g.answers == (ReturnInState(1), ReturnInState(2), ReturnInState(0))


def test_guide_writer_answers_destroy_me():
    spec = spec_of({(0, 0): ((Write(0), 0),)}, 1, 1, det=True)
    assert compute_guide(None, 0, spec).answers == (DESTROY_ME,)


def test_guide_local_cycle_is_loop_forever():
    # states 0 and 1 bounce off the left guide: 0 goes left, comes back in 1,
    # 1 goes left, comes back in 0 — the local walk repeats a state
    spec = spec_of({(0, 0): ((MOVE_LEFT, 0),), (1, 0): ((MOVE_LEFT, 1),)},
                   2, 1, det=True)
    left = TourGuide((ReturnInState(1), ReturnInState(0)))
    g = compute_guide(left, 0, spec)
    assert g.answers == (LOOP_FOREVER, LOOP_FOREVER)


def test_guide_wall_makes_left_moves_reject():
    spec = spec_of({(0, 0): ((MOVE_LEFT, 0),)}, 1, 1, det=True)
    assert compute_guide(None, 0, spec).answers == (REJECT,)


def test_guide_accept_and_destroy_propagation():
    spec = spec_of({(0, 0): ((MOVE_LEFT, 1),), (1, 0): ((MOVE_LEFT, 0),)},
                   2, 1, accept=[], det=True)
    left = TourGuide((ACCEPT, DESTROY_ME))
    g = compute_guide(left, 0, spec)
    assert g.answers == (DESTROY_ME, ACCEPT)


def test_guide_accepting_state_short_circuits():
    spec = spec_of({}, 2, 1, accept=[1], det=True)
    g = compute_guide(None, 0, spec)
    assert g.answers[1] is ACCEPT
    assert g.answers[0] is REJECT  # dead configuration


# --- decide_read_only ------------------------------------------------------

def scanner():
    trans = {
        (0, 1): ((MOVE_RIGHT, 0),),
        (0, 2): ((MOVE_RIGHT, 1),),
        (1, 1): ((MOVE_RIGHT, 0),),
        (1, 2): ((MOVE_RIGHT, 1),),
        (1, 0): ((MOVE_RIGHT, 2),),
    }
    return spec_of(trans, 3, 3, accept=[2], det=True)


def test_read_only_always_accept():
    spec = spec_of({}, 1, 3, accept=[0], det=True)
    for inp in ((), (1, 2), (2, 2, 2)):
        assert decide_read_only(spec, inp) == "accept"


def test_read_only_drifter_loops():
    spec = spec_of({(0, a): ((MOVE_RIGHT, 0),) for a in range(2)}, 1, 2, det=True)
    assert decide_read_only(spec, ()) == "loop"


def test_read_only_scanner_matches_oracle():
    spec = scanner()
    for inp in ((1, 2), (2, 1), (), (2,), (1, 1, 2)):
        assert decide_read_only(spec, inp) == read_only_oracle(spec, inp).kind


def test_read_only_random_agreement():
    rng = random.Random(77)
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
        assert decide_read_only(spec, inp) == read_only_oracle(spec, inp).kind


def test_read_only_rejects_writer_and_nondet():
    writer = spec_of({(0, 0): ((Write(1), 0),)}, 1, 2, det=True)
    with pytest.raises(ValueError):
        decide_read_only(writer, ())
    nondet = spec_of({}, 1, 1)
    with pytest.raises(ValueError):
        decide_read_only(nondet, ())
    reader = spec_of({}, 1, 2, det=True)
    with pytest.raises(ValueError, match="input symbol 2 out of range"):
        decide_read_only(reader, (1, 2))


# --- decide_det_braidlike ---------------------------------------------------

def test_det_decider_right_drifter():
    spec = spec_of({(0, 0): ((MOVE_RIGHT, 0),)}, 1, 1, det=True)
    assert decide_det_braidlike(spec) == "loop"


def test_det_decider_write_blank_looper():
    spec = spec_of({(0, 0): ((Write(0), 0),)}, 1, 1, det=True)
    assert decide_det_braidlike(spec) == "loop"


def test_det_decider_accepts():
    spec = spec_of({(0, 0): ((Write(1), 1),)}, 2, 2, accept=[1], det=True)
    assert decide_det_braidlike(spec) == "accept"


def test_det_decider_stuck_left_rejects():
    spec = spec_of({(0, 0): ((MOVE_LEFT, 0),)}, 1, 1, det=True)
    assert decide_det_braidlike(spec) == "reject"


def test_det_decider_random_agreement():
    # sampled version of the exhaustive acceptance run, at N up to 3
    rng = random.Random(13)
    for _ in range(400):
        n, s = rng.randint(1, 3), rng.randint(1, 2)
        trans = {}
        for q in range(n):
            for a in range(s):
                if rng.random() < 0.9:
                    action = rng.choice(
                        [MOVE_LEFT, MOVE_RIGHT] + [Write(b) for b in range(s)])
                    trans[(q, a)] = ((action, rng.randrange(n)),)
        spec = spec_of(trans, n, s, accept=rng.sample(range(n), rng.randint(0, n)),
                       det=True)
        verdict = decide_det_braidlike(spec)
        oracle = det_behavior_oracle(spec, 10 ** 4, 200)
        if oracle.kind != "unresolved":
            assert verdict == oracle.kind


# --- decide_reachability ----------------------------------------------------

def test_reachability_start_is_target():
    spec = spec_of({}, 1, 1, target=0)
    assert decide_reachability(spec).kind == "reached"


def test_reachability_no_path():
    spec = spec_of({(0, 0): ((MOVE_RIGHT, 0),)}, 2, 1, target=1)
    assert decide_reachability(spec).kind == "not-reached"


def test_reachability_requires_target():
    with pytest.raises(ValueError):
        decide_reachability(spec_of({}, 1, 1))


def test_reachability_matches_bfs_random():
    rng = random.Random(53)
    for _ in range(150):
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
        res, base = decide_reachability(spec, cell_cap=32), tuple_reach_bfs(spec, 32)
        assert (res.kind, res.explored, res.cap_hit, res.witness) == \
            (base.kind, base.explored, base.cap_hit, base.witness)


def test_reachability_witness_ends_at_target():
    spec = spec_of(
        {(0, 0): ((Write(1), 1),), (1, 1): ((MOVE_RIGHT, 2),)},
        3, 2, target=2)
    res = decide_reachability(spec, cell_cap=8)
    assert res.kind == "reached"
    assert res.witness[-1].state == 2


def test_reachability_target_seen_mid_excursion():
    # The target is visited only partway through a leftward excursion; a
    # guide-chain prune that compared guides without a "target reached"
    # answer called this machine not-reached.
    spec = spec_of({
        (0, 0): ((MOVE_RIGHT, 0), (MOVE_LEFT, 2)),
        (0, 1): ((Write(0), 0),),
        (1, 0): ((MOVE_LEFT, 2),),
        (1, 1): ((Write(0), 2),),
        (2, 0): ((MOVE_LEFT, 1),),
        (2, 1): ((Write(0), 0), (MOVE_LEFT, 2)),
    }, 3, 2, target=1)
    res = decide_reachability(spec)
    assert res.kind == "reached"
    assert res.witness[-1].state == 1
