import itertools
import random

import pytest

from braidbench.braidlike_tm import (
    MachineSpec,
    MOVE_LEFT,
    MOVE_RIGHT,
    Write,
    parse_btm,
)
from braidbench.oracle_sim import check_certificate, det_behavior_oracle, reach_bfs, read_only_oracle
from braidbench.tour_guide import (
    ACCEPT,
    DESTROY_ME,
    LOOP_FOREVER,
    REJECT,
    compute_guide,
    decide_det_braidlike,
    decide_reachability,
    det_guide_bound,
    nondet_guide_bound,
    nondet_guide_bound_bits,
)
from reference_bfs import tuple_reach_bfs
from test_cli import run_limited


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


def test_nondet_guide_bound_bits_is_the_bounds_bit_length():
    for n in range(1, 80):
        assert nondet_guide_bound_bits(n) == nondet_guide_bound(n).bit_length()
    assert nondet_guide_bound_bits(100_000) == 10_000_400_034  # a bound too big to build
    with pytest.raises(ValueError):
        nondet_guide_bound_bits(0)


def test_bounds_reject_zero_states():
    with pytest.raises(ValueError):
        det_guide_bound(0)
    with pytest.raises(ValueError):
        nondet_guide_bound(0)


# --- compute_guide ---------------------------------------------------------

def test_guide_all_right_movers():
    spec = spec_of({(q, 0): ((MOVE_RIGHT, (q + 1) % 3),) for q in range(3)},
                   3, 1, det=True)
    assert compute_guide(None, 0, spec) == (1, 2, 0)


def test_guide_writer_answers_destroy_me():
    spec = spec_of({(0, 0): ((Write(0), 0),)}, 1, 1, det=True)
    assert compute_guide(None, 0, spec) == (DESTROY_ME,)


def test_guide_local_cycle_is_loop_forever():
    # states 0 and 1 bounce off the left guide: 0 goes left, comes back in 1,
    # 1 goes left, comes back in 0 — the local walk repeats a state
    spec = spec_of({(0, 0): ((MOVE_LEFT, 0),), (1, 0): ((MOVE_LEFT, 1),)},
                   2, 1, det=True)
    assert compute_guide((1, 0), 0, spec) == (LOOP_FOREVER, LOOP_FOREVER)


def test_guide_wall_makes_left_moves_reject():
    spec = spec_of({(0, 0): ((MOVE_LEFT, 0),)}, 1, 1, det=True)
    assert compute_guide(None, 0, spec) == (REJECT,)


def test_guide_accept_and_destroy_propagation():
    spec = spec_of({(0, 0): ((MOVE_LEFT, 1),), (1, 0): ((MOVE_LEFT, 0),)},
                   2, 1, accept=[], det=True)
    assert compute_guide((ACCEPT, DESTROY_ME), 0, spec) == (DESTROY_ME, ACCEPT)


def test_guide_accepting_state_short_circuits():
    spec = spec_of({}, 2, 1, accept=[1], det=True)
    assert compute_guide(None, 0, spec) == (REJECT, ACCEPT)  # state 0 is dead


# --- decide_det_braidlike on an input -------------------------------------

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
        assert decide_det_braidlike(spec, inp) == "accept"


def test_read_only_drifter_loops():
    spec = spec_of({(0, a): ((MOVE_RIGHT, 0),) for a in range(2)}, 1, 2, det=True)
    assert decide_det_braidlike(spec, ()) == "loop"


def test_read_only_scanner_matches_oracle():
    spec = scanner()
    for inp in ((1, 2), (2, 1), (), (2,), (1, 1, 2)):
        assert decide_det_braidlike(spec, inp) == read_only_oracle(spec, inp).kind


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
        assert decide_det_braidlike(spec, inp) == read_only_oracle(spec, inp).kind


def test_read_only_census_matches_oracle():
    # every 2-state 2-symbol read-only table, accept sets {} and {1}, on
    # every input of length <= 4: 625 * 2 * 31 = 38 750 cases
    keys = [(q, a) for q in range(2) for a in range(2)]
    cells = [None] + [(move, q) for move in (MOVE_LEFT, MOVE_RIGHT) for q in range(2)]
    inputs = [tuple(w) for n in range(5) for w in itertools.product(range(2), repeat=n)]
    cases = mismatches = 0
    for table in itertools.product(cells, repeat=len(keys)):
        trans = {k: (v,) for k, v in zip(keys, table) if v is not None}
        for accept in ((), (1,)):
            spec = spec_of(trans, 2, 2, accept=accept, det=True)
            for inp in inputs:
                cases += 1
                mismatches += decide_det_braidlike(spec, inp) != read_only_oracle(spec, inp).kind
    assert (cases, mismatches) == (38_750, 0)


def test_read_only_rejects_writer_and_nondet():
    writer = spec_of({(0, 0): ((Write(1), 0),)}, 1, 2, det=True)
    with pytest.raises(ValueError):
        decide_det_braidlike(writer, ())
    nondet = spec_of({}, 1, 1)
    with pytest.raises(ValueError):
        decide_det_braidlike(nondet, ())
    reader = spec_of({}, 1, 2, det=True)
    with pytest.raises(ValueError, match="input symbol 2 out of range"):
        decide_det_braidlike(reader, (1, 2))


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
    # sampled version of the exhaustive acceptance run, at N up to 3 and
    # then up to 4 states and 3 symbols
    rng = random.Random(13)
    for max_states, max_symbols in [(3, 2)] * 400 + [(4, 3)] * 400:
        n, s = rng.randint(1, max_states), rng.randint(1, max_symbols)
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
        res, bfs, base = decide_reachability(spec, cell_cap=32), reach_bfs(spec, 32), tuple_reach_bfs(spec, 32)
        assert (bfs.kind, bfs.explored, bfs.cap_hit, bfs.witness) == \
            (base.kind, base.explored, base.cap_hit, base.witness)
        assert res.kind == base.kind
        if res.certificate is not None:
            assert check_certificate(spec, "not-reached", res.certificate)


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


def blocks(m, p, phase):
    """The block family as .btm text: 2m + p + 3 states, 3 symbols. After a
    marker 2, the W states write m-cell blocks of 1s and can stop at a block's
    end; the p V states then walk left over the 1s counting mod p, and the
    one at `phase` writes 2 onto the marker into the target. The blocks make
    the walk a multiple of m long, so with p = m phase 0 is reachable and
    phase 1 is not. No n-gram proof with n <= 3 closes on any member."""
    w = [2 + 2 * i for i in range(m)]
    end = w[-1] + 1  # the last write state
    v = [end + 1 + j for j in range(p)]
    target = v[-1] + 1
    trans = [(0, 0, "write 2", 1), (1, 2, "right", w[0])]
    for i, q in enumerate(w):
        trans.append((q, 0, "write 1", q + 1))
        if i < m - 1:
            trans.append((q + 1, 1, "right", w[i + 1]))
    trans += [(end, 1, "right", w[0]), (end, 1, "left", v[1 % p])]
    trans += [(v[j], 1, "left", v[(j + 1) % p]) for j in range(p)]
    trans.append((v[phase], 2, "write 2", target))
    return (f"states {target + 1}\nsymbols 3\nstart 0\naccept\ntarget {target}\n"
            + "".join(f"trans {q} {a} {action} {nxt}\n" for q, a, action, nxt in trans))


def test_reachability_default_budget_on_the_block_family():
    res = decide_reachability(parse_btm(blocks(2, 2, 0)))
    assert (res.kind, res.explored, res.certificate) == ("reached", 12, None)
    # phase 1 is unreachable but no proof closes, so the BFS runs to the
    # default cap, a 124-bit number: without a default budget it never
    # returned, so it runs in a subprocess with its address space capped
    code = ("from braidbench import parse_btm\n"
            "from braidbench.oracle_sim import SearchBudgetExceeded\n"
            "from braidbench.tour_guide import decide_reachability\n"
            "try:\n"
            f"    decide_reachability(parse_btm({blocks(2, 2, 1)!r}))\n"
            "except SearchBudgetExceeded as e:\n"
            "    print(e)\n")
    out = run_limited("-c", code)
    assert (out.returncode, out.stdout) == (0, "reach_bfs exceeded 100000 configurations\n"), out.stderr
