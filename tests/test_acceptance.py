"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Every verdict here is checked against an independent baseline: the
brute-force oracles for the deciders, a BFS over tuple configurations for
reachability, the counter-machine interpreter for the compiler, and the
direct timeline search for the game adapter.
"""

import itertools
import random

from braidbench.braidlike_tm import (
    BLANK,
    Configuration,
    MachineSpec,
    MOVE_LEFT,
    MOVE_RIGHT,
    Write,
    apply_action,
    canonical_tape,
    symbol_at,
)
from braidbench.counter_machine import cm_run, initial_config, parse_counter_program
from braidbench.gadget_compiler import bisimulate, compile, level_run
from braidbench.oracle_sim import det_behavior_oracle, read_only_oracle
from braidbench.rewind_timeline import (
    GameSpec,
    Timeline,
    build_braidlike_from_game,
    game_search,
    tl_record,
    tl_seek,
)
from braidbench.tour_guide import (
    decide_det_braidlike,
    decide_reachability,
    decide_read_only,
    det_guide_bound,
    nondet_guide_bound,
)
from reference_bfs import tuple_reach_bfs


def report(name, ok, detail=""):
    print(f"criterion {name}: {'pass' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {name} failed: {detail}"


# --- 1: exhaustive small-machine agreement ----------------------------------

def test_criterion_1_exhaustive_deterministic_agreement():
    # every deterministic 2-state 2-symbol machine: per (state, symbol) key
    # one of {no transition} or (action, next) with action in
    # {Write(0), Write(1), MoveLeft, MoveRight} and next in {0, 1};
    # 9^4 tables x 4 accept sets = 26244 machines, well under the sampling
    # threshold, so the space is enumerated in full.
    options = [None] + [
        (a, n)
        for a in (Write(0), Write(1), MOVE_LEFT, MOVE_RIGHT)
        for n in (0, 1)
    ]
    keys = ((0, 0), (0, 1), (1, 0), (1, 1))
    accept_sets = (frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1}))
    total = mismatches = unresolved = 0
    for combo in itertools.product(options, repeat=4):
        trans = {k: (opt,) for k, opt in zip(keys, combo) if opt is not None}
        for accept in accept_sets:
            spec = MachineSpec(2, 2, 0, accept, trans, deterministic=True)
            verdict = decide_det_braidlike(spec)
            oracle = det_behavior_oracle(spec, 10 ** 5, 10 ** 3)
            total += 1
            if oracle.kind == "unresolved":
                unresolved += 1
            elif verdict != oracle.kind:
                mismatches += 1
    report("1 (exhaustive 2-state agreement)", mismatches == 0,
           f"({total} machines, {unresolved} oracle-unresolved, {mismatches} mismatches)")


# --- 2: reachability agreement ----------------------------------------------

def random_reach_spec(rng):
    n = rng.randint(1, 3)
    s = rng.randint(1, 2)
    actions = [Write(0), MOVE_LEFT, MOVE_RIGHT]
    if s == 2:
        actions.append(Write(1))
    transitions = {}
    for q in range(n):
        for a in range(s):
            k = rng.choice([0, 1, 1, 2])
            succs = tuple(dict.fromkeys(
                (rng.choice(actions), rng.randrange(n)) for _ in range(k)))
            if succs:
                transitions[(q, a)] = succs
    return MachineSpec(num_states=n, num_symbols=s, start_state=0,
                       accept_states=frozenset(), transitions=transitions,
                       target_state=rng.randrange(n), deterministic=False)


def overapprox_states(spec):
    """States reachable in a sound over-approximation that forgets the tape.

    Tracks (state, symbol under head) pairs: a move may land on any symbol
    written so far (or blank); a write pins the symbol under the head. Every
    really reachable configuration is covered, so a state missing here is
    unreachable at any cell cap.
    """
    syms = {BLANK}
    pairs = {(spec.start_state, BLANK)}
    changed = True
    while changed:
        changed = False
        for (q, a) in list(pairs):
            for action, nxt in spec.transitions.get((q, a), ()):
                if isinstance(action, Write):
                    if action.symbol not in syms:
                        syms.add(action.symbol)
                        changed = True
                    new = {(nxt, action.symbol)}
                else:
                    new = {(nxt, s) for s in syms}
                for p in new:
                    if p not in pairs:
                        pairs.add(p)
                        changed = True
    return {q for q, _ in pairs}


def verdict_at_cap(spec, runner, stated_cap):
    """Exact verdict at stated_cap without always paying for the full cap.

    Reached at a smaller cap implies reached at any larger one (the search
    only discards larger-head configurations). Exhaustion with no cap hit
    means the cap never mattered. Otherwise the tape-free over-approximation
    can prove the target globally unreachable. Only if all three fall
    through is the search run at the stated cap itself. Returns the
    (kind, explored, cap_hit) of the search that settled the verdict; when
    the over-approximation settled it, nothing was explored.
    """
    for cap in (64, 1024):
        res = runner(spec, cap)
        if res.kind == "reached" or not res.cap_hit:
            return res.kind, res.explored, res.cap_hit
    if spec.target_state not in overapprox_states(spec):
        return "not-reached", None, None
    res = runner(spec, stated_cap)
    return res.kind, res.explored, res.cap_hit


def test_criterion_2_reachability_agreement():
    rng = random.Random(20260824)
    specs = [random_reach_spec(rng) for _ in range(200)]
    agree = 0
    for spec in specs:
        cap = nondet_guide_bound(spec.num_states) + 1
        v_bfs = verdict_at_cap(spec, tuple_reach_bfs, cap)
        v_dec = verdict_at_cap(
            spec, lambda s, c: decide_reachability(s, cell_cap=c), cap)
        agree += v_bfs == v_dec
    report("2 (reachability vs oracle, 200 specs)", agree == 200, f"({agree}/200)")


# --- 3: guide-bound values ---------------------------------------------------

def test_criterion_3_guide_bound_values():
    got = tuple(det_guide_bound(n) for n in (1, 2, 3))
    report("3 (guide bounds 5/72/1029)", got == (5, 72, 1029), f"(got {got})")


# --- 4: read-only decider -----------------------------------------------------

def ro_spec(transitions, n, accept):
    return MachineSpec(n, 3, 0, frozenset(accept), transitions, deterministic=True)


def ro_always_accept():
    return ro_spec({}, 1, [0])


def ro_right_drifter():
    return ro_spec({(0, a): ((MOVE_RIGHT, 0),) for a in range(3)}, 1, [])


def ro_scanner():
    # symbols: 1 encodes '0', 2 encodes '1'; accepts iff the input ends in '1'
    return ro_spec({
        (0, 1): ((MOVE_RIGHT, 0),),
        (0, 2): ((MOVE_RIGHT, 1),),
        (1, 1): ((MOVE_RIGHT, 0),),
        (1, 2): ((MOVE_RIGHT, 1),),
        (1, 0): ((MOVE_RIGHT, 2),),
    }, 3, [2])


def test_criterion_4_read_only_decider():
    machines = (ro_always_accept(), ro_right_drifter(), ro_scanner())
    inputs = [
        tuple(bits)
        for length in range(9)
        for bits in itertools.product((0, 1), repeat=length)
    ]
    agree = total = 0
    language_ok = True
    scanner = machines[2]
    for bits in inputs:
        encoded = tuple(b + 1 for b in bits)  # 0 -> symbol 1, 1 -> symbol 2
        for spec in machines:
            total += 1
            agree += decide_read_only(spec, encoded) == read_only_oracle(spec, encoded).kind
        if bits:  # the regular language "ends in 1" over nonempty strings
            accepted = decide_read_only(scanner, encoded) == "accept"
            language_ok = language_ok and (accepted == (bits[-1] == 1))
    report("4 (read-only decider vs oracle)",
           agree == total and language_ok,
           f"({agree}/{total} agree, ends-in-1 language {'ok' if language_ok else 'WRONG'})")


# --- 5: compiler bisimulation --------------------------------------------------

CORPUS = {
    # adds c1 into c0 (a two-counter adder with a scratch zero counter for gotos)
    "adder": "counters 3\ninit 3 4 0\n0: subb 1 3\n1: add 0\n2: subb 2 0\n3: halt\n",
    "copy-loop": "counters 3\ninit 5 0 0\n0: subb 0 3\n1: add 1\n2: subb 2 0\n3: halt\n",
    "zero-branch": "counters 1\n0: subb 0 2\n1: halt\n2: halt\n",
    "nonzero-branch": "counters 1\ninit 1\n0: subb 0 2\n1: halt\n2: halt\n",
    "non-halting-loop": "counters 1\n0: subb 0 0\n",
    "non-halting-grower": "counters 2\n0: add 0\n1: subb 1 0\n",
    "add-chain": "counters 1\n0: add 0\n1: add 0\n2: add 0\n3: add 0\n4: add 0\n5: halt\n",
    "fall-through": "counters 1\n0: add 0\n1: add 0\n",
    "drain": "counters 2\ninit 4 0\n0: subb 0 2\n1: subb 1 0\n2: halt\n",
    "ping-pong": ("counters 3\ninit 2 0 0\n"
                  "0: subb 0 3\n1: add 1\n2: subb 2 0\n"
                  "3: subb 1 6\n4: add 0\n5: subb 2 3\n6: halt\n"),
    "halt-only": "counters 1\n0: halt\n",
    "dead-tail": "counters 1\n0: add 0\n1: halt\n2: add 0\n3: halt\n",
}

NON_HALTING = {"non-halting-loop", "non-halting-grower"}


def test_criterion_5_compiler_bisimulation():
    budget = 10 ** 4
    ok = True
    details = []
    for name, src in CORPUS.items():
        program = parse_counter_program(src)
        rep = bisimulate(program, budget)
        run = cm_run(program, initial_config(program), budget)
        lvl = level_run(compile(program), budget)
        good = rep.passed
        if name in NON_HALTING:
            good = good and run.kind == "budget" and lvl.kind == "budget"
        else:
            good = good and run.kind == "halted" and lvl.kind == "solved"
            good = good and lvl.ticks <= 3 * run.config.steps + 1
        ok = ok and good
        if not good:
            details.append(name)
    report("5 (bisimulation corpus, 12 programs)", ok,
           f"(failures: {details})" if details else f"({len(CORPUS)}/12 pass)")


# --- 6: timeline/TM correspondence ----------------------------------------------

def test_criterion_6a_timeline_tape_correspondence():
    rng = random.Random(42)
    max_speed = 8
    violations = 0
    for _ in range(1000):
        # world states 1..5 double as tape symbols
        s0 = rng.randint(1, 5)
        tl = Timeline((s0,), 0)
        c = apply_action(Configuration(0, 0, ()), Write(s0), 0)
        for _ in range(rng.randint(0, 30)):
            if rng.random() < 0.5:
                s = rng.randint(1, 5)
                tl = tl_record(tl, s)
                c = apply_action(c, MOVE_RIGHT, 0)
                c = apply_action(c, Write(s), 0)
            else:
                delta = rng.randint(-max_speed, max_speed)
                clamped = (min(max(tl.cursor + delta, 0), len(tl.snapshots) - 1)
                           - tl.cursor)
                tl = tl_seek(tl, delta, max_speed)
                for _ in range(abs(clamped)):
                    c = apply_action(c, MOVE_LEFT if clamped < 0 else MOVE_RIGHT, 0)
            if c.tape != tl.snapshots or c.head != tl.cursor:
                violations += 1
                break
    report("6a (1000 record/seek replays)", violations == 0,
           f"({violations} diverging sequences)")


def random_game(rng):
    nt = rng.randint(1, 3)
    ni = rng.randint(1, 2)
    timed = tuple(f"t{i}" for i in range(nt))
    immune = tuple(f"m{i}" for i in range(ni))
    pairs = [(m, t) for m in immune for t in timed]
    moves = {}
    for m in immune:
        for t in timed:
            outs = tuple(dict.fromkeys(
                (rng.choice(immune), rng.choice(timed))
                for _ in range(rng.randint(0, 2))))
            if outs:
                moves[(m, t)] = outs
    goal = frozenset(rng.sample(pairs, rng.randint(0, 1)))
    return GameSpec(timed, immune, immune[0], timed[0], moves, goal,
                    max_speed=rng.randint(1, 3))


def test_criterion_6b_game_search_agreement():
    rng = random.Random(7)
    agree = 0
    for _ in range(20):
        g = random_game(rng)
        winnable = game_search(g, max_len=6).kind == "winnable"
        reached = decide_reachability(
            build_braidlike_from_game(g), cell_cap=6).kind == "reached"
        agree += winnable == reached
    report("6b (20 game reachability cross-checks)", agree == 20, f"({agree}/20)")


# --- 7: erase-right property ------------------------------------------------------

def test_criterion_7_erase_right_property():
    rng = random.Random(1234)
    violations = 0
    for _ in range(10 ** 4):
        tape = canonical_tape(
            tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 6))))
        head = rng.randint(0, 8)
        b = rng.randint(0, 3)
        succ = apply_action(Configuration(0, head, tape), Write(b), rng.randrange(3))
        ok = (
            len(succ.tape) <= head + 1
            and symbol_at(succ.tape, head) == b
            and all(symbol_at(succ.tape, i) == symbol_at(tape, i) for i in range(head))
            and all(symbol_at(succ.tape, i) == BLANK for i in range(head + 1, head + 9))
            # the canonical form only drops the cell when blank was written
            and (len(succ.tape) == head + 1 or b == BLANK)
        )
        if not ok:
            violations += 1
    report("7 (10^4 erase-right writes)", violations == 0, f"({violations} violations)")
