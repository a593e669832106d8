"""Brute-force baselines for the tour-guide deciders.

These compute no crossing summaries, so agreement with the deciders is a
genuine cross-check. read_only_oracle steps `successors`, the step relation
on tuple configurations, which writes only through `apply_action`; reach_bfs
and det_behavior_oracle, like decide_det_braidlike, lower the spec once to a
TapeStore step table and step zipped tapes through `TapeStore.successors`,
the one zipper write, which a lockstep test pins to `apply_action`.
The deterministic oracles find a repeat by Brent's rule, and
decide_det_braidlike by an exact visited set.
closed_ngram_proof is a sound abstract search that certifies the negative
verdicts ("not-reached", "loop") at any cell cap; check_certificate checks
a certificate by one pass of that search.
"""

from __future__ import annotations

from collections import deque, namedtuple
from typing import NamedTuple

from .braidlike_tm import (
    BLANK,
    Configuration,
    MachineSpec,
    MoveLeft,
    MoveRight,
    Record,
    TapeStore,
    Write,
    apply_action,
    canonical_tape,
    check_input,
    successors,
)


class SearchBudgetExceeded(RuntimeError):
    """Raised when an explicit search outgrows its explored-node budget."""


# How many configurations, nodes or table entries an explicit search may
# explore before it raises SearchBudgetExceeded: the default max_explored of
# reach_bfs, game_search and decide_reachability, and of the CLI's
# --max-steps.
DEFAULT_BUDGET = 100_000


WALL = "wall"  # pads a left window past cell 0
END = "end"  # pads a right window past the end of the tape


class Certificate(NamedTuple):
    """A closed n-gram set: every n-gram that a reachable configuration's
    left or right half-tape can hold, nearest cell first."""

    n: int
    left: frozenset  # n-tuples of symbols, padded with WALL
    right: frozenset  # n-tuples of symbols, padded with END


class OracleVerdict(Record, namedtuple("OracleVerdict", "kind explored witness cap_hit certificate",
                                        defaults=(0, None, False, None))):
    """A search's verdict: kind is "reached", "not-reached", "accept",
    "reject", "loop", "unresolved", "winnable" or "not-winnable". explored
    counts the configurations (or, with a certificate, windows) of the
    search that settled it; the deterministic oracles count steps, and on
    "loop" the steps until they saw the repeat. witness is a trace of
    Configurations, start first; cap_hit is True if any successor was
    discarded at the cell cap; certificate is a closed n-gram set proving a
    negative verdict."""

    __slots__ = ()


def reach_bfs(spec: MachineSpec, cell_cap: int, max_explored: int = DEFAULT_BUDGET) -> OracleVerdict:
    """Breadth-first reachability of the target state from the blank tape.

    Configurations whose head or tape length exceeds cell_cap are discarded,
    which makes the search space finite. cap_hit reports whether any
    configuration was actually discarded; a "not-reached" verdict without it
    is exhaustive, and with it holds only up to the cap. A
    search that would explore more than max_explored configurations raises
    SearchBudgetExceeded; pass a bigger int for a bigger search.
    The search keys zipped configurations of a TapeStore and steps them
    through the spec's step table, lowered once, so each explored
    configuration costs O(1) time and memory whatever the length of its
    tape. The parents map, which also yields the witness, is the visited
    set; the witness is decoded into Configurations. A start in the target
    state is reached before the spec is lowered.
    """
    if spec.target_state is None:
        raise ValueError("reach_bfs needs a declared target state")
    if cell_cap < 1:
        raise ValueError("cell_cap must be >= 1")
    if spec.start_state == spec.target_state and max_explored >= 1:
        return OracleVerdict("reached", 1, (Configuration(spec.start_state, 0, ()),))
    store = TapeStore(spec.num_symbols)
    rows, step, size = store.lower(spec), store.successors, store.size
    start, target = (spec.start_state, 0, 0), spec.target_state
    parents = {start: None}
    queue = deque([start])
    explored = 0
    cap_hit = False
    while queue:
        z = queue.popleft()
        explored += 1
        if explored > max_explored:
            raise SearchBudgetExceeded(f"reach_bfs exceeded {max_explored} configurations")
        if z[0] == target:
            return OracleVerdict("reached", explored, _witness(store, parents, z), cap_hit)
        for succ in step(rows, z):
            # the head plus the cells from it onward is max(head, tape length)
            if size[succ[1]] + size[succ[2]] > cell_cap:
                cap_hit = True
                continue
            if succ not in parents:
                parents[succ] = z
                queue.append(succ)
    return OracleVerdict("not-reached", explored, None, cap_hit)


def _witness(store: TapeStore, parents: dict, z: tuple) -> tuple:
    """The path from the start to z, as Configurations. A step that keeps the
    head is a write, which put car[right] at the head; a move keeps the tape."""
    path = []
    while z is not None:
        path.append(z)
        z = parents[z]
    state, _, _ = path.pop()
    out = [Configuration(state, 0, ())]
    for state, left, right in reversed(path):
        c, head = out[-1], store.size[left]
        if head == c.head:
            out.append(apply_action(c, Write(store.car[right]), state))
        else:
            out.append(Configuration(state, head, c.tape))
    return tuple(out)


def det_behavior_oracle(spec: MachineSpec, max_steps: int, max_cells: int) -> OracleVerdict:
    """Direct deterministic simulation with repeat detection by Brent's
    rule (R. P. Brent 1980, "An improved Monte Carlo factorization
    algorithm").

    A repeated configuration proves an infinite loop. Entering an accept
    state accepts; a dead configuration or a stuck left move rejects.
    Once either budget is exceeded, closed_ngram_proof gets one try at
    proving that the run never halts: a certified "loop", or else
    "unresolved". The run keeps one configuration, the one it met after
    2^k - 1 steps for the largest such count so far, and compares each new
    one with it by ==, so it hashes no configuration and holds O(1) of them.
    If the first repeat of the run comes after s steps, with preperiod mu
    and cycle length lambda (s = mu + lambda), the rule sees it after
    2^k - 1 + lambda < 3s steps, for the least k with 2^k > mu and
    2^k >= lambda. explored counts the steps taken: to the halt on "accept"
    or "reject", and until the repeat is seen on "loop".
    The run steps zipped configurations of a TapeStore through the spec's
    step table, lowered once (after an accepting start has returned), so a
    step costs O(1) time and memory whatever the tape length.
    """
    if not spec.deterministic:
        raise ValueError("det_behavior_oracle requires a deterministic machine")
    if max_steps < 0 or max_cells < 0:
        raise ValueError("max_steps and max_cells must be >= 0")
    accept = spec.accept_states
    if spec.start_state in accept:
        return OracleVerdict("accept", 0)
    store = TapeStore(spec.num_symbols)
    rows, step, size = store.lower(spec), store.successors, store.size
    z = (spec.start_state, 0, 0)
    saved, steps, power = None, 0, 1
    while True:
        if z[0] in accept:
            return OracleVerdict("accept", steps)
        if z == saved:
            return OracleVerdict("loop", steps)
        steps += 1
        if steps > max_steps + 1 or size[z[1]] > max_cells:
            return closed_ngram_proof(spec, "loop") or OracleVerdict("unresolved", steps)
        if steps == power:
            saved, power = z, 2 * power
        succs = step(rows, z)
        if not succs:
            return OracleVerdict("reject", steps)
        z = succs[0]


NGRAM_SIZES = (1, 2, 3)  # the window sizes closed_ngram_proof tries, in order


def closed_ngram_proof(spec: MachineSpec, kind: str) -> OracleVerdict:
    """A certified `kind` verdict from a closed n-gram set, or None if no
    set with n in NGRAM_SIZES closes.

    kind "not-reached": no run from the blank tape enters the target state.
    Stuck moves and missing transitions just end a branch.
    kind "loop": no run halts, where entering an accept state, a missing
    transition and a stuck left move all halt. On a deterministic machine
    that is an infinite run.

    This is the n-gram closed position set decider of the bbchallenge
    Collaboration (2025, "Determination of the fifth Busy Beaver value"),
    sound as an abstract interpretation (Cousot & Cousot 1977). A window is
    (state, head cell, n cells left of the head, n cells right of it),
    nearest first. Left of cell 0 it holds WALL; past the end of the
    canonical tape it holds END, which therefore only ends a window. Two
    sets hold n-grams of the left and right half-tapes. A pass walks the
    windows reachable from the blank start with both sets frozen; the sets
    are closed if every n-gram it pushes is in them. Then, by induction over
    a run, every reachable configuration's window is walked, and every
    n-gram of its two half-tapes, at any offset, is in the sets:
    - The blank start's window is (q0, blank, WALL^n, END^n).
    - A write of b sets the head cell to b and keeps the left half. It
      erases the right half, whose window becomes END^n. Writing blank also
      strips trailing blanks, but cells past the end read blank anyway.
    - A right move pushes the head cell onto the left half: its one new
      n-gram is the head cell then the first n-1 of the left window. The new
      head cell is the right window's first (blank for END). The new right
      window is the old right half's n-gram at offset 1, so it is one of the
      set's n-grams extending the old window's last n-1 cells; the pass
      pulls in every such n-gram.
    - A left move is stuck iff the left window starts with WALL. Otherwise
      it pushes the head cell onto the right half (as END if it is blank in
      front of END, since a trailing blank is no cell) and pulls in the new
      left window the same way.
    So if no walked window is in the target state (or halts), no run enters
    it (or halts), at any cell cap.
    The proof repeats check_certificate's pass from {WALL^n} and {END^n},
    each time adding what it pushed, until it pushes no new n-gram (Kleene
    iteration). So check_certificate accepts every certificate it returns,
    and its sets are the least closed ones. A set holds at most (S+1)^n
    n-grams and a pass walks at most states * (S+2)^(2n+1) windows, so it
    always ends. The verdict's explored count is the last pass's number of
    windows.
    """
    _check_kind(spec, kind)
    for n in NGRAM_SIZES:
        left, right = frozenset({(WALL,) * n}), frozenset({(END,) * n})
        while (walked := _ngram_pass(spec, kind, n, left, right)) is not None:
            windows, pushed_left, pushed_right = walked
            if pushed_left <= left and pushed_right <= right:
                return OracleVerdict(kind, windows, certificate=Certificate(n, left, right))
            left, right = left | pushed_left, right | pushed_right
    return None


def check_certificate(spec: MachineSpec, kind: str, certificate: Certificate) -> bool:
    """Whether the certificate proves the `kind` verdict for spec, as
    closed_ngram_proof's argument needs: its n-grams are n cells long over
    the machine's symbols (and WALL on the left, END on the right), it holds
    WALL^n and END^n, and one pass with both sets frozen walks no target (or
    halting) window and pushes no n-gram outside them.
    """
    _check_kind(spec, kind)
    n, left, right = certificate
    if not isinstance(n, int) or n < 1:
        return False
    symbols = range(spec.num_symbols)
    for found, pad in ((left, WALL), (right, END)):
        if (pad,) * n not in found:
            return False
        for gram in found:
            if len(gram) != n or not all(x == pad or x in symbols for x in gram):
                return False
    left, right = frozenset(left), frozenset(right)
    walked = _ngram_pass(spec, kind, n, left, right)
    return walked is not None and walked[1] <= left and walked[2] <= right


def _check_kind(spec: MachineSpec, kind: str):
    if kind not in ("not-reached", "loop"):
        raise ValueError(f"a closed n-gram set proves 'not-reached' or 'loop', not {kind!r}")
    if kind == "not-reached" and spec.target_state is None:
        raise ValueError("a not-reached proof needs a declared target state")


def _ngram_pass(spec: MachineSpec, kind: str, n: int, left: frozenset, right: frozenset):
    """One pass of the abstract search with the n-gram sets left and right
    frozen: (number of windows reachable from the blank start, n-grams pushed
    onto the left half, n-grams pushed onto the right half), or None if a
    window is in the target state (kind "not-reached") or halts (kind "loop").
    A move pulls its new window from the set on the side it moves towards."""
    halting = kind == "loop"
    stop = spec.accept_states if halting else (spec.target_state,)
    ends = (END,) * n
    extend = ({}, {})  # per set: an (n-1)-cell prefix -> last cells of its n-grams
    for index, grams in zip(extend, (left, right)):
        for gram in grams:
            index.setdefault(gram[:-1], []).append(gram[-1])
    pushes = (set(), set())
    start = (spec.start_state, BLANK, (WALL,) * n, ends)
    seen = {start}
    todo = [start]
    while todo:
        state, cell, lw, rw = todo.pop()
        if state in stop:
            return None
        moves = spec.transitions.get((state, cell), ())
        if halting and not moves:
            return None
        for action, nxt in moves:
            if isinstance(action, MoveRight):
                # push the head cell onto the left half, pull the right window
                pushed = (cell,) + lw[:-1]
                pushes[0].add(pushed)
                head = BLANK if rw[0] == END else rw[0]
                new = [(nxt, head, pushed, rw[1:] + (last,)) for last in extend[1].get(rw[1:], ())]
            elif isinstance(action, MoveLeft):
                if lw[0] == WALL:  # stuck at cell 0
                    if halting:
                        return None
                    continue
                pushed = (END if cell == BLANK and rw[0] == END else cell,) + rw[:-1]
                pushes[1].add(pushed)
                new = [(nxt, lw[0], lw[1:] + (last,), pushed) for last in extend[0].get(lw[1:], ())]
            else:
                new = [(nxt, action.symbol, lw, ends)]
            for w in new:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
    return len(seen), *pushes


def read_only_oracle(spec: MachineSpec, input_symbols) -> OracleVerdict:
    """Exact simulation of a deterministic read-only machine on an input of
    length n. It steps `successors` on tuple configurations, and a repeated
    one is a proven loop; so is reaching cell n + N, for N states. Cells >= n
    are blank, so from the last visit to cell n before that, the walk
    depends only on its state. Of its N + 1 states there and at its first
    arrivals at cells n+1, ..., n+N, two are equal, at cells n+i < n+j; the
    stretch between them never goes left of cell n, so it repeats j - i
    cells further right, forever. So a run that halts never passes cell
    n + N - 1. Below cell n + N the run has finitely many configurations, so
    one that neither halts nor gets there becomes periodic, and Brent's rule
    (1980), as in det_behavior_oracle, sees the repeat: after fewer than 3s
    steps if the first repeat comes after s, holding one configuration. So
    the simulation always ends. explored counts the steps taken: to the
    halt, or until the loop is seen.
    """
    if not spec.deterministic:
        raise ValueError("read_only_oracle requires a deterministic machine")
    if not spec.read_only:
        raise ValueError("read_only_oracle requires a read-only machine")
    input_symbols = check_input(spec, input_symbols)
    far = len(input_symbols) + spec.num_states  # cell n + N
    accept = spec.accept_states
    c = Configuration(spec.start_state, 0, canonical_tape(input_symbols))
    saved, steps, power = None, 0, 1
    while True:
        if c.state in accept:
            return OracleVerdict("accept", steps)
        if c.head >= far or c == saved:
            return OracleVerdict("loop", steps)
        succs = successors(spec, c)
        if not succs:
            return OracleVerdict("reject", steps)
        steps += 1
        if steps == power:
            saved, power = c, 2 * power
        c = succs[0]
