"""Brute-force baselines for the tour-guide deciders.

These compute no crossing summaries, so agreement with the deciders is a
genuine cross-check. read_only_oracle steps `successors`, the step relation
on tuple configurations, which writes only through `apply_action`; reach_bfs
and det_behavior_oracle, like decide_det_braidlike, step TapeStore's mirror
of it on zipped tapes, which a lockstep test pins to `apply_action`.
closed_ngram_proof is a sound abstract search that certifies the negative
verdicts ("not-reached", "loop") at any cell cap; check_certificate replays
its certificates.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .braidlike_tm import (
    BLANK,
    Configuration,
    MachineSpec,
    MoveLeft,
    MoveRight,
    TapeStore,
    Write,
    apply_action,
    canonical_tape,
    check_input,
    successors,
)


class SearchBudgetExceeded(RuntimeError):
    """Raised when an explicit search outgrows its explored-node budget."""


# How many configurations (or nodes) an explicit search may explore before it
# raises SearchBudgetExceeded: the default max_explored of reach_bfs,
# game_search and decide_reachability, and of the CLI's --max-steps.
DEFAULT_BUDGET = 100_000


WALL = "wall"  # pads a left window past cell 0
END = "end"  # pads a right window past the end of the tape


class Certificate(NamedTuple):
    """A closed n-gram set: every n-gram that a reachable configuration's
    left or right half-tape can hold, nearest cell first."""

    n: int
    left: frozenset  # n-tuples of symbols, padded with WALL
    right: frozenset  # n-tuples of symbols, padded with END


@dataclass(frozen=True)
class OracleVerdict:
    kind: str  # "reached" | "not-reached" | "accept" | "reject" | "loop" | "unresolved" | "winnable" | "not-winnable"
    explored: int = 0  # configurations (or, with a certificate, windows) of the search that settled it
    witness: tuple = None  # trace of Configurations, start first
    cap_hit: bool = False  # True if any successor was discarded at the cell cap
    certificate: Certificate = None  # a closed n-gram set proving a negative verdict


def reach_bfs(spec: MachineSpec, cell_cap: int, max_explored: int = DEFAULT_BUDGET) -> OracleVerdict:
    """Breadth-first reachability of the target state from the blank tape.

    Configurations whose head or tape length exceeds cell_cap are discarded,
    which makes the search space finite. The "not-reached" verdict is exact
    only if the cap is at least the nondeterministic guide bound plus one;
    cap_hit reports whether any configuration was actually discarded. A
    search that would explore more than max_explored configurations raises
    SearchBudgetExceeded; pass a bigger int for a bigger search.
    The search keys and steps zipped configurations of a TapeStore, so each
    explored configuration costs O(1) time and memory whatever the length of
    its tape. The parents map, which also yields the witness, is the visited
    set; the witness is decoded into Configurations.
    """
    if spec.target_state is None:
        raise ValueError("reach_bfs needs a declared target state")
    if cell_cap < 1:
        raise ValueError("cell_cap must be >= 1")
    store = TapeStore(spec.num_symbols)
    size = store.size
    start = (spec.start_state, 0, 0)
    parents = {start: None}
    queue = deque([start])
    explored = 0
    cap_hit = False
    while queue:
        z = queue.popleft()
        explored += 1
        if explored > max_explored:
            raise SearchBudgetExceeded(f"reach_bfs exceeded {max_explored} configurations")
        if z[0] == spec.target_state:
            return OracleVerdict("reached", explored, _witness(store, parents, z), cap_hit)
        for succ in store.successors(spec, z):
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
    """Direct deterministic simulation with exact repeat detection.

    A repeated configuration proves an infinite loop. Entering an accept
    state accepts; a dead configuration or a stuck left move rejects.
    Once either budget is exceeded, closed_ngram_proof gets one try at
    proving that the run never halts: a certified "loop", or else
    "unresolved". Every step adds one
    configuration to the visited set, so its size is the step count plus one.
    The run keys and steps zipped configurations of a TapeStore, so a step
    costs O(1) time and memory whatever the tape length.
    """
    if not spec.deterministic:
        raise ValueError("det_behavior_oracle requires a deterministic machine")
    if max_steps < 0 or max_cells < 0:
        raise ValueError("max_steps and max_cells must be >= 0")
    store = TapeStore(spec.num_symbols)
    z = (spec.start_state, 0, 0)
    seen = set()
    while True:
        if z[0] in spec.accept_states:
            return OracleVerdict("accept", len(seen))
        if z in seen:
            return OracleVerdict("loop", len(seen))
        seen.add(z)
        if len(seen) > max_steps + 1 or store.size[z[1]] > max_cells:
            return closed_ngram_proof(spec, "loop") or OracleVerdict("unresolved", len(seen))
        succs = store.successors(spec, z)
        if not succs:
            return OracleVerdict("reject", len(seen))
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
    sets collect the n-grams of the left and right half-tapes, from
    {WALL^n} and {END^n}, and grow until they are closed. By induction over
    a run, every reachable configuration's window is visited, and every
    n-gram of its two half-tapes, at any offset, is in the sets:
    - The blank start's window is (q0, blank, WALL^n, END^n).
    - A write of b sets the head cell to b and keeps the left half. It
      erases the right half, whose window becomes END^n. Writing blank also
      strips trailing blanks, but cells past the end read blank anyway.
    - A right move pushes the head cell onto the left half. Its one new
      n-gram, the head cell then the first n-1 of the left window, is
      added. The new head cell is the right window's first (blank for END).
      The new right window is the old right half's n-gram at offset 1, so
      it is one of the set's n-grams extending the old window's last n-1
      cells; the search pulls in every such n-gram.
    - A left move is stuck iff the left window starts with WALL. Otherwise
      it pushes the head cell onto the right half (as END if it is blank in
      front of END, since a trailing blank is no cell), adds that n-gram,
      and pulls in the new left window the same way.
    So if no visited window is in the target state (or halts), no run
    enters it (or halts), at any cell cap. There are at most
    states * (S+2)^(2n+1) windows, so the search always ends. The verdict's
    explored count is the number of windows; check_certificate replays the
    certificate.
    """
    _check_kind(spec, kind)
    for n in NGRAM_SIZES:
        grams = ({(WALL,) * n}, {(END,) * n})
        windows = _close_ngrams(spec, kind, n, grams, grow=True)
        if windows is not None:
            left, right = grams
            return OracleVerdict(kind, windows, certificate=Certificate(n, frozenset(left), frozenset(right)))
    return None


def check_certificate(spec: MachineSpec, kind: str, certificate: Certificate) -> bool:
    """Whether the certificate proves the `kind` verdict for spec, as
    closed_ngram_proof's argument needs: its n-grams are n cells long over
    the machine's symbols (and WALL on the left, END on the right), it holds
    WALL^n and END^n, and one pass of the search with both sets frozen
    visits no target (or halting) window and pushes no n-gram outside them.
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
    return _close_ngrams(spec, kind, n, (set(left), set(right)), grow=False) is not None


def _check_kind(spec: MachineSpec, kind: str):
    if kind not in ("not-reached", "loop"):
        raise ValueError(f"a closed n-gram set proves 'not-reached' or 'loop', not {kind!r}")
    if kind == "not-reached" and spec.target_state is None:
        raise ValueError("a not-reached proof needs a declared target state")


def _close_ngrams(spec: MachineSpec, kind: str, n: int, grams: tuple, grow: bool):
    """The abstract search: the number of windows reachable from the blank
    start, or None if one is in the target state (kind "not-reached") or
    halts (kind "loop"), or, with grow False, pushes an n-gram missing from
    its set. grams is (left set, right set); with grow True every pushed
    n-gram is added to it, so the sets end closed. A move that pulls from a
    set waits on its prefix, and an n-gram added later wakes it."""
    halting = kind == "loop"
    stop = spec.accept_states if halting else (spec.target_state,)
    ends = (END,) * n
    extend = ({}, {})  # per set: an (n-1)-cell prefix -> last cells of its n-grams
    waiting = ({}, {})  # per set: a prefix -> the moves pulling an n-gram that extends it
    for index, found in zip(extend, grams):
        for gram in found:
            index.setdefault(gram[:-1], []).append(gram[-1])
    start = (spec.start_state, BLANK, (WALL,) * n, ends)
    seen = {start}
    todo = [start]

    def visit(side, state, cell, pushed, prefix, last):
        pulled = prefix + (last,)
        w = (state, cell, pulled, pushed) if side == 0 else (state, cell, pushed, pulled)
        if w not in seen:
            seen.add(w)
            todo.append(w)

    while todo:
        state, cell, left, right = todo.pop()
        if state in stop:
            return None
        moves = spec.transitions.get((state, cell), ())
        if halting and not moves:
            return None
        for action, nxt in moves:
            if isinstance(action, MoveRight):
                # pull the right window, push the head cell onto the left half
                side, prefix, head = 1, right[1:], BLANK if right[0] == END else right[0]
                pushed = (cell,) + left[:-1]
            elif isinstance(action, MoveLeft):
                if left[0] == WALL:  # stuck at cell 0
                    if halting:
                        return None
                    continue
                side, prefix, head = 0, left[1:], left[0]
                pushed = (END if cell == BLANK and right[0] == END else cell,) + right[:-1]
            else:
                w = (nxt, action.symbol, left, ends)
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
                continue
            into = 1 - side
            if pushed not in grams[into]:
                if not grow:
                    return None
                grams[into].add(pushed)
                extend[into].setdefault(pushed[:-1], []).append(pushed[-1])
                for move in waiting[into].get(pushed[:-1], ()):
                    visit(into, *move, pushed[-1])
            waiting[side].setdefault(prefix, []).append((nxt, head, pushed, prefix))
            for last in extend[side].get(prefix, ()):
                visit(side, nxt, head, pushed, prefix, last)
    return len(seen)


def read_only_oracle(spec: MachineSpec, input_symbols) -> OracleVerdict:
    """Exact simulation of a deterministic read-only machine on an input of
    length n. It steps `successors` on tuple configurations, and a repeated
    one is a proven loop; so is reaching cell n + N, for N states. Cells >= n
    are blank, so from the last visit to cell n before that, the walk
    depends only on its state. Of its N + 1 states there and at its first
    arrivals at cells n+1, ..., n+N, two are equal, at cells n+i < n+j; the
    stretch between them never goes left of cell n, so it repeats j - i
    cells further right, forever. So a run that halts never passes cell
    n + N - 1, and the simulation always ends. explored counts the steps.
    """
    if not spec.deterministic:
        raise ValueError("read_only_oracle requires a deterministic machine")
    if not spec.read_only:
        raise ValueError("read_only_oracle requires a read-only machine")
    input_symbols = check_input(spec, input_symbols)
    far = len(input_symbols) + spec.num_states  # cell n + N
    c = Configuration(spec.start_state, 0, canonical_tape(input_symbols))
    seen = set()
    while True:
        if c.state in spec.accept_states:
            return OracleVerdict("accept", len(seen))
        if c.head >= far or c in seen:
            return OracleVerdict("loop", len(seen))
        succs = successors(spec, c)
        if not succs:
            return OracleVerdict("reject", len(seen))
        seen.add(c)
        c = succs[0]
