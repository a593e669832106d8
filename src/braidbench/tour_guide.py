"""Crossing-summary ("tour guide") deciders for braidlike machines.

A tour guide sits at the boundary between cells i and i+1 and answers, for
a head arriving at cell i in state q, what the leftward excursion will do:
come back to cell i+1 in some state, accept, reject, loop forever, or (for
writing machines) "destroy me" — a write at some cell <= i will happen
before the head crosses the boundary rightward again. A guide is a function
of its left neighbor and the one symbol it stands over, which is what makes
the deciders below work.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .braidlike_tm import (
    BLANK,
    MachineSpec,
    MoveLeft,
    MoveRight,
    Write,
    check_input,
    symbol_at,
    write_tape,
)
from .oracle_sim import OracleVerdict, reach_bfs


class GuideInvariantError(RuntimeError):
    """A runtime check on the guide machinery failed (internal error)."""


class Response(Enum):
    """A guide's answers other than ReturnInState, which carries the state
    of the next rightward crossing. The values of ACCEPT, REJECT and
    LOOP_FOREVER are the deciders' verdict strings."""

    ACCEPT = "accept"
    REJECT = "reject"
    LOOP_FOREVER = "loop"
    DESTROY_ME = "destroy-me"


ACCEPT, REJECT, LOOP_FOREVER, DESTROY_ME = Response


@dataclass(frozen=True)
class ReturnInState:
    state: int


@dataclass(frozen=True)
class TourGuide:
    answers: tuple  # indexed by state
    creation_state: int = None


def det_guide_bound(n_states: int) -> int:
    """Number of distinct deterministic tour guides: (N+4)^N * N."""
    if n_states < 1:
        raise ValueError("need at least one state")
    return (n_states + 4) ** n_states * n_states


def nondet_guide_bound(n_states: int) -> int:
    """Number of distinct nondeterministic tour guides:
    (2^(N+4))^N response-set maps, times N creation states, times N+1
    destinies (survive forever, or destroyed with one of N last-right states).
    """
    if n_states < 1:
        raise ValueError("need at least one state")
    return (2 ** (n_states + 4)) ** n_states * n_states * (n_states + 1)


def default_cell_cap(spec: MachineSpec) -> int:
    """The applicable guide bound plus one cell: the nondeterministic bound
    for a machine with a target state, the deterministic bound otherwise.
    decide_reachability and the btm-reach and btm-oracle commands default
    to it."""
    bound = nondet_guide_bound if spec.target_state is not None else det_guide_bound
    return bound(spec.num_states) + 1


def compute_guide(left, cell_symbol: int, spec: MachineSpec, creation_state: int = None) -> TourGuide:
    """Summarize the boundary whose left cell holds cell_symbol.

    left is the guide one boundary further left, or None at the wall. For
    each state the local walk sits at the left cell: a right move returns;
    an enabled write destroys this guide (the write lands at or left of her
    cell); a left move defers to the left guide, whose DestroyMe propagates
    (the destroying write is strictly left of here, so it takes this guide
    out too). A repeated local state is a proven loop; the walk is bounded
    by N steps per state because any write ends it immediately, so the cell
    symbol is constant throughout.
    """
    if not spec.deterministic:
        raise ValueError("compute_guide requires a deterministic machine")
    answers = []
    for q in range(spec.num_states):
        cur = q
        seen = set()
        while True:
            if cur in spec.accept_states:
                answers.append(ACCEPT)
                break
            if cur in seen:
                answers.append(LOOP_FOREVER)
                break
            seen.add(cur)
            succs = spec.transitions.get((cur, cell_symbol), ())
            if not succs:
                answers.append(REJECT)
                break
            action, nxt = succs[0]
            if isinstance(action, MoveRight):
                answers.append(ReturnInState(nxt))
                break
            if isinstance(action, Write):
                answers.append(DESTROY_ME)
                break
            # MoveLeft
            if left is None:
                answers.append(REJECT)  # stuck at the left endpoint
                break
            r = left.answers[nxt]
            if isinstance(r, ReturnInState):
                cur = r.state
                continue
            answers.append(r)  # ACCEPT / REJECT / LOOP_FOREVER / DESTROY_ME
            break
    return TourGuide(tuple(answers), creation_state)


def decide_read_only(spec: MachineSpec, input_symbols) -> str:
    """Decide a deterministic read-only machine on an input.

    Guides are built left to right over the input, then over the blank
    suffix. Once at cell i in state q, the guide over cell i answers for the
    whole excursion at cells <= i, so the summarized head only ever moves
    right. Over blanks the guides are an iterated map on a finite set, so a
    repeated (guide, state) pair closes the computation as a loop.
    Returns "accept" | "reject" | "loop".
    """
    if not spec.deterministic:
        raise ValueError("decide_read_only requires a deterministic machine")
    if not spec.read_only:
        raise ValueError("decide_read_only requires a read-only machine")
    input_symbols = check_input(spec, input_symbols)
    n = len(input_symbols)
    state = spec.start_state
    left = None
    cell = 0
    seen_blank = set()
    while True:
        if state in spec.accept_states:
            return "accept"
        sym = input_symbols[cell] if cell < n else BLANK
        guide = compute_guide(left, sym, spec)
        if cell >= n:
            key = (guide.answers, state)
            if key in seen_blank:
                return "loop"
            seen_blank.add(key)
        r = guide.answers[state]
        if isinstance(r, ReturnInState):
            state = r.state
            left = guide
            cell += 1
            continue
        if r is DESTROY_ME:
            raise GuideInvariantError("DestroyMe answer from a read-only machine")
        return r.value


def decide_det_braidlike(spec: MachineSpec) -> str:
    """Decide the blank-tape behavior of a deterministic braidlike machine.

    Simulates with a chain of alive guides, one per boundary the head has
    crossed. Rightward moves mint a guide; leftward moves consult the guide
    at the crossed boundary, dropping to concrete simulation only on a
    DestroyMe answer. A write at cell j truncates tape and chain at j.
    LoopForever is concluded on a freshly minted guide equal to an alive
    one, or on an exact repeat of (configuration, chain).

    Always terminates. Alive guides are distinct, so the chain holds at most
    det_guide_bound guides; the head never passes the end of the chain
    (head <= len(chain), checked every step), so head and tape stay within
    det_guide_bound + 1 cells and the set of (configuration, chain) keys is
    finite. Returns "accept" | "reject" | "loop".
    """
    if not spec.deterministic:
        raise ValueError("decide_det_braidlike requires a deterministic machine")
    state, head, tape = spec.start_state, 0, ()
    chain = []  # chain[k] guards boundary (k, k+1)
    alive = set()
    visited = set()
    while True:
        if state in spec.accept_states:
            return "accept"
        if head > len(chain):
            raise GuideInvariantError("head beyond the end of the guide chain")
        key = (state, head, tape, tuple(chain))
        if key in visited:
            return "loop"
        visited.add(key)
        sym = symbol_at(tape, head)
        succs = spec.transitions.get((state, sym), ())
        if not succs:
            return "reject"
        action, nxt = succs[0]
        if isinstance(action, MoveLeft):
            if head == 0:
                return "reject"  # stuck at the left endpoint
            r = chain[head - 1].answers[nxt]
            if isinstance(r, ReturnInState):
                state = r.state  # summarized round trip; head stays put
            elif r is DESTROY_ME:  # proceed as if the guide didn't exist
                state, head = nxt, head - 1
            else:
                return r.value
        elif isinstance(action, MoveRight):
            if head < len(chain):
                # A guide promised destruction before this crossing.
                raise GuideInvariantError("destroy-me prophecy violated by a rightward crossing")
            guide = compute_guide(chain[-1] if chain else None, sym, spec, creation_state=nxt)
            if guide in alive:
                return "loop"  # two identical guides: the stretch between them repeats forever
            chain.append(guide)
            alive.add(guide)
            state, head = nxt, head + 1
        else:  # Write
            tape = write_tape(tape, head, action.symbol)
            for g in chain[head:]:
                alive.discard(g)
            del chain[head:]
            state = nxt


def decide_reachability(spec: MachineSpec, cell_cap: int = None, max_explored: int = None) -> OracleVerdict:
    """Decide whether the machine can reach its target state.

    Explicit-state BFS (reach_bfs) over canonical configurations, capped by
    default at default_cell_cap(spec), the nondeterministic guide bound plus
    one cell. The exactness of that default rests on the paper's bound on
    nondeterministic tour guides: a run reaching the target exists iff one
    exists whose head stays under the guide-count cap. This package computes
    no nondeterministic guides, so it does not check that bound itself.
    """
    if cell_cap is None:
        cell_cap = default_cell_cap(spec)
    return reach_bfs(spec, cell_cap, max_explored=max_explored)
