"""Crossing-summary ("tour guide") deciders for braidlike machines.

A tour guide sits at the boundary between cells i and i+1 and answers, for
a head arriving at cell i in state q, what the leftward excursion will do:
come back to cell i+1 in some state, accept, reject, loop forever, or (for
writing machines) "destroy me" — a write at some cell <= i will happen
before the head crosses the boundary rightward again. A guide is a function
of its left neighbor and the one symbol it stands over, which is what makes
the deciders below work.

decide_det_braidlike is the one deterministic guide walk: on a read-only
machine and an input it is Shepherdson's (1959) crossing-sequence
construction, and DESTROY_ME extends it to writing machines on the blank tape.
It steps TapeStore's zipper through the spec's lowered step table, as the
oracles do; its guides read only the spec, so the oracles check them
independently.
"""

from __future__ import annotations

from .braidlike_tm import (
    LEFT,
    RIGHT,
    MachineSpec,
    MoveRight,
    TapeStore,
    Write,
    canonical_tape,
    check_input,
)
from .oracle_sim import DEFAULT_BUDGET, OracleVerdict, closed_ngram_proof, reach_bfs


class GuideInvariantError(RuntimeError):
    """A runtime check on the guide machinery failed (internal error)."""


# A guide's answers other than an int, the state of the next rightward
# crossing. The first three are the deciders' verdict strings.
ACCEPT, REJECT, LOOP_FOREVER, DESTROY_ME = "accept", "reject", "loop", "destroy-me"


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


def nondet_guide_bound_bits(n_states: int) -> int:
    """The bit length of nondet_guide_bound(n_states), 2^(N(N+4)) times
    N(N+1), without building the bound, which has about N² bits."""
    if n_states < 1:
        raise ValueError("need at least one state")
    return n_states * (n_states + 4) + (n_states * (n_states + 1)).bit_length()


def default_cell_cap(spec: MachineSpec, budget: int = DEFAULT_BUDGET) -> int:
    """btm-oracle's default cell cap for a brute-force search of at most
    budget configurations: min(guide bound, budget) + 1, and at least 1,
    with the nondeterministic guide bound for a machine with a target state,
    the deterministic otherwise.

    No search within the budget reaches budget + 1 cells: a breadth-first
    search expands a configuration at depth d only after d others, and a
    step adds at most one cell. Both bounds exceed 2^N for N states, so once
    N reaches the bit length of budget + 1 the bound is past the budget, and
    it is not built.
    """
    n = spec.num_states
    if n >= (budget + 1).bit_length():
        bound = budget
    else:
        bound = det_guide_bound(n) if spec.target_state is None else nondet_guide_bound(n)
    return max(min(bound, budget), 0) + 1


def compute_guide(left, cell_symbol: int, spec: MachineSpec) -> tuple:
    """Summarize the boundary whose left cell holds cell_symbol: the answer
    for each entry state, as a tuple indexed by state.

    left is the guide one boundary further left, or None at the wall. For
    each state the local walk sits at the left cell: a right move returns
    the state it crosses in; an enabled write destroys this guide (the
    write lands at or left of her cell); a left move defers to the left
    guide, whose DESTROY_ME propagates (the destroying write is strictly
    left of here, so it takes this guide out too). A repeated local state
    is a proven loop; the walk is bounded by N steps per state because any
    write ends it immediately, so the cell symbol is constant throughout.
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
                answers.append(nxt)
                break
            if isinstance(action, Write):
                answers.append(DESTROY_ME)
                break
            # MoveLeft; at the wall it is stuck
            r = REJECT if left is None else left[nxt]
            if not isinstance(r, int):
                answers.append(r)  # ACCEPT / REJECT / LOOP_FOREVER / DESTROY_ME
                break
            cur = r
    return tuple(answers)


def decide_det_braidlike(spec: MachineSpec, input_symbols=None) -> str:
    """Decide a deterministic braidlike machine on the blank tape, or a
    deterministic read-only machine on input_symbols.

    Simulates with a chain of alive guides, one per boundary the head has
    crossed, each kept with the state the head crossed it in. Rightward
    moves mint a guide; leftward moves consult the guide at the crossed
    boundary, dropping to concrete simulation only on a DESTROY_ME answer.
    A write at cell j truncates tape and chain at j. Each zipped TapeStore
    configuration the walk visits is one of the run, so a repeated one is a
    loop. So is a freshly minted (guide, crossing state) pair equal to an
    alive one when both were minted at cells at or past the input's end.
    That rule is sound only where everything right of both guides is blank:
    the head then crosses both boundaries in the same state, with the same
    summary to its left and the same blank tape to its right, so the
    stretch between them repeats forever.

    Always terminates. Alive pairs past the input are distinct, so the
    chain holds at most len(input) + det_guide_bound guides; the head never
    passes the end of the chain (checked every step), so the walk visits
    finitely many configurations. Returns "accept" | "reject" | "loop".
    """
    if not spec.deterministic:
        raise ValueError("decide_det_braidlike requires a deterministic machine")
    store = TapeStore(spec.num_symbols)
    rows = store.lower(spec)
    right = 0
    if input_symbols is not None:
        if not spec.read_only:
            raise ValueError("decide_det_braidlike on an input requires a read-only machine")
        for a in reversed(canonical_tape(check_input(spec, input_symbols))):
            right = store.cons(a, right)
    n = store.size[right]  # guides minted at cells >= n have only blanks to their right
    z = (spec.start_state, 0, right)
    chain = []  # chain[k] = (guide, crossing state) at boundary (k, k+1)
    alive = set()  # chain pairs minted at cells >= n
    visited = set()
    while True:
        state, left, right = z
        if state in spec.accept_states:
            return "accept"
        head = store.size[left]
        if head > len(chain):
            raise GuideInvariantError("head beyond the end of the guide chain")
        if z in visited:
            return "loop"
        visited.add(z)
        row = rows[state * store.num_symbols + store.car[right]]
        if not row:
            return "reject"
        op, _, nxt = row[0]
        if op == LEFT:
            if head == 0:
                return "reject"  # stuck at the left endpoint
            r = chain[head - 1][0][nxt]
            if isinstance(r, int):
                z = (r, left, right)  # summarized round trip; head and tape stay put
                continue
            if r != DESTROY_ME:
                return r
            # DESTROY_ME: step as if the guide didn't exist
        elif op == RIGHT:
            if head < len(chain):
                # A guide promised destruction before this crossing.
                raise GuideInvariantError("destroy-me prophecy violated by a rightward crossing")
            crossing = (compute_guide(chain[-1][0] if chain else None, store.car[right], spec), nxt)
            if head >= n:
                if crossing in alive:
                    return "loop"  # the stretch between the two equal pairs repeats forever
                alive.add(crossing)
            chain.append(crossing)
        else:  # WRITE
            alive.difference_update(chain[head:])
            del chain[head:]
        z = store.successors(rows, z)[0]


def decide_reachability(spec: MachineSpec, cell_cap: int = None, max_explored: int = DEFAULT_BUDGET) -> OracleVerdict:
    """Decide whether the machine can reach its target state.

    First closed_ngram_proof tries to prove the target unreachable at any
    cell cap, so it needs none; its "not-reached" verdict carries a
    certificate that check_certificate replays. Only when no proof closes
    does an explicit-state BFS (reach_bfs) over canonical configurations
    run, budgeted by max_explored: past it, it raises SearchBudgetExceeded.
    Its "reached" verdict carries a witness that replays through
    `successors`. Its cap defaults to max_explored + 1 cells, which no
    search within the budget reaches, so its "not-reached" is exhaustive:
    the search emptied its queue and discarded nothing (cap_hit is False).
    Only a cell_cap below max_explored can cut the search, and cap_hit
    says whether it did.
    """
    if cell_cap is not None and cell_cap < 1:
        raise ValueError("cell_cap must be >= 1")
    return closed_ngram_proof(spec, "not-reached") or reach_bfs(
        spec, max(max_explored, 0) + 1 if cell_cap is None else cell_cap, max_explored=max_explored)
