"""Brute-force baselines for the tour-guide deciders.

These use only the plain step functions from braidlike_tm (no crossing
summaries), so agreement with the deciders is a genuine cross-check.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .braidlike_tm import (
    BLANK,
    MachineSpec,
    MoveLeft,
    start_configuration,
    successors,
)


class SearchBudgetExceeded(RuntimeError):
    """Raised when an explicit search outgrows its explored-node budget."""


@dataclass(frozen=True)
class OracleVerdict:
    kind: str  # "reached" | "not-reached" | "accept" | "reject" | "loop" | "unresolved"
    explored: int = 0
    witness: tuple = None  # trace of Configurations, start first
    cap_hit: bool = False  # True if any successor was discarded at the cell cap


def reach_bfs(spec: MachineSpec, cell_cap: int, max_explored: int = None) -> OracleVerdict:
    """Breadth-first reachability of the target state from the blank tape.

    Configurations whose head or tape length exceeds cell_cap are discarded,
    which makes the search space finite. The "not-reached" verdict is exact
    only if the cap is at least the nondeterministic guide bound plus one;
    cap_hit reports whether any configuration was actually discarded.
    The parents map, which also yields the witness, is the visited set.
    """
    if spec.target_state is None:
        raise ValueError("reach_bfs needs a declared target state")
    if cell_cap < 1:
        raise ValueError("cell_cap must be >= 1")
    start = start_configuration(spec)
    parents = {start: None}
    queue = deque([start])
    explored = 0
    cap_hit = False

    def trace(c):
        out = []
        while c is not None:
            out.append(c)
            c = parents[c]
        return tuple(reversed(out))

    while queue:
        c = queue.popleft()
        explored += 1
        if max_explored is not None and explored > max_explored:
            raise SearchBudgetExceeded(f"reach_bfs exceeded {max_explored} configurations")
        if c.state == spec.target_state:
            return OracleVerdict("reached", explored, trace(c), cap_hit)
        for succ in successors(spec, c):
            if succ.head > cell_cap or len(succ.tape) > cell_cap:
                cap_hit = True
                continue
            if succ not in parents:
                parents[succ] = c
                queue.append(succ)
    return OracleVerdict("not-reached", explored, None, cap_hit)


def det_behavior_oracle(spec: MachineSpec, max_steps: int, max_cells: int) -> OracleVerdict:
    """Direct deterministic simulation with exact repeat detection.

    A repeated configuration proves an infinite loop. Entering an accept
    state accepts; a dead configuration or a stuck left move rejects.
    Exceeding either budget gives "unresolved". Every step adds one
    configuration to the visited set, so its size is the step count plus one.
    """
    if not spec.deterministic:
        raise ValueError("det_behavior_oracle requires a deterministic machine")
    c = start_configuration(spec)
    seen = set()
    while True:
        if c.state in spec.accept_states:
            return OracleVerdict("accept", len(seen))
        if c in seen:
            return OracleVerdict("loop", len(seen))
        seen.add(c)
        if len(seen) > max_steps + 1 or c.head > max_cells:
            return OracleVerdict("unresolved", len(seen))
        succs = successors(spec, c)
        if not succs:
            return OracleVerdict("reject", len(seen))
        c = succs[0]


def read_only_oracle(spec: MachineSpec, input_symbols) -> OracleVerdict:
    """Exact simulation of a deterministic read-only machine on an input.

    Within the input region (head <= n+1) a repeated (state, head) pair is a
    proven loop. Beyond it the tape is uniformly blank, so the walk is
    input-independent: some state repeats within N steps, and the repeat's
    net head displacement settles the excursion. Displacement >= 0 means the
    head can never come back (the same cycle replays at equal-or-greater
    positions), so the machine loops; displacement < 0 means the head drifts
    back to the region boundary, so we simply keep stepping until it does.
    Always terminates.
    """
    if not spec.deterministic:
        raise ValueError("read_only_oracle requires a deterministic machine")
    if not spec.read_only:
        raise ValueError("read_only_oracle requires a read-only machine")
    input_symbols = tuple(input_symbols)
    for a in input_symbols:
        if not (0 <= a < spec.num_symbols):
            raise ValueError(f"input symbol {a} out of range")
    n = len(input_symbols)
    state, head = spec.start_state, 0
    seen = set()
    explored = 0

    def step(state, head):
        sym = input_symbols[head] if head < n else BLANK
        succs = spec.transitions.get((state, sym), ())
        if not succs:
            return None
        action, nxt = succs[0]
        if isinstance(action, MoveLeft):
            if head == 0:
                return None  # stuck at the wall
            return nxt, head - 1
        return nxt, head + 1

    while True:
        if state in spec.accept_states:
            return OracleVerdict("accept", explored)
        if head <= n + 1:
            if (state, head) in seen:
                return OracleVerdict("loop", explored)
            seen.add((state, head))
        else:
            # Blank excursion: analyze the state cycle once, then either
            # declare a loop or ride the leftward drift back to n+1.
            first_seen = {}
            drifting_home = False
            while head > n + 1:
                if state in spec.accept_states:
                    return OracleVerdict("accept", explored)
                if not drifting_home:
                    if state in first_seen:
                        if head >= first_seen[state]:
                            return OracleVerdict("loop", explored)
                        drifting_home = True
                    else:
                        first_seen[state] = head
                nxt = step(state, head)
                if nxt is None:
                    return OracleVerdict("reject", explored)
                state, head = nxt
                explored += 1
            continue  # back in the bounded region; recheck accept/visited
        nxt = step(state, head)
        if nxt is None:
            return OracleVerdict("reject", explored)
        state, head = nxt
        explored += 1
