"""Brute-force baselines for the tour-guide deciders.

These compute no crossing summaries, so agreement with the deciders is a
genuine cross-check. read_only_oracle steps `successors`, the step relation
on tuple configurations; reach_bfs and det_behavior_oracle step TapeStore's
mirror of it on zipped tapes, which a lockstep test pins to `successors`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .braidlike_tm import (
    Configuration,
    MachineSpec,
    TapeStore,
    canonical_tape,
    check_input,
    successors,
    write_tape,
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
        if max_explored is not None and explored > max_explored:
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
        head, tape = out[-1].head, out[-1].tape
        if store.size[left] == head:
            tape = write_tape(tape, head, store.car[right])
        out.append(Configuration(state, store.size[left], tape))
    return tuple(out)


def det_behavior_oracle(spec: MachineSpec, max_steps: int, max_cells: int) -> OracleVerdict:
    """Direct deterministic simulation with exact repeat detection.

    A repeated configuration proves an infinite loop. Entering an accept
    state accepts; a dead configuration or a stuck left move rejects.
    Exceeding either budget gives "unresolved". Every step adds one
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
            return OracleVerdict("unresolved", len(seen))
        succs = store.successors(spec, z)
        if not succs:
            return OracleVerdict("reject", len(seen))
        z = succs[0]


def read_only_oracle(spec: MachineSpec, input_symbols) -> OracleVerdict:
    """Exact simulation of a deterministic read-only machine on an input.

    Within the input region (head <= n+1) a repeated (state, head) pair is a
    proven loop. Beyond it the tape is uniformly blank, so the walk is
    input-independent: some state repeats within N steps, and the repeat's
    net head displacement settles the excursion. Displacement >= 0 means the
    head can never come back (the same cycle replays at equal-or-greater
    positions), so the machine loops; displacement < 0 means the head drifts
    back to the region boundary, so we simply keep stepping until it does.
    Always terminates. The run steps `successors` on tuple configurations;
    the tape never changes, so a configuration stands for its (state, head).
    """
    if not spec.deterministic:
        raise ValueError("read_only_oracle requires a deterministic machine")
    if not spec.read_only:
        raise ValueError("read_only_oracle requires a read-only machine")
    input_symbols = check_input(spec, input_symbols)
    n = len(input_symbols)
    c = Configuration(spec.start_state, 0, canonical_tape(input_symbols))
    seen = set()
    explored = 0
    while True:
        if c.state in spec.accept_states:
            return OracleVerdict("accept", explored)
        if c.head <= n + 1:
            if c in seen:
                return OracleVerdict("loop", explored)
            seen.add(c)
            # each blank excursion analyzes its state cycle afresh
            first_seen = {}
            drifting_home = False
        elif not drifting_home:
            if c.state in first_seen:
                if c.head >= first_seen[c.state]:
                    return OracleVerdict("loop", explored)
                drifting_home = True  # ride the leftward drift back to n+1
            else:
                first_seen[c.state] = c.head
        succs = successors(spec, c)
        if not succs:
            return OracleVerdict("reject", explored)
        c = succs[0]
        explored += 1
