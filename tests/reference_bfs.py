"""Independent tuple baselines for `reach_bfs` and `game_search`.

`tuple_reach_bfs` keys its visited map on tuple Configurations and steps
them with the public step relation `successors()`, so it shares neither the
tape store nor the zipper with `reach_bfs`. It searches in the same order,
so the verdict, the explored count, cap_hit and the witness must all match
exactly.

`tuple_run` simulates a deterministic machine on tuple Configurations
from an input, so a "loop" certificate can be held against a run that
halts (`tuple_halts`), and `read_only_oracle`'s verdicts and step counts
against a plain run.

`tuple_first_repeat` finds the step of the first repeated configuration
of a deterministic run with an exact visited set of tuple Configurations,
the rule `det_behavior_oracle` gave up for Brent's, so the step at which
the oracle sees a loop can be held against it.

`tuple_past_search` is the oracle for `game_search`'s verdicts: it steps
tuple Timelines with `tl_record` and unit left seeks `tl_seek(tl, -1, 1)`,
and keys its visited set on (snapshots[:cursor + 1], immune), the past
that `game_search`'s summary tables reason about, so the redo future a
queued Timeline carries is whichever its first path left. Wherever it
finishes within its budget, which defaults to `game_search`'s, its kind
must match `game_search`'s; it counts nodes where `game_search` counts
table entries, so the explored counts are not compared.

`tuple_game_search` steps whole tuple Timelines, redo future included,
with records and seeks of every delta up to the game's speed, both ways,
and keys on (snapshots, cursor, immune). It reaches the same pasts in
another order over more nodes, so its verdict must match, and when
neither wins its explored count is at least `tuple_past_search`'s.
"""

from collections import deque

from braidbench.braidlike_tm import Configuration, canonical_tape, start_configuration, successors
from braidbench.oracle_sim import DEFAULT_BUDGET, OracleVerdict, SearchBudgetExceeded
from braidbench.rewind_timeline import Timeline, tl_record, tl_seek


def tuple_reach_bfs(spec, cell_cap):
    start = start_configuration(spec)
    parents = {start: None}
    queue = deque([start])
    explored = 0
    cap_hit = False
    while queue:
        c = queue.popleft()
        explored += 1
        if c.state == spec.target_state:
            witness = []
            while c is not None:
                witness.append(c)
                c = parents[c]
            return OracleVerdict("reached", explored, tuple(reversed(witness)), cap_hit)
        for succ in successors(spec, c):
            if succ.head > cell_cap or len(succ.tape) > cell_cap:
                cap_hit = True
            elif succ not in parents:
                parents[succ] = c
                queue.append(succ)
    return OracleVerdict("not-reached", explored, None, cap_hit)


def tuple_run(spec, max_steps, input_symbols=()):
    """Run the deterministic machine for at most max_steps steps from the
    input: ("accept" or "reject", steps taken, the farthest cell the head
    reached), or None if it has not halted. It halts when it enters an
    accept state or has no successor (a missing transition or a stuck left
    move)."""
    c = Configuration(spec.start_state, 0, canonical_tape(input_symbols))
    peak = 0
    for steps in range(max_steps + 1):
        peak = max(peak, c.head)
        if c.state in spec.accept_states:
            return "accept", steps, peak
        succs = successors(spec, c)
        if not succs:
            return "reject", steps, peak
        c = succs[0]
    return None


def tuple_halts(spec, max_steps):
    """Whether the deterministic machine halts within max_steps steps from
    the blank tape."""
    return tuple_run(spec, max_steps) is not None


def tuple_first_repeat(spec, max_steps):
    """The step s at which the deterministic run from the blank tape first
    meets a configuration it met before, its preperiod plus its cycle
    length; None if the run halts or has not repeated within max_steps
    steps."""
    c = start_configuration(spec)
    seen = set()
    for steps in range(max_steps + 1):
        if c in seen:
            return steps
        if c.state in spec.accept_states:
            return None
        seen.add(c)
        succs = successors(spec, c)
        if not succs:
            return None
        c = succs[0]
    return None


def tuple_game_search(g, max_len, max_explored=DEFAULT_BUDGET):
    start = (Timeline((g.init_timed,), 0), g.init_immune)
    visited = {(start[0].snapshots, start[0].cursor, g.init_immune)}
    queue = deque([start])
    explored = 0
    while queue:
        tl, m = queue.popleft()
        explored += 1
        if explored > max_explored:
            raise SearchBudgetExceeded(f"tuple_game_search exceeded {max_explored} nodes")
        t = tl.snapshots[tl.cursor]
        if (m, t) in g.goal:
            return OracleVerdict("winnable", explored)
        nexts = []
        for m2, t2 in g.moves.get((m, t), ()):
            if len(tl.snapshots[: tl.cursor + 1]) + 1 <= max_len:
                nexts.append((tl_record(tl, t2), m2))
        for delta in range(-g.max_speed, g.max_speed + 1):
            if delta != 0:
                nexts.append((tl_seek(tl, delta, g.max_speed), m))
        for tl2, m2 in nexts:
            key = (tl2.snapshots, tl2.cursor, m2)
            if key not in visited:
                visited.add(key)
                queue.append((tl2, m2))
    return OracleVerdict("not-winnable", explored)


def tuple_past_search(g, max_len, max_explored=DEFAULT_BUDGET):
    start = Timeline((g.init_timed,), 0)
    visited = {(start.snapshots, g.init_immune)}
    queue = deque([(start, g.init_immune)])
    explored = 0
    while queue:
        tl, m = queue.popleft()
        explored += 1
        if explored > max_explored:
            raise SearchBudgetExceeded(f"tuple_past_search exceeded {max_explored} nodes")
        t = tl.snapshots[tl.cursor]
        if (m, t) in g.goal:
            return OracleVerdict("winnable", explored)
        nexts = []
        if tl.cursor + 2 <= max_len:
            nexts.extend((tl_record(tl, t2), m2) for m2, t2 in g.moves.get((m, t), ()))
        nexts.append((tl_seek(tl, -1, 1), m))  # at cursor 0 it stays put, a node already visited
        for tl2, m2 in nexts:
            key = (tl2.snapshots[: tl2.cursor + 1], m2)
            if key not in visited:
                visited.add(key)
                queue.append((tl2, m2))
    return OracleVerdict("not-winnable", explored)
