"""Independent tuple baselines for `reach_bfs` and `game_search`.

`tuple_reach_bfs` keys its visited map on tuple Configurations and steps
them with the public step relation `successors()`, so it shares neither the
tape store nor the zipper with `reach_bfs`. It searches in the same order,
so the verdict, the explored count, cap_hit and the witness must all match
exactly.

`tuple_game_search` is the same kind of baseline for `game_search`: it
steps tuple Timelines with `tl_record` and `tl_seek` and keys its visited
set on (snapshots, cursor, immune), so the kind and the explored count must
match, and both must exceed the same budget.
"""

from collections import deque

from braidbench.braidlike_tm import start_configuration, successors
from braidbench.oracle_sim import OracleVerdict, SearchBudgetExceeded
from braidbench.rewind_timeline import GameSearchResult, Timeline, tl_record, tl_seek


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


def tuple_game_search(g, max_len, max_explored=None):
    start = (Timeline((g.init_timed,), 0), g.init_immune)
    visited = {(start[0].snapshots, start[0].cursor, g.init_immune)}
    queue = deque([start])
    explored = 0
    while queue:
        tl, m = queue.popleft()
        explored += 1
        if max_explored is not None and explored > max_explored:
            raise SearchBudgetExceeded(f"game_search exceeded {max_explored} nodes")
        t = tl.snapshots[tl.cursor]
        if (m, t) in g.goal:
            return GameSearchResult("winnable", explored)
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
    return GameSearchResult("not-winnable", explored)
