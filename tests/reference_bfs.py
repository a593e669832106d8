"""An independent reachability baseline for `reach_bfs`.

It keys its visited map on tuple Configurations and steps them with the
public step relation `successors()`, so it shares neither the tape store nor
the zipper with `reach_bfs`. It searches in the same order, so the verdict,
the explored count, cap_hit and the witness must all match exactly.
"""

from collections import deque

from braidbench.braidlike_tm import start_configuration, successors
from braidbench.oracle_sim import OracleVerdict


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
