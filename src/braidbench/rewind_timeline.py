"""Undo/redo timelines and the encoding of a bounded game as a braidlike
Turing machine.

Recording a snapshot truncates the redo future — exactly the erase-right
write rule — and seeking moves a cursor without erasing anything. The
adapter turns a toy game (enumerated time-dependent and time-immune state,
player moves, bounded seek speed) into a nondeterministic braidlike machine
whose tape is the timeline, whose head is the cursor, and whose target
state fires when the goal holds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .braidlike_tm import BLANK, MachineSpec, MOVE_LEFT, MOVE_RIGHT, Write
from .oracle_sim import SearchBudgetExceeded


class GameParseError(ValueError):
    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class Timeline:
    snapshots: tuple  # snapshot i = world state at timestep i; never empty
    cursor: int

    def __post_init__(self):
        if not self.snapshots:
            raise ValueError("a timeline holds at least the initial snapshot")
        if not (0 <= self.cursor < len(self.snapshots)):
            raise ValueError("cursor out of range")


def tl_record(t: Timeline, state) -> Timeline:
    """Append a snapshot after the cursor, deleting the redo future."""
    snaps = t.snapshots[: t.cursor + 1] + (state,)
    return Timeline(snaps, t.cursor + 1)


def tl_seek(t: Timeline, delta: int, max_speed: int) -> Timeline:
    """Move the cursor by delta, clamped to the timeline. Snapshots are
    untouched: only recording erases."""
    if abs(delta) > max_speed:
        raise ValueError(f"seek of {delta} exceeds max speed {max_speed}")
    cursor = min(max(t.cursor + delta, 0), len(t.snapshots) - 1)
    return Timeline(t.snapshots, cursor)


@dataclass(frozen=True)
class GameSpec:
    timed_states: tuple  # tape alphabet (world state living inside time)
    immune_states: tuple  # head-state component (objects outside time)
    init_immune: object
    init_timed: object
    moves: dict  # (immune, timed) -> tuple of (immune', timed')
    goal: frozenset  # set of winning (immune, timed) pairs
    max_speed: int = 8

    def __post_init__(self):
        if self.max_speed < 1:
            raise ValueError("max_speed must be >= 1")
        timed, immune = set(self.timed_states), set(self.immune_states)
        if self.init_timed not in timed or self.init_immune not in immune:
            raise ValueError("initial state outside the enumerations")
        for (m, t), outs in self.moves.items():
            if m not in immune or t not in timed:
                raise ValueError(f"move source ({m!r}, {t!r}) outside the enumerations")
            for m2, t2 in outs:
                if m2 not in immune or t2 not in timed:
                    raise ValueError(f"move target ({m2!r}, {t2!r}) outside the enumerations")
        for m, t in self.goal:
            if m not in immune or t not in timed:
                raise ValueError(f"goal pair ({m!r}, {t!r}) outside the enumerations")


def initial_timeline(g: GameSpec) -> Timeline:
    return Timeline((g.init_timed,), 0)


@dataclass(frozen=True)
class GameSearchResult:
    kind: str  # "winnable" | "not-winnable"
    explored: int


def game_search(g: GameSpec, max_len: int, max_explored: int = None) -> GameSearchResult:
    """Direct BFS over (timeline, immune state) pairs, with the timeline
    length capped. The baseline the Turing-machine encoding is checked
    against."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    start = (initial_timeline(g), g.init_immune)
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


def build_braidlike_from_game(g: GameSpec) -> MachineSpec:
    """Encode the game as a nondeterministic braidlike machine.

    Tape symbols are the timed states (plus blank); head states are the
    immune states plus bookkeeping: a boot state that records the initial
    snapshot, record states that finish an action with an erase-right
    write, and hop states that unroll a speed-k seek into k unit moves.
    A branch that seeks past either end of the timeline simply dies; the
    clamped outcome is always covered by a shorter exact seek.
    """
    if len(g.timed_states) * len(g.immune_states) > 2 ** 16:
        raise ValueError("game enumerations too large to materialize")
    sym = {t: i + 1 for i, t in enumerate(g.timed_states)}
    num_symbols = len(g.timed_states) + 1

    states = {}

    def st(key):
        if key not in states:
            states[key] = len(states)
        return states[key]

    boot = st("boot")
    target = st("target")
    mains = {m: st(("main", m)) for m in g.immune_states}

    def hop(direction, m, j):
        # j unit moves left to perform; hop 0 is just the main state
        return mains[m] if j == 0 else st((direction, m, j))

    transitions = {}

    def add(q, a, action, nxt):
        transitions.setdefault((q, a), []).append((action, nxt))

    first = target if (g.init_immune, g.init_timed) in g.goal else mains[g.init_immune]
    add(boot, BLANK, Write(sym[g.init_timed]), first)

    rec = {}
    for (m, t), outs in g.moves.items():
        for m2, t2 in outs:
            if (m2, t2) not in rec:
                rec[(m2, t2)] = st(("rec", m2, t2))
            add(mains[m], sym[t], MOVE_RIGHT, rec[(m2, t2)])
    for (m2, t2), q in rec.items():
        for a in range(num_symbols):  # the overwritten cell may hold anything
            add(q, a, Write(sym[t2]), mains[m2])

    for m in g.immune_states:
        for t in g.timed_states:
            if (m, t) in g.goal:
                add(mains[m], sym[t], Write(sym[t]), target)
            for k in range(1, g.max_speed + 1):
                add(mains[m], sym[t], MOVE_RIGHT, hop("hopR", m, k - 1))
                add(mains[m], sym[t], MOVE_LEFT, hop("hopL", m, k - 1))
    for m in g.immune_states:
        for j in range(1, g.max_speed):
            for t in g.timed_states:
                add(st(("hopR", m, j)), sym[t], MOVE_RIGHT, hop("hopR", m, j - 1))
                add(st(("hopL", m, j)), sym[t], MOVE_LEFT, hop("hopL", m, j - 1))

    # dedupe (speed-1 and speed-2 right seeks from the same key coincide, etc.)
    transitions = {k: tuple(dict.fromkeys(v)) for k, v in transitions.items()}
    return MachineSpec(
        num_states=len(states),
        num_symbols=num_symbols,
        start_state=boot,
        accept_states=frozenset(),
        transitions=transitions,
        target_state=target,
        deterministic=False,
    )


def parse_game(text: str) -> GameSpec:
    """Parse the game text format.

    `#` comments; `timed <names...>`; `immune <names...>`;
    `start <immune> <timed>`; optional `speed <k>` (default 8);
    `move <immune> <timed> <immune'> <timed'>`; `goal <immune> <timed>`.
    """
    timed = immune = start = None
    speed = 8
    moves = {}
    goal = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        key = words[0].lower()
        if key == "timed":
            timed = tuple(words[1:])
        elif key == "immune":
            immune = tuple(words[1:])
        elif key == "start":
            if len(words) != 3:
                raise GameParseError(lineno, "expected `start <immune> <timed>`")
            start = (words[1], words[2])
        elif key == "speed":
            if len(words) != 2 or not words[1].isdecimal():
                raise GameParseError(lineno, "expected `speed <k>`")
            speed = int(words[1])
        elif key == "move":
            if len(words) != 5:
                raise GameParseError(lineno, "expected `move <immune> <timed> <immune'> <timed'>`")
            moves.setdefault((words[1], words[2]), []).append((words[3], words[4]))
        elif key == "goal":
            if len(words) != 3:
                raise GameParseError(lineno, "expected `goal <immune> <timed>`")
            goal.add((words[1], words[2]))
        else:
            raise GameParseError(lineno, f"unknown directive {key!r}")
    if timed is None or immune is None or start is None:
        raise GameParseError(0, "missing `timed`, `immune`, or `start` line")
    try:
        return GameSpec(
            timed_states=timed,
            immune_states=immune,
            init_immune=start[0],
            init_timed=start[1],
            moves={k: tuple(v) for k, v in moves.items()},
            goal=frozenset(goal),
            max_speed=speed,
        )
    except ValueError as e:
        raise GameParseError(0, str(e))
