"""Undo/redo timelines and the encoding of a bounded game as a braidlike
Turing machine.

Recording a snapshot truncates the redo future — exactly the erase-right
write rule — and seeking moves a cursor without erasing anything. `Timeline`
is the tuple reference coding; `game_search` steps timelines as zipped tapes
of a TapeStore. The adapter turns a toy game (enumerated time-dependent and
time-immune state, player moves, bounded seek speed) into a nondeterministic
braidlike machine whose tape is the timeline, whose head is the cursor, and
whose target state fires when the goal holds. The encoding's reachability
search and `game_search` share the tape layer but not the search.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .braidlike_tm import BLANK, MachineSpec, MOVE_LEFT, MOVE_RIGHT, TapeStore, Write
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


@dataclass(frozen=True)
class GameSearchResult:
    kind: str  # "winnable" | "not-winnable"
    explored: int


def game_search(g: GameSpec, max_len: int, max_explored: int = None) -> GameSearchResult:
    """BFS over (immune state, timeline) pairs with timelines of at most
    max_len snapshots; the encoding is checked against it. It steps the
    TapeStore zipper: a node is a triple (immune, left, right), a record a
    move right and a write, a seek a run of unit moves clamped at both ends.
    Seek targets come in increasing cursor order, as tl_seek's deltas
    -s..-1, 1..s first reach them, so explored matches a tuple-Timeline BFS."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    sym = {t: i + 1 for i, t in enumerate(g.timed_states)}
    store = TapeStore(len(sym) + 1)
    apply, car, size = store.apply, store.car, store.size
    records = {(m, sym[t]): [(m2, Write(sym[t2])) for m2, t2 in outs] for (m, t), outs in g.moves.items()}
    goal = {(m, sym[t]) for m, t in g.goal}
    start = (g.init_immune, 0, store.cons(sym[g.init_timed], 0))
    visited = {start}
    queue = deque([start])
    explored = 0
    while queue:
        z = queue.popleft()
        explored += 1
        if max_explored is not None and explored > max_explored:
            raise SearchBudgetExceeded(f"game_search exceeded {max_explored} nodes")
        m, left, right = z
        here = (m, car[right])
        if here in goal:
            return GameSearchResult("winnable", explored)
        nexts = [apply(apply(z, MOVE_RIGHT, m2), write, m2) for m2, write in records.get(here, ())
                 if size[left] + 2 <= max_len]
        seek, lefts = z, []
        for _ in range(min(g.max_speed, size[left])):
            seek = apply(seek, MOVE_LEFT, m)
            lefts.append(seek)
        nexts += reversed(lefts)
        seek = z
        for _ in range(min(g.max_speed, size[right] - 1)):
            seek = apply(seek, MOVE_RIGHT, m)
            nexts.append(seek)
        for z2 in nexts:
            if z2 not in visited:
                visited.add(z2)
                queue.append(z2)
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
