"""Undo/redo timelines and the encoding of a bounded game as a braidlike
Turing machine.

Recording a snapshot truncates the redo future — exactly the erase-right
write rule — and seeking moves a cursor without erasing anything. `Timeline`
is the tuple reference coding, with seeks bounded by a speed; like
`Configuration` it is a plain tuple, `(snapshots, cursor)`. The adapter
turns a toy game (enumerated time-dependent and time-immune state, player
moves) into a nondeterministic braidlike machine whose tape is the timeline,
whose head is the cursor, and whose target state fires when the goal holds.
`game_search` steps the same graph on interned lists of a TapeStore. Both
make only left seeks, one cell at a time: a record leaves the cursor at the
timeline's end and seeking leaves the immune state alone, so a seek of any
speed, in either direction, lands where left seeks from the end do, and the
seek speed changes no verdict. Nothing then reads a snapshot right of the
cursor before a record erases it: the redo future is dead state, and a
timeline under left seeks is a stack of the snapshots up to the cursor,
which a record pushes and a seek pops. `game_search` keys its nodes on that
stack alone. The encoding's reachability search and `game_search` share the
tape layer but not the search.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .braidlike_tm import (BLANK, FieldError, MachineSpec, MOVE_LEFT, MOVE_RIGHT, ParseError, TapeStore, Write,
                           directives, is_digits)
from .oracle_sim import DEFAULT_BUDGET, OracleVerdict, SearchBudgetExceeded


class GameParseError(ParseError):
    pass


class _Timeline(NamedTuple):
    snapshots: tuple  # snapshot i = world state at timestep i; never empty
    cursor: int


class Timeline(_Timeline):
    """A plain tuple (snapshots, cursor), like `Configuration`. Calling
    `Timeline` checks that a snapshot is held and the cursor is on one;
    `_replace` skips the checks."""

    __slots__ = ()

    def __new__(cls, snapshots, cursor):
        if not snapshots:
            raise ValueError("a timeline holds at least the initial snapshot")
        if not (0 <= cursor < len(snapshots)):
            raise ValueError("cursor out of range")
        return tuple.__new__(cls, (snapshots, cursor))


def tl_record(t: Timeline, state) -> Timeline:
    """Append a snapshot after the cursor, deleting the redo future."""
    snapshots, cursor = t
    # tuple.__new__ skips the constructor's checks, which a record always passes
    return tuple.__new__(Timeline, (snapshots[: cursor + 1] + (state,), cursor + 1))


def tl_seek(t: Timeline, delta: int, max_speed: int) -> Timeline:
    """Move the cursor by delta, clamped to the timeline. Snapshots are
    untouched: only recording erases."""
    if not -max_speed <= delta <= max_speed:
        raise ValueError(f"seek of {delta} exceeds max speed {max_speed}")
    snapshots, cursor = t
    cursor += delta
    last = len(snapshots) - 1
    # tuple.__new__ skips the constructor's checks, which a clamped cursor always passes
    return tuple.__new__(Timeline, (snapshots, 0 if cursor < 0 else last if cursor > last else cursor))


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
        """Raise FieldError on a malformed field; the initial pair's tag is
        ("init_immune", "init_timed"), a move's ("moves", (m, t), (m', t'))
        and a goal pair's ("goal", (m, t))."""
        if self.max_speed < 1:
            raise FieldError("max_speed", "max_speed must be >= 1")
        timed, immune = set(self.timed_states), set(self.immune_states)
        if len(timed) < len(self.timed_states) or len(immune) < len(self.immune_states):
            field = "timed_states" if len(timed) < len(self.timed_states) else "immune_states"
            raise FieldError(field, "a timed or immune state is listed twice")
        if self.init_timed not in timed or self.init_immune not in immune:
            raise FieldError(("init_immune", "init_timed"), "initial state outside the enumerations")
        for key, outs in self.moves.items():
            m, t = key
            if m not in immune or t not in timed:
                raise FieldError(("moves", key, *outs[:1]), f"move source ({m!r}, {t!r}) outside the enumerations")
            for out in outs:
                m2, t2 = out
                if m2 not in immune or t2 not in timed:
                    raise FieldError(("moves", key, out), f"move target ({m2!r}, {t2!r}) outside the enumerations")
        for pair in self.goal:
            m, t = pair
            if m not in immune or t not in timed:
                raise FieldError(("goal", pair), f"goal pair ({m!r}, {t!r}) outside the enumerations")


def game_search(g: GameSpec, max_len: int, max_explored: int = DEFAULT_BUDGET) -> OracleVerdict:
    """BFS over (immune state, timeline) pairs with timelines of at most
    max_len snapshots: "winnable" or "not-winnable", with the nodes explored.
    A search that would explore more than max_explored nodes raises
    SearchBudgetExceeded.
    Like the encoding, it reads neither max_speed nor the redo future: a
    record leaves the cursor at the end and seeking leaves the immune state
    alone, so any seek lands where left seeks from the end do, and a record
    erases the redo future before anything reads it. So a node is a pair
    (immune, past), where `past` is the interned TapeStore list of snapshots
    0..cursor, nearest first: a stack that a record pushes and a unit left
    seek pops. Timelines with equal pasts have the same successors apart
    from their redo futures, so merging them changes no verdict, and
    `explored` is at most that of a unit-seek BFS over whole timelines."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    sym = {t: i + 1 for i, t in enumerate(g.timed_states)}
    store = TapeStore(len(sym) + 1)
    cons, car, cdr, size = store.cons, store.car, store.cdr, store.size
    records = {(m, sym[t]): [(m2, sym[t2]) for m2, t2 in outs] for (m, t), outs in g.moves.items()}
    goal = {(m, sym[t]) for m, t in g.goal}
    start = (g.init_immune, cons(sym[g.init_timed], 0))
    visited = {start}
    queue = deque([start])
    explored = 0
    while queue:
        m, past = queue.popleft()
        explored += 1
        if explored > max_explored:
            raise SearchBudgetExceeded(f"game_search exceeded {max_explored} nodes")
        here = (m, car[past])
        if here in goal:
            return OracleVerdict("winnable", explored)
        moves = records.get(here)
        if moves and size[past] < max_len:
            for m2, s in moves:
                succ = (m2, cons(s, past))
                if succ not in visited:
                    visited.add(succ)
                    queue.append(succ)
        past = cdr[past]
        if past:
            succ = (m, past)
            if succ not in visited:
                visited.add(succ)
                queue.append(succ)
    return OracleVerdict("not-winnable", explored)


def build_braidlike_from_game(g: GameSpec) -> MachineSpec:
    """Encode the game as a nondeterministic braidlike machine.

    Tape symbols are the timed states (plus blank); head states are the
    immune states plus bookkeeping: a boot state that records the initial
    snapshot and record states that finish an action with an erase-right
    write. A main state seeks left one cell at a time, on any timed symbol.
    A record leaves the head at the timeline's end and seeking leaves the
    immune state alone, so every (immune, timeline, cursor) triple that
    seeks of any speed reach, in either direction, is a run of unit left
    seeks from the end: the machine needs no right seek and does not depend
    on max_speed. A left seek off cell 0 simply dies.
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
            add(mains[m], sym[t], MOVE_LEFT, mains[m])

    # dedupe (a move listed twice in the game adds its record transition twice)
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


# the game header keywords and the GameSpec fields they give
GAME_HEADERS = {"timed": "timed_states", "immune": "immune_states", "start": ("init_immune", "init_timed"),
                "speed": "max_speed"}


def parse_game(text: str) -> GameSpec:
    """Parse the game text format, read by `directives`; names keep their
    case.

    Header lines `timed <names...>`, `immune <names...>`, `start <immune>
    <timed>` and optional `speed <k>` (else GameSpec's default); `move
    <immune> <timed> <immune'> <timed'>` and `goal <immune> <timed>` lines.
    """
    fields = {}
    where = {}  # a GameSpec field tag -> the line that gave it
    moves = {}
    goal = set()
    for lineno, key, args in directives(text, GAME_HEADERS, where, GameParseError):
        if key == "move":
            if len(args) != 4:
                raise GameParseError(lineno, "expected `move <immune> <timed> <immune'> <timed'>`")
            source, out = tuple(args[:2]), tuple(args[2:])
            moves.setdefault(source, []).append(out)
            where["moves", source, out] = lineno
        elif key == "goal":
            if len(args) != 2:
                raise GameParseError(lineno, "expected `goal <immune> <timed>`")
            goal.add(tuple(args))
            where["goal", tuple(args)] = lineno
        elif key in ("timed", "immune"):
            fields[GAME_HEADERS[key]] = tuple(args)
        elif key == "start":
            if len(args) != 2:
                raise GameParseError(lineno, "expected `start <immune> <timed>`")
            fields["init_immune"], fields["init_timed"] = args
        elif key == "speed":
            if len(args) != 1 or not is_digits(args[0]):
                raise GameParseError(lineno, "expected `speed <k>`")
            fields["max_speed"] = int(args[0])
        else:
            raise GameParseError(lineno, f"unknown directive {key!r}")
    if not {"timed_states", "immune_states", "init_immune"} <= fields.keys():
        raise GameParseError(0, "missing `timed`, `immune`, or `start` line")
    try:
        return GameSpec(moves={k: tuple(v) for k, v in moves.items()}, goal=frozenset(goal), **fields)
    except FieldError as e:
        raise GameParseError(where.get(e.field, 0), str(e)) from None
