"""Undo/redo timelines and the encoding of a bounded game as a braidlike
Turing machine.

Recording a snapshot truncates the redo future — exactly the erase-right
write rule — and seeking moves a cursor without erasing anything. `Timeline`
is the tuple reference coding, with seeks bounded by a speed; like
`Configuration` it is a plain tuple, `(snapshots, cursor)`. The adapter
turns a toy game (enumerated time-dependent and time-immune state, player
moves) into a nondeterministic braidlike machine whose tape is the timeline,
whose head is the cursor, and whose target state fires when the goal holds.
The machine makes only left seeks, one cell at a time: a record leaves the
cursor at the timeline's end and seeking leaves the immune state alone, so a
seek of any speed, in either direction, lands where left seeks from the end
do, and the seek speed changes no verdict. Nothing then reads a snapshot
right of the cursor before a record erases it: the redo future is dead
state, and a timeline under left seeks is a stack of the snapshots up to the
cursor, which a record pushes and a seek pops. `game_search` decides
winnability on that stack, as pushdown reachability with a bounded height,
by summary tables. It shares no code with the encoding's reachability
search.
"""

from __future__ import annotations

from collections import namedtuple
from heapq import heappop, heappush
from itertools import count
from typing import NamedTuple

from .braidlike_tm import (BLANK, FieldError, MachineSpec, MOVE_LEFT, MOVE_RIGHT, ParseError, Record, Write,
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


class GameSpec(Record, namedtuple("GameSpec", "timed_states immune_states init_immune init_timed moves goal "
                                              "max_speed")):
    """A toy game: timed_states is the tape alphabet, the world state
    living inside time, and immune_states the head-state component, the
    objects outside time; moves maps each (immune, timed) pair to a tuple
    of (immune', timed') pairs, and goal is the frozenset of winning
    (immune, timed) pairs. The constructor raises FieldError on a
    malformed field; the initial pair's tag is ("init_immune",
    "init_timed"), a move's ("moves", (m, t), (m', t')) and a goal pair's
    ("goal", (m, t))."""

    __slots__ = ()

    def __new__(cls, timed_states, immune_states, init_immune, init_timed, moves, goal, max_speed=8):
        if max_speed < 1:
            raise FieldError("max_speed", "max_speed must be >= 1")
        timed, immune = set(timed_states), set(immune_states)
        if len(timed) < len(timed_states) or len(immune) < len(immune_states):
            field = "timed_states" if len(timed) < len(timed_states) else "immune_states"
            raise FieldError(field, "a timed or immune state is listed twice")
        if init_timed not in timed or init_immune not in immune:
            raise FieldError(("init_immune", "init_timed"), "initial state outside the enumerations")
        for key, outs in moves.items():
            m, t = key
            if m not in immune or t not in timed:
                raise FieldError(("moves", key, *outs[:1]), f"move source ({m!r}, {t!r}) outside the enumerations")
            for out in outs:
                m2, t2 = out
                if m2 not in immune or t2 not in timed:
                    raise FieldError(("moves", key, out), f"move target ({m2!r}, {t2!r}) outside the enumerations")
        for pair in goal:
            m, t = pair
            if m not in immune or t not in timed:
                raise FieldError(("goal", pair), f"goal pair ({m!r}, {t!r}) outside the enumerations")
        return tuple.__new__(cls, (timed_states, immune_states, init_immune, init_timed, moves, goal, max_speed))


# the pseudo immune state that stands for the goal: d(k, _GOAL) is the least h with W_h(k)
_GOAL = object()


def game_search(g: GameSpec, max_len: int, max_explored: int = DEFAULT_BUDGET) -> OracleVerdict:
    """Whether the goal is reachable on timelines of at most max_len
    snapshots: "winnable" or "not-winnable", with the table entries
    written. A search that would write more than max_explored entries
    raises SearchBudgetExceeded.

    Like the encoding, it reads neither max_speed nor the redo future (see
    the module docstring): the game is a stack of snapshots, with the
    immune state beside it, that a record pushes while it holds fewer than
    max_len and a unit left seek pops, keeping the immune state, while it
    holds more than one. So winnability is pushdown reachability with a
    bound on the stack height, which summaries decide (Reps, Horwitz &
    Sagiv 1995; Bouajjani, Esparza & Maler 1997). The tables are keyed on
    pairs (m, t) that a run can start a height with. For h, the pushes
    still allowed:
    - S_h(m, t) is the set of immune states in which a run from (m, t on
      top) comes back to t on top at the same height without popping it.
      S_0(m, t) = {m}, and S_h(m, t) is the closure of {m} under one rule:
      for m1 in the set, a move (m1, t) -> (m2, t2) adds all of
      S_{h-1}(m2, t2).
    - W_h(m, t) says whether the goal is reachable from (m, t on top)
      without popping t. W_0(m, t) holds iff (m, t) is a goal pair, and
      W_h(m, t) iff some m1 in S_h(m, t) has (m1, t) in the goal or has a
      move to some (m2, t2) with W_{h-1}(m2, t2).
    The answer at max_len L is W_{L-1} at the start pair.

    Soundness. Cut a run from (m, t on top) that never pops t, with at most
    h pushes above t, at the steps where t is on top. Each piece between
    two cuts pushes by a move (m1, t) -> (m2, t2), runs from (m2, t2 on
    top) without popping t2 and with at most h - 1 pushes above it, and
    pops t2 in the immune state it has reached, which the pop keeps. At a
    cut, a seek would pop t, and a record starts a piece. By induction on
    h, the immune states at the cuts are exactly S_h(m, t), and the run
    meets the goal at a cut or inside a piece exactly when W_h(m, t) holds.
    The start holds one snapshot, with nothing below it to pop (a seek off
    cursor 0 stays put), and L - 1 pushes are allowed above it: W_{L-1}.

    Monotony. Level 0 is what the rules give from S_{-1} = {} and W_{-1}
    false, and the rules only grow a level from a larger one below. So by
    induction S_h is a subset of S_{h+1} and W_h implies W_{h+1}.

    Heights. The levels are held as least heights: an entry d(k, x) is
    the least h with x in S_h(k), and d(k, goal) the least h with W_h(k),
    for a pseudo state goal that moves nowhere, so S_h(k) is the set of x
    with d(k, x) <= h. By the rules above, the entries are the least
    values that three rules allow: d((m, t), m) = 0; d(k, goal) <= d(k, x)
    for a goal pair (x, t); and, for k = (m, t), a move (x, t) -> k2 gives
    d(k, y) <= max(d(k, x), d(k2, y) + 1) for every y, goal included. A
    write lowers an entry and puts it on a heap ordered by height; an
    entry that comes off it is applied to the heights written so far, as
    x to each key it moves to and as y to each key with an entry that
    moves to its own. No rule gives less than a premise, so most entries
    come off at their first write (Knuth 1977), and a lower write puts an
    entry back on, so the heights end at the least values. `explored`
    counts the writes. Heights of max_len or more are never written, since
    they only give larger ones, and the search returns "winnable" once
    d(start, goal) is written. Keys are made lazily: the start, and a move
    target once an entry moves to it, with its own state at height 0. So a
    game with few moves, or with moves only from pairs that no run
    reaches, has few keys however many states it has.

    Termination. With K keys there are at most E = K·(|immune| + 1)
    entries, and each write lowers one. The first write of a height v > 0
    adds 1 to a height v - 1 written before it, and an entry written at
    v - 1 is never written higher again; so the first writes of the heights
    0, 1, ..., v are to distinct entries, and every height written is
    below E. Each entry is then written at most E times: `explored` is at
    most E², for any L, and at every L >= E the search writes the same
    entries."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    start = (g.init_immune, g.init_timed)
    back = {}  # key -> {immune state or _GOAL: the least height written}
    readers = {}  # key -> {a key with an entry that moves to it: that entry's least height}
    heap, ticket, explored = [], count(), 0

    def write(h, k, m):
        nonlocal explored
        entries = back.setdefault(k, {})
        if h < entries.get(m, max_len):
            explored += 1
            if explored > max_explored:
                raise SearchBudgetExceeded(f"game_search exceeded {max_explored} table entries")
            entries[m] = h
            heappush(heap, (h, next(ticket), k, m))

    write(0, start, start[0])
    while heap and _GOAL not in back[start]:
        h, _, k, m1 = heappop(heap)
        if back[k][m1] < h:
            continue  # a lower write of this entry came off the heap before
        if (m1, k[1]) in g.goal:
            write(h, k, _GOAL)
        for k2 in g.moves.get((m1, k[1]), ()):
            if k2 not in back:  # a new key, with its own state at height 0
                write(0, k2, k2[0])
            if h < readers.setdefault(k2, {}).get(k, max_len):
                readers[k2][k] = h
                for m2, u in list(back[k2].items()):
                    write(max(h, u + 1), k, m2)
        for r, a in readers.get(k, {}).items():
            write(max(a, h + 1), r, m1)
    return OracleVerdict("winnable" if _GOAL in back[start] else "not-winnable", explored)


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
        for out in outs:
            rec[out] = st(("rec", *out))
            add(mains[m], sym[t], MOVE_RIGHT, rec[out])
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
