import dataclasses
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from braidbench.oracle_sim import SearchBudgetExceeded, reach_bfs
from braidbench.rewind_timeline import (
    GameParseError,
    GameSpec,
    Timeline,
    build_braidlike_from_game,
    game_search,
    parse_game,
    tl_record,
    tl_seek,
)
from braidbench.tour_guide import decide_reachability
from reference_bfs import tuple_game_search, tuple_past_search
from test_cli import run_limited


def test_record_appends():
    t = tl_record(Timeline(("s0",), 0), "s1")
    assert t.snapshots == ("s0", "s1") and t.cursor == 1


def test_record_truncates_redo_future():
    t = tl_record(Timeline(("s0", "s1", "s2"), 0), "s1x")
    assert t.snapshots == ("s0", "s1x") and t.cursor == 1


def test_record_length_is_cursor_plus_two():
    rng = random.Random(3)
    for _ in range(200):
        length = rng.randint(1, 8)
        t = Timeline(tuple(range(length)), rng.randrange(length))
        t2 = tl_record(t, "x")
        assert len(t2.snapshots) == t.cursor + 2
        assert t2.cursor == t.cursor + 1
        assert len(t2.snapshots) <= len(t.snapshots) + 1


def test_seek_moves_cursor():
    t = Timeline(("a", "b", "c"), 2)
    assert tl_seek(t, -2, 8).cursor == 0
    assert tl_seek(Timeline(("a", "b", "c"), 0), 1, 8).cursor == 1


def test_seek_clamps():
    t = Timeline(("a", "b", "c"), 0)
    assert tl_seek(t, -5, 8).cursor == 0
    assert tl_seek(t, 7, 8).cursor == 2
    assert tl_seek(t, 7, 8).snapshots == t.snapshots


def test_seek_speed_limit():
    with pytest.raises(ValueError):
        tl_seek(Timeline(("a",), 0), 3, 2)
    with pytest.raises(ValueError):
        tl_seek(Timeline(("a",), 0), -3, 2)
    t = Timeline(("a", "b", "c"), 1)
    assert tl_seek(t, 2, 2).cursor == 2 and tl_seek(t, -2, 2).cursor == 0


def test_timeline_validation():
    with pytest.raises(ValueError):
        Timeline((), 0)
    with pytest.raises(ValueError):
        Timeline(("a",), 1)
    with pytest.raises(ValueError):
        Timeline(("a",), -1)


def test_record_and_seek_return_timelines():
    t = Timeline(("a", "b", "c"), 1)
    for t2 in (tl_record(t, "x"), tl_seek(t, 1, 8), tl_seek(t, -5, 8), tl_seek(t, 7, 8)):
        assert type(t2) is Timeline
    assert t == (("a", "b", "c"), 1)  # a plain tuple, like Configuration


def toy_game(goal_pairs, moves=None, max_speed=2):
    return GameSpec(
        timed_states=("t0", "t1"),
        immune_states=("m0",),
        init_immune="m0",
        init_timed="t0",
        moves=moves or {},
        goal=frozenset(goal_pairs),
        max_speed=max_speed,
    )


def test_game_search_goal_at_start():
    g = toy_game([("m0", "t0")])
    assert game_search(g, max_len=4).kind == "winnable"


def test_game_search_unreachable_goal():
    g = toy_game([("m0", "t1")])  # no moves, t1 never appears
    assert game_search(g, max_len=4).kind == "not-winnable"


def test_game_search_reaches_through_moves():
    g = toy_game([("m0", "t1")], moves={("m0", "t0"): (("m0", "t1"),)})
    assert game_search(g, max_len=4).kind == "winnable"


@st.composite
def games(draw):
    timed = tuple(f"t{i}" for i in range(draw(st.integers(1, 3))))
    immune = tuple(f"m{i}" for i in range(draw(st.integers(1, 2))))
    pairs = [(m, t) for m in immune for t in timed]
    moves = {}
    for pair in pairs:
        outs = draw(st.lists(st.sampled_from(pairs), max_size=2, unique=True))
        if outs:
            moves[pair] = tuple(outs)
    goal = frozenset(draw(st.lists(st.sampled_from(pairs), max_size=1)))
    return GameSpec(timed, immune, immune[0], timed[0], moves, goal, max_speed=draw(st.integers(1, 10)))


def _search_outcome(search, g, max_len, *max_explored):
    """The search's (kind, explored), or "budget exceeded"; with no
    max_explored the search runs at its default budget."""
    try:
        res = search(g, max_len, *max_explored)
    except SearchBudgetExceeded:
        return "budget exceeded"
    return res.kind, res.explored


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(g=games(), max_len=st.integers(1, 9), max_explored=st.none() | st.integers(1, 50))
def test_game_search_matches_tuple_search(g, max_len, max_explored):
    # game_search keys a node on its past and seeks one cell left at a
    # time, as the tuple past search does, so the two visit the same nodes
    # in the same order; a None draw passes no budget
    budget = () if max_explored is None else (max_explored,)
    outcome = _search_outcome(game_search, g, max_len, *budget)
    assert outcome == _search_outcome(tuple_past_search, g, max_len, *budget)
    if max_explored is None:
        # the two-way search over whole timelines at the game's own speed
        # reaches the same pasts in another order: the verdict agrees, and
        # an exhaustive search counts every redo future that the past-only
        # search merges away
        kind, explored = _search_outcome(tuple_game_search, g, max_len)
        assert kind == outcome[0]
        if kind == "not-winnable":
            assert outcome[1] <= explored
        # the encoding on a max_len-cell tape reaches its target iff the game is winnable
        reached = reach_bfs(build_braidlike_from_game(g), max_len).kind == "reached"
        assert reached == (outcome[0] == "winnable")


def test_game_search_order_does_not_follow_the_speed():
    # from m1 on t0 t1 t0 at cursor 2, the speed-2 tuple search queues the
    # seek of -2 before the seek of -1 that wins; the speed-1 search does
    # not, but still queues the right seek off t0 t1 at cursor 0; game_search
    # seeks only left, one cell at a time, and wins a node sooner again
    g = GameSpec(("t0", "t1"), ("m0", "m1"), "m0", "t0",
                 {("m0", "t0"): (("m0", "t1"),), ("m0", "t1"): (("m1", "t0"),), ("m1", "t1"): (("m0", "t0"),)},
                 frozenset({("m1", "t1")}), max_speed=2)
    assert _search_outcome(game_search, g, 3) == ("winnable", 4)
    assert _search_outcome(tuple_game_search, dataclasses.replace(g, max_speed=1), 3) == ("winnable", 5)
    assert _search_outcome(tuple_game_search, g, 3) == ("winnable", 6)


# The bench's not-winnable shape: moves record only t0 and t1, and the goal
# is on t2, so the search exhausts every timeline up to max_len.
NOT_WINNABLE = GameSpec(("t0", "t1", "t2"), ("m0", "m1"), "m0", "t0",
                        {(m, t): (("m0", "t0"), ("m1", "t1")) for m in ("m0", "m1") for t in ("t0", "t1")},
                        frozenset({("m1", "t2")}))


@pytest.mark.parametrize("max_len", range(1, 13))
def test_game_search_counts_pasts_not_timelines(max_len):
    # a node is an immune state and a past: t0, then up to L - 1 records
    # of t0 (to m0) or t1 (to m1). A past shorter than L pairs with either
    # immune state (a record, then a seek back), a full one only with the
    # state its last record set: 2·(2^(L-1) - 1) + 2^(L-1) nodes
    assert _search_outcome(game_search, NOT_WINNABLE, max_len) == ("not-winnable", 3 * 2 ** (max_len - 1) - 2)


def test_game_search_default_budget():
    assert _search_outcome(game_search, NOT_WINNABLE, 16) == ("not-winnable", 98302)
    # at max_len 17 the search needs 196 606 nodes; it runs in a subprocess
    # with its address space capped, so that a search without a budget
    # cannot take the machine's memory
    code = ("from braidbench.oracle_sim import SearchBudgetExceeded\n"
            "from braidbench.rewind_timeline import GameSpec, game_search\n"
            "try:\n"
            f"    game_search({NOT_WINNABLE!r}, 17)\n"
            "except SearchBudgetExceeded as e:\n"
            "    print(e)\n")
    out = run_limited("-c", code)
    assert (out.returncode, out.stdout) == (0, "game_search exceeded 100000 nodes\n"), out.stderr


def test_adapter_goal_at_start_target_in_one_step():
    spec = build_braidlike_from_game(toy_game([("m0", "t0")]))
    res = decide_reachability(spec, cell_cap=4)
    assert res.kind == "reached"
    assert len(res.witness) <= 2  # boot write lands directly in the target


def test_adapter_unwinnable_game_not_reached():
    spec = build_braidlike_from_game(toy_game([("m0", "t1")]))
    assert decide_reachability(spec, cell_cap=4).kind == "not-reached"


def test_adapter_agrees_with_game_search():
    g = toy_game([("m0", "t1")], moves={("m0", "t0"): (("m0", "t1"),)})
    spec = build_braidlike_from_game(g)
    assert decide_reachability(spec, cell_cap=4).kind == "reached"
    assert game_search(g, max_len=4).kind == "winnable"


def test_adapter_size_cap():
    big = GameSpec(
        timed_states=tuple(range(600)),
        immune_states=tuple(range(600)),
        init_immune=0,
        init_timed=0,
        moves={},
        goal=frozenset(),
    )
    with pytest.raises(ValueError):
        build_braidlike_from_game(big)


def test_gamespec_validation():
    with pytest.raises(ValueError):
        GameSpec(("t0",), ("m0",), "m0", "t9", {}, frozenset())
    with pytest.raises(ValueError):
        GameSpec(("t0",), ("m0",), "m0", "t0", {("m0", "t0"): (("m9", "t0"),)},
                 frozenset())
    with pytest.raises(ValueError):
        GameSpec(("t0",), ("m0",), "m0", "t0", {}, frozenset(), max_speed=0)


def test_gamespec_rejects_repeated_names():
    with pytest.raises(ValueError):
        GameSpec(("a", "a", "b"), ("m0",), "m0", "a", {}, frozenset())
    with pytest.raises(ValueError):
        GameSpec(("t0",), ("m0", "m0"), "m0", "t0", {}, frozenset())
    with pytest.raises(GameParseError):
        parse_game("timed a a b\nimmune m0\nstart m0 a\n")


GAME_HEADER = "timed t0\nimmune m0\nstart m0 t0\n"


# (text, line number, message): a GameSpec check reports the line that
# gave the field at fault, with the constructor's message
@pytest.mark.parametrize("text,lineno,message", [
    (GAME_HEADER + "move m9 t0 m0 t0\n", 4, "move source ('m9', 't0') outside the enumerations"),
    (GAME_HEADER + "goal m0 t9\n", 4, "goal pair ('m0', 't9') outside the enumerations"),
    (GAME_HEADER + "move m0 t0 m0 t0\nmove m0 t0 M0 t0\n", 5, "move target ('M0', 't0') outside the enumerations"),
    ("timed t0\nimmune m0\nstart m0 T0\n", 3, "initial state outside the enumerations"),
    ("timed t0 t1 t0\nimmune m0\nstart m0 t0\n", 1, "a timed or immune state is listed twice"),
    ("timed t0\nimmune m0 m0\nstart m0 t0\n", 2, "a timed or immune state is listed twice"),
    (GAME_HEADER + "speed 0\n", 4, "max_speed must be >= 1"),
    (GAME_HEADER + "timed t0 t1\n", 4, "second `timed` line"),
    ("speed 2\n" + GAME_HEADER + "SPEED 3\n", 5, "second `speed` line"),
    (GAME_HEADER + "speed +2\n", 4, "expected `speed <k>`"),
    (GAME_HEADER + "speed \u0662\n", 4, "expected `speed <k>`"),
    ("timed t0\nimmune m0\n", 0, "missing `timed`, `immune`, or `start` line"),
    ("timed t0\nimmune m0\nstart m0\n", 3, "expected `start <immune> <timed>`"),
    (GAME_HEADER + "speed fast\n", 4, "expected `speed <k>`"),
    (GAME_HEADER + "goal m0\n", 4, "expected `goal <immune> <timed>`"),
])
def test_parse_game_error_class_and_line(text, lineno, message):
    with pytest.raises(GameParseError, match=re.escape(f"line {lineno}: {message}")) as exc:
        parse_game(text)
    assert exc.value.lineno == lineno


def test_parse_game_round_trip():
    text = """
    # toy game
    timed t0 t1
    immune m0
    start m0 t0
    speed 2
    move m0 t0 m0 t1
    goal m0 t1
    """
    g = parse_game(text)
    assert g.timed_states == ("t0", "t1")
    assert g.max_speed == 2
    assert g.moves == {("m0", "t0"): (("m0", "t1"),)}
    assert g.goal == frozenset({("m0", "t1")})


def test_parse_game_without_speed_takes_the_gamespec_default():
    g = parse_game("timed t0 t1\nimmune m0\nstart m0 t0\nmove m0 t0 m0 t1\ngoal m0 t1\n")
    assert g == GameSpec(("t0", "t1"), ("m0",), "m0", "t0", {("m0", "t0"): (("m0", "t1"),)}, frozenset({("m0", "t1")}))


def test_parse_game_errors():
    with pytest.raises(GameParseError):
        parse_game("timed t0\nimmune m0\n")  # no start
    with pytest.raises(GameParseError):
        parse_game("timed t0\nimmune m0\nstart m0 t0\nwarp x\n")
    with pytest.raises(GameParseError):
        parse_game("timed t0\nimmune m0\nstart m0 t0\nmove m0 t0\n")

