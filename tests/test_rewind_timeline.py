import random

import pytest
from hypothesis import given, settings, strategies as st

from braidbench.oracle_sim import SearchBudgetExceeded
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
from reference_bfs import tuple_game_search


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


def test_timeline_validation():
    with pytest.raises(ValueError):
        Timeline((), 0)
    with pytest.raises(ValueError):
        Timeline(("a",), 1)


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


def _search_outcome(search, g, max_len, max_explored):
    try:
        res = search(g, max_len, max_explored)
    except SearchBudgetExceeded:
        return "budget exceeded"
    return res.kind, res.explored


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(g=games(), max_len=st.integers(1, 9), max_explored=st.none() | st.integers(1, 50))
def test_game_search_matches_tuple_search(g, max_len, max_explored):
    # the zipper search visits the tuple search's nodes in the same order
    assert (_search_outcome(game_search, g, max_len, max_explored)
            == _search_outcome(tuple_game_search, g, max_len, max_explored))


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


def test_parse_game_errors():
    with pytest.raises(GameParseError):
        parse_game("timed t0\nimmune m0\n")  # no start
    with pytest.raises(GameParseError):
        parse_game("timed t0\nimmune m0\nstart m0 t0\nwarp x\n")
    with pytest.raises(GameParseError):
        parse_game("timed t0\nimmune m0\nstart m0 t0\nmove m0 t0\n")

