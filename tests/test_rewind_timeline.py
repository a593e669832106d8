import random
import re
import time

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
from test_braidlike_tm import ODD_BREAKS
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


def _assert_budget_rule(g, max_len, max_explored):
    """game_search with a budget raises iff its count without one exceeds
    the budget, and otherwise returns the same verdict and count."""
    outcome = _search_outcome(game_search, g, max_len)
    expected = "budget exceeded" if outcome[1] > max_explored else outcome
    assert _search_outcome(game_search, g, max_len, max_explored) == expected


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(g=games(), max_len=st.integers(1, 9), max_explored=st.none() | st.integers(0, 50))
def test_game_search_matches_tuple_search(g, max_len, max_explored):
    # the summary tables decide the question that a BFS over tuple
    # timelines, keyed on the past and seeking one cell left, explores; the
    # two count different things, table entries written against nodes, so
    # only the verdicts compare. A None draw passes no budget
    outcome = _search_outcome(game_search, g, max_len)
    reference = _search_outcome(tuple_past_search, g, max_len)
    if reference != "budget exceeded":
        assert outcome[0] == reference[0]
    if max_explored is not None:
        _assert_budget_rule(g, max_len, max_explored)
    else:
        # the two-way search over whole timelines at the game's own speed
        # reaches the same pasts in another order: the verdict agrees, and
        # an exhaustive search counts every redo future that the past-only
        # search merges away
        kind, explored = _search_outcome(tuple_game_search, g, max_len)
        assert kind == reference[0] == outcome[0]
        if kind == "not-winnable":
            assert reference[1] <= explored
        # the encoding on a max_len-cell tape reaches its target iff the game is winnable
        reached = reach_bfs(build_braidlike_from_game(g), max_len).kind == "reached"
        assert reached == (outcome[0] == "winnable")


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(g=games(), max_len=st.integers(1, 12))
def test_game_search_grows_with_max_len_within_its_bound(g, max_len):
    # a longer timeline allows every run a shorter one does, and with K
    # keys, so E = K·(|immune| + 1) entries, the search writes at most E²
    # times whatever max_len is (the game_search docstring)
    if game_search(g, max_len).kind == "winnable":
        assert game_search(g, max_len + 1).kind == "winnable"
    k = len({(g.init_immune, g.init_timed), *(out for outs in g.moves.values() for out in outs)})
    assert game_search(g, 10 ** 6).explored <= (k * (len(g.immune_states) + 1)) ** 2


ORDER_GAME = GameSpec(("t0", "t1"), ("m0", "m1"), "m0", "t0",
                      {("m0", "t0"): (("m0", "t1"),), ("m0", "t1"): (("m1", "t0"),), ("m1", "t1"): (("m0", "t0"),)},
                      frozenset({("m1", "t1")}), max_speed=2)


def test_game_search_order_does_not_follow_the_speed():
    # from m1 on t0 t1 t0 at cursor 2, the speed-2 tuple search queues the
    # seek of -2 before the seek of -1 that wins; the speed-1 search does
    # not, but still queues the right seek off t0 t1 at cursor 0.
    # game_search follows no order: its tables hold the keys (m0, t0),
    # (m0, t1) and (m1, t0), and the goal at height 2 from the start, since
    # from (m0, t1) a record of t0 and a seek back reach m1 on t1
    assert _search_outcome(game_search, ORDER_GAME, 3) == ("winnable", 7)
    assert _search_outcome(tuple_game_search, ORDER_GAME._replace(max_speed=1), 3) == ("winnable", 5)
    assert _search_outcome(tuple_game_search, ORDER_GAME, 3) == ("winnable", 6)


# The bench's not-winnable shape: moves record only t0 and t1, and the goal
# is on t2, so a search over timelines exhausts every one up to max_len.
NOT_WINNABLE = GameSpec(("t0", "t1", "t2"), ("m0", "m1"), "m0", "t0",
                        {(m, t): (("m0", "t0"), ("m1", "t1")) for m in ("m0", "m1") for t in ("t0", "t1")},
                        frozenset({("m1", "t2")}))


@pytest.mark.parametrize("max_len", [*range(1, 13), 16, 17, 10 ** 6])
def test_game_search_counts_pasts_not_timelines(max_len):
    # the tables hold two keys, (m0, t0) and (m1, t1), each with its own
    # state at height 0 and the other one at height 1 (a record, then a
    # seek back), so from max_len 2 on the search writes the same four
    # entries, where a BFS over pasts visits 3·2^(max_len - 1) - 2 nodes;
    # at max_len 10^6 too, it takes well under 10 s
    start = time.perf_counter()
    assert _search_outcome(game_search, NOT_WINNABLE, max_len) == ("not-winnable", 2 if max_len == 1 else 4)
    assert time.perf_counter() - start < 10


def test_game_search_default_budget():
    for g, max_len in [(NOT_WINNABLE, 1), (NOT_WINNABLE, 2), (NOT_WINNABLE, 10 ** 6), (ORDER_GAME, 2),
                       (ORDER_GAME, 3)]:
        for max_explored in range(game_search(g, max_len).explored + 2):
            _assert_budget_rule(g, max_len, max_explored)
    with pytest.raises(SearchBudgetExceeded, match="^game_search exceeded 0 table entries$"):
        game_search(NOT_WINNABLE, 1, 0)
    # a start with 50 000 move targets makes 50 001 keys, each with its
    # own state at height 0, within the default budget of 100 000; a
    # record and a seek back give the start only m0 again, which costs
    # nothing, so every max_len settles with those entries
    fan = GameSpec(tuple(range(50_001)), ("m0",), "m0", 0, {("m0", 0): tuple(("m0", t) for t in range(1, 50_001))},
                   frozenset())
    for max_len in (1, 2, 10 ** 6):
        assert _search_outcome(game_search, fan, max_len) == ("not-winnable", 50_001)


def test_game_search_keys_only_the_start_and_the_move_targets():
    # 2 000 timed and 500 immune states make 10^6 pairs, ten times the
    # default budget; with one move the tables hold two keys: 0 and then 1
    # at the start, 1 at (1, 1)
    g = GameSpec(tuple(range(2000)), tuple(range(500)), 0, 0, {(0, 0): ((1, 1),)}, frozenset({(499, 1999)}))
    assert _search_outcome(game_search, g, 10 ** 6) == ("not-winnable", 3)
    # a move target becomes a key only once a state the tables hold moves
    # to it: t1 is never on top, so its 50 000 move targets make no key
    g = GameSpec(tuple(range(50_002)), ("m0",), "m0", 0, {("m0", 1): tuple(("m0", t) for t in range(2, 50_002))},
                 frozenset())
    for max_len in (1, 2, 10 ** 6):
        assert _search_outcome(game_search, g, max_len) == ("not-winnable", 1)


def test_game_search_budget_bounds_memory():
    # 1 000 immune and 50 timed states, each pair moving to the next state
    # of both: every key's S set grows to all 1 000 immune states, so 5·10^7
    # entries, gigabytes, if nothing stopped it. The budget counts every
    # entry written, so the search stops at 100 000 of them, well inside
    # the subprocess's capped address space
    code = ("from braidbench.rewind_timeline import GameSpec, game_search\n"
            "from braidbench.oracle_sim import SearchBudgetExceeded\n"
            "moves = {(m, t): (((m + 1) % 1000, (t + 1) % 50),) for m in range(1000) for t in range(50)}\n"
            "g = GameSpec(tuple(range(50)), tuple(range(1000)), 0, 0, moves, frozenset())\n"
            "try:\n"
            "    game_search(g, 10 ** 6)\n"
            "except SearchBudgetExceeded as e:\n"
            "    print(e)\n")
    out = run_limited("-c", code)
    assert (out.returncode, out.stdout) == (0, "game_search exceeded 100000 table entries\n"), out.stderr


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


@pytest.mark.parametrize("brk", ODD_BREAKS, ids=ascii)
def test_parse_game_odd_break_stays_in_its_line(brk):
    assert parse_game(GAME_HEADER + f"# c{brk}goal m0 t9\n").goal == frozenset()
    with pytest.raises(GameParseError, match=re.escape("line 2: expected `speed <k>`")):
        parse_game(f"# a{brk}warp\nspeed x\n" + GAME_HEADER)


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

