import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from braidbench.braidlike_tm import (
    BLANK,
    BTMParseError,
    Configuration,
    MachineSpec,
    MOVE_LEFT,
    MOVE_RIGHT,
    ParseError,
    TapeStore,
    Write,
    apply_action,
    canonical_tape,
    format_btm,
    parse_btm,
    start_configuration,
    successors,
    symbol_at,
)
from braidbench.counter_machine import CMParseError
from braidbench.oracle_sim import det_behavior_oracle
from braidbench.rewind_timeline import GameParseError


def det_spec(transitions, accept=(), n=2, s=2, start=0):
    return MachineSpec(n, s, start, frozenset(accept),
                       {k: (v,) for k, v in transitions.items()},
                       deterministic=True)


# --- parsing ---------------------------------------------------------------

def test_parse_minimal():
    spec = parse_btm("states 1\nsymbols 1\nstart 0\ntrans 0 0 right 0\n")
    assert spec.num_states == 1
    assert spec.transitions == {(0, 0): ((MOVE_RIGHT, 0),)}


def test_parse_deterministic_duplicate_key_rejected():
    text = ("states 1\nsymbols 1\nstart 0\ndeterministic true\n"
            "trans 0 0 right 0\ntrans 0 0 left 0\n")
    with pytest.raises(BTMParseError, match=re.escape("line 6: deterministic machine has 2 transitions from (0, 0)")):
        parse_btm(text)


def test_parse_write_clears_read_only_flag():
    spec = parse_btm("states 1\nsymbols 2\nstart 0\ntrans 0 0 write 1 0\n")
    assert not spec.read_only
    moves_only = parse_btm("states 1\nsymbols 2\nstart 0\ntrans 0 0 right 0\n")
    assert moves_only.read_only


def test_parse_errors_carry_line_numbers():
    with pytest.raises(BTMParseError) as exc:
        parse_btm("states 1\nsymbols 1\nstart 0\ntrans 0 0 teleport 0\n")
    assert exc.value.lineno == 4


BTM_HEADER = "states 1\nsymbols 1\nstart 0\n"


# (text, line number, message): a MachineSpec check reports the line that
# gave the field at fault, with the constructor's message
@pytest.mark.parametrize("text,lineno,message", [
    (BTM_HEADER + "accept 3\n", 4, "accept state 3 out of range"),
    (BTM_HEADER + "target 2\n", 4, "target state out of range"),
    (BTM_HEADER + "trans 2 0 right 0\n", 4, "transition key (2, 0) out of range"),
    (BTM_HEADER + "trans 0 0 right 4\n", 4, "transition from (0, 0) to state 4 out of range"),
    (BTM_HEADER + "accept 0 x\n", 4, "accept states must be integers"),
    (BTM_HEADER + "trans 0 0\n", 4, "truncated transition"),
    (BTM_HEADER + "trans 0 0 left 0 0\n", 4, "expected `trans <q> <a> left <q'>`"),
    (BTM_HEADER + "# again\nstates 2\n", 5, "second `states` line"),
    ("deterministic true\n" + BTM_HEADER + "DETERMINISTIC false\n", 5, "second `deterministic` line"),
    (BTM_HEADER + "trans 0 0 left 1_0\n", 4, "transition states and symbols must be integers"),
    (BTM_HEADER + "trans +0 0 right 0\n", 4, "transition states and symbols must be integers"),
    (BTM_HEADER + "trans 0 0 write \u0661 0\n", 4, "transition states and symbols must be integers"),
    (BTM_HEADER + "accept 0\naccept \u0661\n", 5, "accept states must be integers"),
    ("states 1\nsymbols \u0661\nstart 0\n", 2, "expected `symbols <n>`"),
    ("states 0\nsymbols 1\nstart 0\n", 1, "need at least one state and one symbol"),
    ("states 1\nsymbols 0\nstart 0\n", 2, "need at least one state and one symbol"),
    ("states 1\nstart 1\nsymbols 1\n", 2, "start state out of range"),
    (BTM_HEADER + "accept 0\n\naccept 0 2\n", 6, "accept state 2 out of range"),
    ("states 2\nsymbols 2\nstart 0\ntrans 0 0 write 1 0\ntrans 0 1 write 2 1\n", 5, "written symbol 2 out of range"),
    ("symbols 1\nstart 0\n", 0, "missing `states` line"),
])
def test_parse_error_class_and_line(text, lineno, message):
    with pytest.raises(BTMParseError, match=re.escape(f"line {lineno}: {message}")) as exc:
        parse_btm(text)
    assert exc.value.lineno == lineno


def test_parse_keywords_are_case_insensitive():
    spec = parse_btm("STATES 2\nSymbols 2\nstart 0\nDeterministic TRUE\nTRANS 0 0 Write 1 1\ntrans 1 1 LEFT 0\n")
    assert spec == parse_btm("states 2\nsymbols 2\nstart 0\ndeterministic true\n"
                             "trans 0 0 write 1 1\ntrans 1 1 left 0\n")


def test_parse_error_classes_share_one_base():
    for cls in (BTMParseError, CMParseError, GameParseError):
        assert issubclass(cls, ParseError) and issubclass(cls, ValueError)
        assert cls.__bases__ == (ParseError,) and set(vars(cls)) <= {"__module__", "__qualname__", "__doc__"}


def test_parse_out_of_range_state():
    with pytest.raises(BTMParseError):
        parse_btm("states 1\nsymbols 1\nstart 5\n")


def test_format_parse_round_trip_random():
    rng = random.Random(31)
    for _ in range(50):
        n, s = rng.randint(1, 3), rng.randint(1, 3)
        trans = {}
        for q in range(n):
            for a in range(s):
                succs = []
                for _ in range(rng.randint(0, 2)):
                    action = rng.choice(
                        [MOVE_LEFT, MOVE_RIGHT, Write(rng.randrange(s))])
                    succs.append((action, rng.randrange(n)))
                succs = tuple(dict.fromkeys(succs))
                if succs:
                    trans[(q, a)] = succs
        spec = MachineSpec(n, s, 0, frozenset(rng.sample(range(n), rng.randint(0, n))),
                           trans, target_state=rng.choice([None, 0]))
        assert parse_btm(format_btm(spec)) == spec


# --- actions ---------------------------------------------------------------

def test_write_erases_right():
    c = Configuration(0, 0, (1, 2, 1))
    succ = apply_action(c, Write(2), 0)
    assert succ.tape == (2,) and succ.head == 0


def test_move_left_stuck_at_endpoint():
    assert apply_action(Configuration(0, 0, (1,)), MOVE_LEFT, 0) is None


def test_write_materializes_blank_gap():
    c = Configuration(0, 3, (1,))
    succ = apply_action(c, Write(1), 0)
    assert succ.tape == (1, 0, 0, 1) and succ.head == 3


def test_write_blank_canonicalizes():
    c = Configuration(0, 2, (1, 1, 1))
    succ = apply_action(c, Write(BLANK), 0)
    assert succ.tape == (1, 1)


def test_moves_shift_head():
    c = Configuration(0, 1, (1,))
    assert apply_action(c, MOVE_RIGHT, 1).head == 2
    assert apply_action(c, MOVE_LEFT, 1).head == 0


@pytest.mark.parametrize("c,action,expected", [
    (Configuration(0, 1, (1,)), MOVE_LEFT, (1, 0, (1,))),
    (Configuration(0, 1, (1,)), MOVE_RIGHT, (1, 2, (1,))),
    (Configuration(0, 0, (1, 2, 1)), Write(2), (1, 0, (2,))),
    (Configuration(0, 2, (1, 1, 1)), Write(BLANK), (1, 2, (1, 1))),
    (Configuration(0, 3, (1,)), Write(1), (1, 3, (1, 0, 0, 1))),
], ids=["left", "right", "write", "blank-write", "write-past-end"])
def test_apply_action_returns_a_configuration(c, action, expected):
    succ = apply_action(c, action, 1)
    assert type(succ) is Configuration and succ == expected


def test_canonical_tape():
    assert canonical_tape((1, 0, 2, 0, 0)) == (1, 0, 2)
    assert canonical_tape((0, 0)) == ()
    assert canonical_tape(()) == ()


def test_symbol_at_blank_region():
    assert symbol_at((1, 2), 0) == 1
    assert symbol_at((1, 2), 5) == BLANK


# --- successors ------------------------------------------------------------

def test_successors_empty_when_no_transition():
    spec = det_spec({})
    assert successors(spec, start_configuration(spec)) == []


def test_successors_deterministic_at_most_one():
    rng = random.Random(8)
    for _ in range(100):
        n, s = rng.randint(1, 3), rng.randint(1, 2)
        trans = {}
        for q in range(n):
            for a in range(s):
                if rng.random() < 0.8:
                    action = rng.choice([MOVE_LEFT, MOVE_RIGHT, Write(rng.randrange(s))])
                    trans[(q, a)] = (action, rng.randrange(n))
        spec = det_spec(trans, n=n, s=s)
        c = start_configuration(spec)
        for _ in range(20):
            succs = successors(spec, c)
            assert len(succs) <= 1
            if not succs:
                break
            c = succs[0]


def test_successors_two_branches():
    spec = MachineSpec(
        2, 2, 0, frozenset(),
        {(0, 1): ((Write(0), 1), (MOVE_RIGHT, 1))},
    )
    c = Configuration(0, 0, (1,))
    succs = successors(spec, c)
    assert len(succs) == 2
    write_succ = [x for x in succs if x.head == 0][0]
    assert len(write_succ.tape) <= 1


def test_successors_are_canonical():
    spec = MachineSpec(1, 2, 0, frozenset(), {(0, 1): ((Write(0), 0),)})
    for succ in successors(spec, Configuration(0, 2, (1, 1, 1))):
        assert succ.tape == canonical_tape(succ.tape)


# --- deterministic runs (simulated by det_behavior_oracle) ----------------

def test_run_det_accepting_start():
    spec = det_spec({}, accept=[0])
    out = det_behavior_oracle(spec, 10, 10)
    assert out.kind == "accept" and out.explored == 0


def test_run_det_right_drifter_budget():
    # walks right through states 0..19, then accepts: unresolved at 10 cells
    spec = det_spec({(q, 0): (MOVE_RIGHT, q + 1) for q in range(20)}, n=21, s=1, accept=[20])
    assert det_behavior_oracle(spec, 1000, 10).kind == "unresolved"
    drifter = det_spec({(0, 0): (MOVE_RIGHT, 0)}, n=1, s=1)
    assert det_behavior_oracle(drifter, 1000, 10).kind == "loop"


def test_run_det_requires_deterministic():
    spec = MachineSpec(1, 1, 0, frozenset(), {})
    with pytest.raises(ValueError):
        det_behavior_oracle(spec, 1, 1)


# --- erase-right property (small sample; the big one lives in acceptance) --

def test_erase_right_property_sample():
    rng = random.Random(5)
    for _ in range(500):
        tape = canonical_tape(tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 5))))
        head = rng.randint(0, 6)
        b = rng.randint(0, 2)
        succ = apply_action(Configuration(0, head, tape), Write(b), 0)
        assert len(succ.tape) <= head + 1
        assert symbol_at(succ.tape, head) == b
        for i in range(head):
            assert symbol_at(succ.tape, i) == symbol_at(tape, i)


# --- the tape zipper against apply_action ----------------------------------

def unzip(store, z):
    """The Configuration a zipped triple stands for."""
    state, left, right = z
    cells = []
    while left:
        cells.append(store.car[left])
        left = store.cdr[left]
    head = len(cells)
    cells.reverse()
    while right:
        cells.append(store.car[right])
        right = store.cdr[right]
    return Configuration(state, head, canonical_tape(cells))


ACTION_RUNS = st.integers(1, 3).flatmap(lambda s: st.tuples(
    st.just(s),
    st.lists(st.sampled_from([MOVE_LEFT, MOVE_RIGHT] + [Write(b) for b in range(s)]), max_size=60)))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(run=ACTION_RUNS)
# a left move at cell 0, a write past the tape end, a blank write inside the
# tape, and left moves back over the blank cells it leaves
@example(run=(2, [MOVE_LEFT, MOVE_RIGHT, MOVE_RIGHT, Write(1), MOVE_LEFT, Write(0), MOVE_RIGHT,
                  MOVE_RIGHT, MOVE_LEFT, MOVE_LEFT, MOVE_LEFT, MOVE_LEFT]))
def test_tape_store_lockstep_with_apply_action(run):
    num_symbols, actions = run
    store = TapeStore(num_symbols)
    c, z = start_configuration(det_spec({})), (0, 0, 0)
    triple_of = {c: z}
    for step, action in enumerate(actions):
        nxt = step % 3
        c_next, z_next = apply_action(c, action, nxt), store.apply(z, action, nxt)
        assert (c_next is None) == (z_next is None), (step, c, action)
        if c_next is None:
            continue
        c, z = c_next, z_next
        assert unzip(store, z) == c, (step, action)
        # both visited sets rely on equal configurations having equal triples
        assert triple_of.setdefault(c, z) == z, (step, c)


def test_spec_validation():
    with pytest.raises(ValueError):
        MachineSpec(1, 1, 0, frozenset(), {(0, 0): ((Write(5), 0),)})
    with pytest.raises(ValueError):
        MachineSpec(1, 1, 0, frozenset(),
                    {(0, 0): ((MOVE_RIGHT, 0), (MOVE_LEFT, 0))}, deterministic=True)
