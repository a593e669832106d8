import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from braidbench.braidlike_tm import (
    BLANK,
    BTMParseError,
    Configuration,
    FieldError,
    MachineSpec,
    MOVE_LEFT,
    MOVE_RIGHT,
    MoveLeft,
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
from braidbench.counter_machine import Add, CMParseError, CounterProgram, Halt
from braidbench.gadget_compiler import (Add1, Branch, CounterStation, Goal, LeverPull, OpenDoor, Remove1,
                                        TrapRouter, compile)
from braidbench.oracle_sim import OracleVerdict, det_behavior_oracle
from braidbench.rewind_timeline import GameParseError, GameSpec


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
    ("states 1\rsymbols 1\r\nstart 0\r\r\ntrans 0 0 right 4\r", 5, "transition from (0, 0) to state 4 out of range"),
])
def test_parse_error_class_and_line(text, lineno, message):
    with pytest.raises(BTMParseError, match=re.escape(f"line {lineno}: {message}")) as exc:
        parse_btm(text)
    assert exc.value.lineno == lineno


# characters that end a line for str.splitlines but not in the line formats
ODD_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("brk", ODD_BREAKS, ids=ascii)
def test_parse_odd_break_stays_in_its_line(brk):
    assert parse_btm(BTM_HEADER + f"# c{brk}trans 0 0 right 0\n").transitions == {}
    with pytest.raises(BTMParseError, match=re.escape("line 2: expected `states <n>`")):
        parse_btm(f"# a{brk}b\nstates x\n")


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
        # every key steps by this one action, so the rows apply it wherever the run stands
        rows = store.lower(MachineSpec(3, num_symbols, 0, frozenset(),
                                       {(q, a): ((action, nxt),) for q in range(3) for a in range(num_symbols)}))
        c_next, z_succs = apply_action(c, action, nxt), store.successors(rows, z)
        assert len(z_succs) == (c_next is not None), (step, c, action)
        if c_next is None:
            continue
        c, z = c_next, z_succs[0]
        assert unzip(store, z) == c, (step, action)
        # both visited sets rely on equal configurations having equal triples
        assert triple_of.setdefault(c, z) == z, (step, c)


def zipped(store, c):
    """The triple of a Configuration: the one a search keys it by."""
    cells = c.tape + (BLANK,) * (c.head - len(c.tape))
    left = right = 0
    for a in cells[:c.head]:
        left = store.cons(a, left)
    for a in reversed(cells[c.head:]):
        right = store.cons(a, right)
    return (c.state, left, right)


NONDET_RUNS = st.integers(1, 3).flatmap(lambda n: st.integers(1, 3).flatmap(lambda s: st.tuples(
    st.builds(lambda trans: MachineSpec(n, s, 0, frozenset(), {k: tuple(v) for k, v in trans.items() if v}),
              st.fixed_dictionaries({(q, a): st.lists(st.tuples(
                  st.sampled_from([MOVE_LEFT, MOVE_RIGHT] + [Write(b) for b in range(s)]),
                  st.integers(0, n - 1)), max_size=3) for q in range(n) for a in range(s)})),
    st.lists(st.integers(0, 2), max_size=40))))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(run=NONDET_RUNS)
def test_tape_store_successors_match_tuple_successors(run):
    # Repeated transitions stay, and every successor is the triple its
    # Configuration zips to, so a triple never holds a trailing blank.
    spec, choices = run
    store = TapeStore(spec.num_symbols)
    rows = store.lower(spec)
    c, z = start_configuration(spec), (spec.start_state, 0, 0)
    for step, choice in enumerate(choices):
        succs, got = successors(spec, c), store.successors(rows, z)
        assert [unzip(store, t) for t in got] == succs, (step, c)
        assert got == [zipped(store, s) for s in succs], (step, c)
        if not succs:
            break
        c = succs[choice % len(succs)]
        z = zipped(store, c)


def test_spec_validation():
    with pytest.raises(ValueError):
        MachineSpec(1, 1, 0, frozenset(), {(0, 0): ((Write(5), 0),)})
    with pytest.raises(ValueError):
        MachineSpec(1, 1, 0, frozenset(),
                    {(0, 0): ((MOVE_RIGHT, 0), (MOVE_LEFT, 0))}, deterministic=True)


# records of every module, in families whose kinds have equal fields,
# each family with the plain tuple of those fields
RECORD_FAMILIES = (
    (MOVE_LEFT, MOVE_RIGHT, Halt(), Branch(), TrapRouter(), Goal(), ()),
    (Write(1), Add(1), (1,)),
    (Add1(0), Remove1(0), CounterStation(0), (0,)),
)


def test_records_equal_only_their_own_kind():
    for family in RECORD_FAMILIES:
        assert len(set(family)) == len(family)
        for a in family:
            for b in family:
                assert (a == b) == (a is b) and (a != b) == (a is not b), (a, b)
    assert MOVE_LEFT == MoveLeft() and not MOVE_LEFT != MoveLeft()
    assert Write(1) == Write(1) and hash(Write(1)) == hash((1,))


def test_records_with_no_fields_are_true():
    assert all((MOVE_LEFT, MOVE_RIGHT, MoveLeft(), Halt(), Branch(), TrapRouter(), Goal()))


def test_record_fields_cannot_be_set():
    spec = det_spec({(0, 0): (MOVE_RIGHT, 0)})
    program = CounterProgram(1, (Add(0), Halt()))
    for record, field in ((Write(1), "symbol"), (spec, "num_states"), (program, "num_counters"),
                          (OracleVerdict("accept"), "kind"), (LeverPull("add0"), "signal"),
                          (OpenDoor("R0", "B1"), "router"), (compile(program), "entry"),
                          (GameSpec(("t",), ("m",), "m", "t", {}, frozenset()), "max_speed")):
        with pytest.raises(AttributeError):
            setattr(record, field, 2)
        with pytest.raises(AttributeError):
            record.other = 2


def test_record_replace_and_make_check_their_fields():
    spec = det_spec({(0, 0): (MOVE_RIGHT, 0)})
    assert spec._replace(start_state=1) == MachineSpec._make(spec._replace(start_state=1))
    with pytest.raises(FieldError, match="^start state out of range$"):
        spec._replace(start_state=2)
    with pytest.raises(FieldError, match="^start state out of range$"):
        MachineSpec._make((*spec[:2], 2, *spec[3:]))


def test_record_reprs_name_their_fields():
    assert repr(Write(1)) == "Write(symbol=1)"
    assert repr(MoveLeft()) == "MoveLeft()"
    assert repr(OracleVerdict("accept", 0)) == (
        "OracleVerdict(kind='accept', explored=0, witness=None, cap_hit=False, certificate=None)")
