import random
import re

import pytest

from braidbench.braidlike_tm import FieldError
from braidbench.counter_machine import (
    ADD,
    BRANCH,
    GOAL,
    MOVE,
    Add,
    CMParseError,
    CounterConfig,
    CounterProgram,
    Halt,
    RunResult,
    SubBranch,
    cm_run,
    cm_step,
    initial_config,
    parse_counter_program,
    run_table,
)
from test_braidlike_tm import ODD_BREAKS


def test_parse_add_halt():
    p = parse_counter_program("counters 1\n0: add 0\n1: halt")
    assert p.num_counters == 1
    assert p.instructions == (Add(0), Halt())


def test_parse_single_subb():
    p = parse_counter_program("counters 1\n0: subb 0 0")
    assert p.instructions == (SubBranch(0, 0),)


def test_parse_counter_out_of_range():
    with pytest.raises(CMParseError):
        parse_counter_program("counters 1\n0: add 5")


def test_parse_goto_out_of_range():
    with pytest.raises(CMParseError):
        parse_counter_program("counters 1\n0: subb 0 9")


def test_parse_out_of_order_index():
    with pytest.raises(CMParseError) as exc:
        parse_counter_program("counters 1\n1: add 0")
    assert exc.value.lineno == 2


@pytest.mark.parametrize("text,lineno,message", [
    ("counters x\n0: halt\n", 1, "expected `counters <k>`"),
    ("counters 1\nadd 0\n", 2, "expected `<i>:` instruction label, got 'add'"),
    ("counters 1\n0: halt 3\n", 2, "halt takes no arguments"),
    ("counters 1\ncounters 2\n0: halt\n", 2, "second `counters` line"),
    ("counters 1\ninit 1\n\ninit 2\n0: halt\n", 4, "second `init` line"),
    ("counters 1\ninit 1 2\n0: halt\n", 2, "init line has more values than counters"),
    ("init 1 2\ncounters 1\n0: halt\n", 1, "init line has more values than counters"),
    ("counters 2\n# start\ninit 1 -1\n0: halt\n", 3, "init values must be non-negative integers"),
    ("counters 1\ninit \u0661\n0: halt\n", 2, "init values must be non-negative integers"),
    ("counters \u0661\n0: halt\n", 1, "expected `counters <k>`"),
    ("counters 1\n0: subb 0 1_0\n", 2, "expected `subb <counter> <target>`"),
    ("counters 1\n0: add +0\n", 2, "expected `add <counter>`"),
    ("counters 1\n:\n", 2, "expected `<i>:` instruction label, got ':'"),
    ("counters 1\n\u0660: halt\n", 2, "expected `<i>:` instruction label, got '\u0660:'"),
    # a CounterProgram check reports the line that gave the field at fault
    ("counters 1\n0: add 5", 2, "instruction 0: counter index 5 out of range"),
    ("counters 1\n0: add 0\n# loop\n1: subb 0 9\n2: halt\n", 4, "instruction 1: goto target 9 out of range"),
    ("counters 1\n0: subb 3 0\n", 2, "instruction 0: counter index 3 out of range"),
    ("# none\ncounters 0\n0: halt\n", 2, "need at least one counter"),
    ("counters 1\n", 0, "program must have at least one instruction"),
    ("0: halt\n", 0, "missing `counters <k>` header"),
])
def test_parse_error_class_and_line(text, lineno, message):
    with pytest.raises(CMParseError, match=re.escape(f"line {lineno}: {message}")) as exc:
        parse_counter_program(text)
    assert exc.value.lineno == lineno


@pytest.mark.parametrize("brk", ODD_BREAKS, ids=ascii)
def test_parse_odd_break_stays_in_its_line(brk):
    assert parse_counter_program(f"counters 1\n# c{brk}0: add 5\n0: halt\n").instructions == (Halt(),)
    with pytest.raises(CMParseError, match=re.escape("line 2: expected `counters <k>`")):
        parse_counter_program(f"# a{brk}b\ncounters x\n0: halt\n")


def test_parse_missing_header():
    with pytest.raises(CMParseError):
        parse_counter_program("0: halt")


def test_parse_comments_and_case():
    p = parse_counter_program("# a comment\nCOUNTERS 2\n0: ADD 1  # inline\n1: Halt\n")
    assert p.num_counters == 2
    assert p.instructions == (Add(1), Halt())


def test_parse_init_line_pads_with_zeros():
    p = parse_counter_program("counters 3\ninit 5\n0: halt")
    assert p.init_counters == (5, 0, 0)


def test_parse_init_too_long():
    with pytest.raises(CMParseError):
        parse_counter_program("counters 1\ninit 1 2\n0: halt")


def test_program_validation():
    with pytest.raises(ValueError):
        CounterProgram(0, (Halt(),))
    with pytest.raises(ValueError):
        CounterProgram(1, ())
    with pytest.raises(ValueError):
        CounterProgram(1, (Halt(),), init_counters=(-1,))


@pytest.mark.parametrize("ins,message", [
    (Add(True), "instruction 0: counter index True is not an integer"),
    (Add(0.5), "instruction 0: counter index 0.5 is not an integer"),
    (SubBranch(0, 0.0), "instruction 0: goto target 0.0 is not an integer"),
], ids=["bool-counter", "float-counter", "float-target"])
def test_program_refuses_instruction_fields_that_are_not_ints(ins, message):
    # each is in range, and a bool counter would run as counter 1
    with pytest.raises(FieldError, match=f"^{re.escape(message)}$") as e:
        CounterProgram(2, (ins, Halt()))
    assert e.value.field == 0


def test_step_add():
    p = CounterProgram(1, (Add(0), Halt()))
    c = cm_step(p, CounterConfig(0, (3,)))
    assert c.counters == (4,) and c.pc == 1 and c.steps == 1


def test_step_subbranch_zero_jumps():
    p = CounterProgram(1, (SubBranch(0, 7),) + (Halt(),) * 7)
    c = cm_step(p, CounterConfig(0, (0,)))
    assert c.counters == (0,) and c.pc == 7


def test_step_subbranch_positive_decrements():
    p = CounterProgram(1, (SubBranch(0, 7),) + (Halt(),) * 7)
    c = cm_step(p, CounterConfig(0, (2,)))
    assert c.counters == (1,) and c.pc == 1


def test_step_halt():
    p = CounterProgram(1, (Halt(),))
    c = cm_step(p, CounterConfig(0, (0,)))
    assert c.halted


def test_step_on_halted_config_rejected():
    p = CounterProgram(1, (Halt(),))
    with pytest.raises(ValueError):
        cm_step(p, CounterConfig(None, (0,)))


def test_run_two_adds():
    p = CounterProgram(1, (Add(0), Add(0), Halt()))
    res = cm_run(p, initial_config(p), 10)
    assert res.kind == "halted"
    assert res.config.counters == (2,)
    assert res.config.steps == 3


def test_run_zero_budget():
    p = CounterProgram(1, (Halt(),))
    res = cm_run(p, initial_config(p), 0)
    assert res.kind == "budget" and res.config.pc == 0


def test_run_from_a_halted_start_returns_it():
    p = CounterProgram(2, (Add(0), Halt()))
    start = CounterConfig(None, (3, 1), 7)
    for budget in (0, 10):
        assert cm_run(p, start, budget) == RunResult("halted", start)


def test_run_nonterminating_hits_budget():
    # subb on an empty counter jumps back to itself forever
    p = parse_counter_program("counters 1\n0: subb 0 0")
    res = cm_run(p, initial_config(p), 100)
    assert res.kind == "budget"
    assert res.config.steps == 100


def test_fall_through_is_implicit_halt():
    # no Halt instruction; pc walks past the end
    p = CounterProgram(1, (Add(0), SubBranch(0, 0)))
    res = cm_run(p, initial_config(p), 100)
    assert res.kind == "halted"
    assert res.config.counters == (0,)


def test_init_counters_flow_into_run():
    p = parse_counter_program("counters 2\ninit 2 0\n0: subb 0 2\n1: subb 1 0\n2: halt")
    res = cm_run(p, initial_config(p), 100)
    assert res.kind == "halted"
    assert res.config.counters == (0, 0)


def test_counters_never_negative_random_programs():
    rng = random.Random(99)
    for _ in range(200):
        n_counters = rng.randint(1, 3)
        n_ins = rng.randint(1, 6)
        ins = []
        for _ in range(n_ins):
            kind = rng.randrange(3)
            if kind == 0:
                ins.append(Add(rng.randrange(n_counters)))
            elif kind == 1:
                ins.append(SubBranch(rng.randrange(n_counters), rng.randrange(n_ins)))
            else:
                ins.append(Halt())
        p = CounterProgram(n_counters, tuple(ins))
        c = initial_config(p)
        for _ in range(50):
            if c.halted:
                break
            prev = c.steps
            c = cm_step(p, c)
            assert all(v >= 0 for v in c.counters)
            assert c.steps == prev + 1


def test_step_is_pure():
    p = CounterProgram(1, (Add(0), Halt()))
    c = CounterConfig(0, (1,))
    assert cm_step(p, c) == cm_step(p, c)
    assert c.counters == (1,) and c.pc == 0


# --- run_table on hand-built tables

def test_run_table_reaches_a_cost_0_goal_at_the_limit():
    table = [(ADD, 0, 0, 1, 0), (GOAL, 0, 0, 0, 0)]
    places = [0]
    assert run_table(table, 0, places, [0], 5, 6) == (1, 6, True)
    assert run_table(table, 1, places, [0], 6, 6) == (1, 6, True)
    assert places == [1]


def test_run_table_does_not_reach_a_cost_1_goal_at_the_limit():
    table = [(ADD, 0, 0, 1, 0), (GOAL, 1, 0, 0, 0)]
    assert run_table(table, 0, [0], [0], 5, 6) == (1, 6, False)
    assert run_table(table, 0, [0], [0], 5, 7) == (1, 7, True)


# A transfer loop from place 0 to place 1 through place 3: a BRANCH takes a
# unit, an ADD puts it at 3 and a MOVE takes it on to 1. Place 2 stays zero,
# so its BRANCH is the back edge. From a units it halts at a cost-0 GOAL
# after 4a + 1 steps.
TRANSFER_ROWS = [(BRANCH, 0, 0, 1, 4), (ADD, 3, 0, 2, 0), (MOVE, 3, 1, 3, 0), (BRANCH, 2, 0, 4, 0), (GOAL, 0, 0, 0, 0)]


@pytest.mark.parametrize("limit", [0, 1, 9, 10, 11, 150, 397, 400, 401, 10 ** 4])
def test_run_table_adds_a_jumping_runs_decrements_to_the_callers_counts(limit):
    # one call, which jumps, against one call a step, each with a fresh
    # `seen`, so none jumps; the counts start nonzero, as a caller's may
    places, dips = [100, 0, 0, 0], [5, 0, 7, 0]
    got = run_table(TRANSFER_ROWS, 0, places, dips, 0, limit)
    step_places, step_dips = [100, 0, 0, 0], [5, 0, 7, 0]
    pos, count, reached = 0, 0, False
    while count < limit and not reached:
        pos, count, reached = run_table(TRANSFER_ROWS, pos, step_places, step_dips, count, count + 1)
    assert (got, places, dips) == ((pos, count, reached), step_places, step_dips)


def test_run_table_counts_each_decrement_once_at_scale():
    a = 10 ** 9
    places, dips = [a, 0, 0, 0], [5, 0, 7, 0]
    assert run_table(TRANSFER_ROWS, 0, places, dips, 0, 10 ** 12) == (4, 4 * a + 1, True)
    assert (places, dips) == ([0, a, 0, 0], [5 + a, 0, 7, a])
