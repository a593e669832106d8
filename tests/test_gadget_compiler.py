import dataclasses
import json
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_level
from braidbench import gadget_compiler
from braidbench.cli import main
from braidbench.counter_machine import (
    Add,
    CounterProgram,
    Halt,
    SubBranch,
    cm_run,
    cm_step,
    initial_config,
    parse_counter_program,
)
from braidbench.gadget_compiler import (
    Add1,
    Branch,
    CounterStation,
    Goal,
    LeverPull,
    LevelConfig,
    LevelFormatError,
    OpenDoor,
    SOLVED,
    bisimulate,
    compile,
    initial_level_config,
    level_from_json,
    level_run,
    level_step,
    level_to_dot,
    level_to_json,
)
from reference_level import ref_bisimulate, ref_cm_run, ref_cm_step, ref_level_run, ref_level_step
from test_acceptance import CORPUS


def test_compile_halt_only():
    level = compile(CounterProgram(1, (Halt(),)))
    assert isinstance(level.gadgets[level.entry], Goal)


def test_compile_add_halt():
    level = compile(CounterProgram(1, (Add(0), Halt())))
    entry = level.gadgets[level.entry]
    assert isinstance(entry, LeverPull)
    assert level.tim_edges[(level.entry, "out")] == "G1"
    assert len(level.signals) == 1


def test_compile_subbranch_shape():
    level = compile(CounterProgram(1, (SubBranch(0, 0), Halt())))
    levers = [g for g in level.gadgets.values() if isinstance(g, LeverPull)]
    branches = [g for g in level.gadgets.values() if isinstance(g, Branch)]
    assert len(levers) == 2 and len(branches) == 1
    # the empty exit loops back to the instruction's own entry
    assert level.tim_edges[("B0", "empty")] == level.entry
    assert level.tim_edges[("B0", "monstar")] == "G1"


def test_compile_records_instruction_entries():
    p = CounterProgram(1, (Add(0), SubBranch(0, 0), Halt()))
    level = compile(p)
    assert len(level.instruction_entries) == 4
    assert level.instruction_entries[0] == level.entry
    assert level.instruction_entries[3] == "Gend"


def test_level_step_goal_solves():
    level = compile(CounterProgram(1, (Halt(),)))
    assert level_step(level, initial_level_config(level)) is SOLVED


def test_level_step_add_increments():
    level = compile(CounterProgram(1, (Add(0), Halt())))
    c = level_step(level, initial_level_config(level))
    assert c.counters == (1,)


def test_level_step_remove_at_zero_is_noop():
    level = compile(CounterProgram(1, (SubBranch(0, 1), Halt())))
    c = level_step(level, initial_level_config(level))
    assert c.counters == (0,)
    assert c.in_flight == ()


def test_level_step_remove_spawns_monstar():
    level = compile(CounterProgram(1, (SubBranch(0, 1), Halt())))
    c = initial_level_config(level, (2,))
    c = level_step(level, c)  # remove lever
    assert c.counters == (1,) and c.in_flight == ("R0",)
    c = level_step(level, c)  # door lever routes the monstar to the branch
    assert c.in_flight == ("B0",)
    c = level_step(level, c)  # branch: monstar present, slot cleared
    assert c.in_flight == ()
    assert c.tim_at == "G1"


def test_level_run_halt_program():
    level = compile(CounterProgram(1, (Halt(),)))
    res = level_run(level, 10)
    assert res.kind == "solved" and res.ticks == 1


def test_level_run_budget_zero():
    level = compile(CounterProgram(1, (Halt(),)))
    assert level_run(level, 0).kind == "budget"


def test_level_run_nonhalting_budget():
    level = compile(parse_counter_program("counters 1\n0: subb 0 0"))
    assert level_run(level, 10 ** 4).kind == "budget"


def test_bisimulate_two_adds():
    report = bisimulate(CounterProgram(1, (Add(0), Add(0), Halt())), 100)
    assert report.passed
    occ = [b.occupancies for b in report.boundaries]
    assert occ == [(0,), (1,), (2,), (2,)]


def test_bisimulate_zero_branch():
    report = bisimulate(CounterProgram(1, (SubBranch(0, 1), Halt())), 100)
    assert report.passed
    assert report.cm_halted and report.level_solved


def test_bisimulate_nonhalting_both_unfinished():
    p = parse_counter_program("counters 1\n0: subb 0 0")
    report = bisimulate(p, 1000)
    assert report.passed
    assert not report.cm_halted and not report.level_solved


def test_bisimulate_init_counters():
    p = parse_counter_program("counters 2\ninit 2 0\n0: subb 0 2\n1: subb 1 0\n2: halt")
    report = bisimulate(p, 1000)
    assert report.passed


def test_occupancy_never_negative_random_programs():
    rng = random.Random(121)
    for _ in range(100):
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
        level = compile(p)  # Level validation runs in the constructor
        c = initial_level_config(level)
        for _ in range(60):
            nxt = level_step(level, c)
            if nxt is SOLVED:
                break
            c = nxt
            assert all(v >= 0 for v in c.counters)


def test_bisimulate_random_programs():
    rng = random.Random(122)
    for _ in range(60):
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
        assert bisimulate(p, 500).passed


def test_ticks_tracked_against_steps():
    p = CounterProgram(2, (Add(0), Add(1), SubBranch(0, 3), Halt()))
    report = bisimulate(p, 100)
    assert report.passed
    res = cm_run(p, initial_config(p), 100)
    assert report.ticks <= 3 * res.config.steps + 1


def test_json_round_trip():
    level = compile(CounterProgram(2, (Add(1), SubBranch(1, 0), Halt()), (3, 1)))
    assert level.init_counters == (3, 1)
    assert level_from_json(level_to_json(level)) == level
    # a level file without the field starts from zero counters
    obj = json.loads(level_to_json(level))
    del obj["init_counters"]
    assert level_from_json(json.dumps(obj)).init_counters == (0, 0)


def test_json_rejects_garbage():
    with pytest.raises(LevelFormatError):
        level_from_json("{not json")
    with pytest.raises(LevelFormatError):
        level_from_json('{"entry": "x"}')


def test_dot_export_shape():
    level = compile(CounterProgram(1, (SubBranch(0, 0), Halt())))
    dot = level_to_dot(level)
    assert dot.startswith("digraph level {")
    assert "style=dashed" in dot  # monstar edges
    assert '"B0"' in dot


def test_json_rejects_junction_and_ignores_crossover_count():
    level = compile(CounterProgram(1, (Add(0), SubBranch(0, 0), Halt())))
    obj = json.loads(level_to_json(level))
    obj["crossover_count"] = 3
    assert level_from_json(json.dumps(obj)) == level
    # a well-wired junction, which loaded before the gadget was retired
    obj["gadgets"]["J"] = {"kind": "junction"}
    obj["tim_edges"].append({"from": "J", "exit": "out", "to": level.entry})
    with pytest.raises(LevelFormatError):
        level_from_json(json.dumps(obj))


# --- lockstep with the reference semantics in tests/reference_level.py


def outcome(f, *args):
    """The repr of f's result, or the message of the LevelFormatError it
    raises: repr compares every field, with its type."""
    try:
        return repr(f(*args))
    except LevelFormatError as e:
        return f"LevelFormatError: {e}"


def assert_level_steps_agree(level, c, ticks):
    for _ in range(ticks):
        got = outcome(level_step, level, c)
        assert got == outcome(ref_level_step, level, c)
        if got.startswith("LevelFormatError") or got == repr(SOLVED):
            return
        c = ref_level_step(level, c)


@st.composite
def programs(draw):
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 6))
    counter, target = st.integers(0, n - 1), st.integers(0, k - 1)
    ins = draw(st.lists(st.one_of(st.builds(Add, counter), st.builds(SubBranch, counter, target), st.just(Halt())),
                        min_size=k, max_size=k))
    return CounterProgram(n, tuple(ins), tuple(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(p=programs(), budget=st.sampled_from([0, 1, 2]) | st.integers(0, 40))
def test_program_lockstep_with_reference(p, budget):
    assert outcome(bisimulate, p, budget) == outcome(ref_bisimulate, p, budget)
    c = initial_config(p)
    assert outcome(cm_run, p, c, budget) == outcome(ref_cm_run, p, c, budget)
    for _ in range(budget):
        if c.halted:
            break
        assert outcome(cm_step, p, c) == outcome(ref_cm_step, p, c)
        c = ref_cm_step(p, c)
    level = compile(p)
    for init in (None, initial_level_config(level, p.init_counters)):
        for ticks in (budget, 3 * budget + 1):
            assert outcome(level_run, level, ticks, init) == outcome(ref_level_run, level, ticks, init)
    assert_level_steps_agree(level, initial_level_config(level), budget)


@st.composite
def loop_programs(draw):
    """Transfer, drain and add loops over counters a and b, with a zero
    scratch counter z for jumps, from `init` counters in the hundreds. The
    last instruction halts or jumps back to the start, which never halts."""
    a, b, z = draw(st.permutations(range(3)))
    init = [0, 0, 0]
    init[a], init[b] = draw(st.integers(100, 400)), draw(st.integers(100, 400))
    ins = []
    for kind, forward in draw(st.lists(st.tuples(st.sampled_from(["transfer", "drain", "adds"]), st.booleans()),
                                       min_size=1, max_size=4)):
        src, dst = (a, b) if forward else (b, a)
        start = len(ins)
        if kind == "transfer":  # move src into dst, 3 steps a unit
            ins += [SubBranch(src, start + 3), Add(dst), SubBranch(z, start)]
        elif kind == "drain":  # empty src, 2 steps a unit
            ins += [SubBranch(src, start + 2), SubBranch(z, start)]
        else:
            ins += [Add(dst)] * draw(st.integers(1, 4))
    ins.append(draw(st.sampled_from([Halt(), SubBranch(z, 0)])))
    return CounterProgram(3, tuple(ins), tuple(init))


# transfer counter 0 into counter 1, then drain counter 1: halts after 2 603 steps
TRANSFER_DRAIN = CounterProgram(3, (SubBranch(0, 3), Add(1), SubBranch(2, 0), SubBranch(1, 5), SubBranch(2, 3), Halt()),
                                (400, 300, 0))


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(p=loop_programs(), budget=st.just(10 ** 4) | st.integers(0, 10 ** 4))
@example(p=TRANSFER_DRAIN, budget=10 ** 4)
@example(p=TRANSFER_DRAIN, budget=2000)
def test_long_run_lockstep_with_reference(p, budget):
    assert outcome(bisimulate, p, budget) == outcome(ref_bisimulate, p, budget)
    c = initial_config(p)
    assert outcome(cm_run, p, c, budget) == outcome(ref_cm_run, p, c, budget)


# Gadget ids of hand-built levels, with the kinds each may take. A level may
# have the router "R0" that a Remove1 on counter 0 names, or lack it; it
# always lacks "R1". In-flight ids may also be "R1" or "Q", which name no
# gadget.
KINDS = {"R0": ["router", "lever", "branch"], "B0": ["branch", "branch", "counter"], "B1": ["branch"],
         "L0": ["lever"], "L1": ["lever"], "L2": ["lever", "counter"], "G0": ["goal", "counter", "router"]}


@st.composite
def json_levels(draw):
    """A hand-built level JSON, loaded, and a config to start it from. The
    player may reach a station or router, a Remove1 may name a router the
    level lacks, and the start may hold monstars in flight, several at one
    place and at ids that are not gadgets."""
    num_counters = draw(st.integers(1, 2))
    ids = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=2, max_size=6, unique=True))
    anywhere, counter = st.sampled_from(ids), st.integers(0, num_counters - 1)
    gadgets, signals, edges = {}, {}, []
    for gid in ids:
        kind = draw(st.sampled_from(KINDS[gid]))
        gadgets[gid] = {"kind": kind}
        if kind == "lever":
            effect = draw(st.sampled_from(["add1", "remove1", "open-door"]))
            if effect == "open-door":
                signals[f"s{gid}"] = {"effect": effect, "router": draw(anywhere), "branch": draw(anywhere)}
            else:
                signals[f"s{gid}"] = {"effect": effect, "counter": draw(counter)}
            gadgets[gid]["signal"] = f"s{gid}"
            edges.append({"from": gid, "exit": "out", "to": draw(anywhere)})
        elif kind == "branch":
            edges += [{"from": gid, "exit": label, "to": draw(anywhere)} for label in ("monstar", "empty")]
        elif kind == "counter":
            gadgets[gid]["counter"] = draw(counter)
        elif kind == "router":
            gadgets[gid]["doors"] = []
    counts = st.lists(st.integers(0, 3), min_size=num_counters, max_size=num_counters)
    level = level_from_json(json.dumps({
        "entry": draw(anywhere), "num_counters": num_counters, "gadgets": gadgets, "tim_edges": edges,
        "monstar_edges": [], "signals": signals, "init_counters": draw(counts)}))
    in_flight = draw(st.lists(st.sampled_from(sorted(KINDS) + ["R1", "Q"]), max_size=4))
    init = LevelConfig(draw(anywhere), tuple(draw(counts)), tuple(sorted(in_flight)), draw(st.integers(0, 2)))
    return level, init


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(case=json_levels(), budget=st.sampled_from([0, 1]) | st.integers(0, 12))
def test_json_level_lockstep_with_reference(case, budget):
    level, init = case
    for start in (None, init):
        assert outcome(level_run, level, budget, start) == outcome(ref_level_run, level, budget, start)
    assert_level_steps_agree(level, init, budget)


# --- bisimulate must fail on a miscompiled level

def swap_branch_exits(level, branch):
    edges = dict(level.tim_edges)
    edges[(branch, "monstar")], edges[(branch, "empty")] = edges[(branch, "empty")], edges[(branch, "monstar")]
    return dataclasses.replace(level, tim_edges=edges)


def drop_add(level, lever):
    """The add lever becomes a pass-through branch that nothing feeds."""
    assert isinstance(level.signals[level.gadgets[lever].signal], Add1)
    out = level.tim_edges[(lever, "out")]
    edges = {k: v for k, v in level.tim_edges.items() if k != (lever, "out")}
    edges[(lever, "monstar")] = edges[(lever, "empty")] = out
    return dataclasses.replace(level, gadgets={**level.gadgets, lever: Branch()}, tim_edges=edges)


def retarget_door(level, signal, router, branch):
    return dataclasses.replace(level, signals={**level.signals, signal: OpenDoor(router, branch)})


def lever_to_station(level, lever, station):
    """The player walks onto a counter station: the level table's stuck row."""
    return dataclasses.replace(level, tim_edges={**level.tim_edges, (lever, "out"): station})


def mutated(*mutations):
    """A stand-in for compile that applies (function, *args) mutations in
    order to the real compile's level."""
    def mutant(program):
        level = compile(program)  # this module's name for it; the patch replaces gadget_compiler.compile
        for f, *args in mutations:
            level = f(level, *args)
        return level
    return mutant


MUTANTS = {
    # the remove at step 2 frees a monstar, so the player must take B1's monstar exit
    "swapped-branch-exits": (mutated((swap_branch_exits, "B1")),
                             "counters 2\ninit 0 1\n0: add 0\n1: subb 1 3\n2: halt\n3: halt\n", 2),
    "dropped-add": (mutated((drop_add, "L2")), "counters 1\n0: add 0\n1: add 0\n2: add 0\n3: add 0\n4: halt\n", 3),
}


@pytest.mark.parametrize("mutant,src,first_bad", MUTANTS.values(), ids=MUTANTS.keys())
def test_bisimulate_fails_on_miscompiled_level(tmp_path, capsys, monkeypatch, mutant, src, first_bad):
    program = parse_counter_program(src)
    assert bisimulate(program, 100).passed
    monkeypatch.setattr(gadget_compiler, "compile", mutant)
    report = bisimulate(program, 100)
    assert report.passed is False
    assert [b.index for b in report.boundaries if not b.ok][0] == first_bad
    path = tmp_path / "p.cm"
    path.write_text(src)
    assert main(["bisim", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("fail:") and "MISMATCH" in out


@st.composite
def mutations(draw, level):
    """One to three mutations of a compiled level, as mutated() takes them."""
    kinds = {gid: type(g) for gid, g in level.gadgets.items()}
    levers = [gid for gid, k in kinds.items() if k is LeverPull]
    options = {
        swap_branch_exits: [(gid,) for gid, k in kinds.items() if k is Branch],
        drop_add: [(gid,) for gid in levers if isinstance(level.signals[level.gadgets[gid].signal], Add1)],
        retarget_door: [(sig, router, branch) for sig, eff in level.signals.items() if isinstance(eff, OpenDoor)
                        for router in kinds for branch in kinds],
        lever_to_station: [(gid, station) for gid in levers for station, k in kinds.items() if k is CounterStation],
    }
    usable = [f for f, targets in options.items() if targets]
    if not usable:
        return []
    mutation = st.sampled_from(usable).flatmap(lambda f: st.sampled_from(options[f]).map(lambda args: (f, *args)))
    return draw(st.lists(mutation, min_size=1, max_size=3, unique=True))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(p=programs(), data=st.data(), budget=st.sampled_from([0, 1, 2]) | st.integers(0, 40))
def test_miscompiled_level_lockstep_with_reference(p, data, budget):
    mutant = mutated(*data.draw(mutations(compile(p))))
    with mock.patch.object(gadget_compiler, "compile", mutant), mock.patch.object(reference_level, "compile", mutant):
        assert outcome(bisimulate, p, budget) == outcome(ref_bisimulate, p, budget)


# --- the bisim command's output, byte for byte, from the reference report

def bisim_json(report):
    return json.dumps({
        "command": "bisim", "verdict": "pass" if report.passed else "fail", "cm_halted": report.cm_halted,
        "level_solved": report.level_solved, "steps": report.steps, "ticks": report.ticks,
        "boundaries": [{"index": b.index, "pc": b.cm_pc, "counters": list(b.cm_counters), "tim_at": b.tim_at,
                        "occupancies": list(b.occupancies), "ok": b.ok} for b in report.boundaries],
    }, sort_keys=True, separators=(",", ":")) + "\n"


def bisim_text(report):
    out = (f"{'pass' if report.passed else 'fail'}: {len(report.boundaries)} boundaries, "
           f"halted={report.cm_halted} solved={report.level_solved}\n")
    for b in report.boundaries:
        out += (f"  [{b.index}] pc={b.cm_pc} counters={list(b.cm_counters)} tim={b.tim_at} "
                f"occ={list(b.occupancies)} {'ok' if b.ok else 'MISMATCH'}\n")
    return out


BISIM_CASES = {name: (None, src) for name, src in CORPUS.items()}
BISIM_CASES["swapped-branch-exits"] = MUTANTS["swapped-branch-exits"][:2]


@pytest.mark.parametrize("mutant,src", BISIM_CASES.values(), ids=BISIM_CASES.keys())
def test_bisim_output_matches_reference_report(tmp_path, capsys, monkeypatch, mutant, src):
    if mutant is not None:
        monkeypatch.setattr(gadget_compiler, "compile", mutant)
        monkeypatch.setattr(reference_level, "compile", mutant)
    path = tmp_path / "p.cm"
    path.write_text(src)
    report = ref_bisimulate(parse_counter_program(src), 300)
    assert main(["--format", "json", "--max-steps", "300", "bisim", str(path)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == json.loads(bisim_json(report))
    assert out == bisim_json(report)
    assert main(["--max-steps", "300", "bisim", str(path)]) == 0
    assert capsys.readouterr().out == bisim_text(report)


# --- level JSON must give every counter count and index as an int

def _int_edit(edit):
    src = "counters 1\n0: add 0\n1: subb 0 0\n2: halt\n"
    obj = json.loads(level_to_json(compile(parse_counter_program(src))))
    edit(obj)
    return json.dumps(obj)


NON_INT_LEVELS = {
    "add1-counter-float": lambda o: o["signals"]["add0"].update(counter=0.0),
    "add1-counter-bool": lambda o: o["signals"]["add0"].update(counter=False),
    "remove1-counter-float": lambda o: o["signals"]["sub1"].update(counter=0.0),
    "remove1-counter-bool": lambda o: o["signals"]["sub1"].update(counter=False),
    "station-counter-float": lambda o: o["gadgets"]["C0"].update(counter=0.0),
    "station-counter-bool": lambda o: o["gadgets"]["C0"].update(counter=False),
    "init-fraction": lambda o: o.update(init_counters=[1.5]),
    "init-bool": lambda o: o.update(init_counters=[True]),
    "num-counters-bool": lambda o: o.update(num_counters=True),
    "num-counters-float": lambda o: o.update(num_counters=1.0),
}


@pytest.mark.parametrize("edit", NON_INT_LEVELS.values(), ids=NON_INT_LEVELS.keys())
def test_level_rejects_non_int_counters(tmp_path, capsys, edit):
    text = _int_edit(edit)
    with pytest.raises(LevelFormatError):
        level_from_json(text)
    path = tmp_path / "l.json"
    path.write_text(text)
    assert main(["level-sim", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
