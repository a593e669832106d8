import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import braidbench
from braidbench import cli
from braidbench.braidlike_tm import Configuration, parse_btm, successors
from braidbench.cli import main
from braidbench.counter_machine import parse_counter_program
from braidbench.gadget_compiler import compile, level_to_json

ADDER = "counters 1\n0: add 0\n1: halt\n"
TRIVIAL_REACH = "states 2\nsymbols 2\nstart 0\naccept\ntarget 0\ndeterministic false\n"
DRIFTER = "states 1\nsymbols 1\nstart 0\naccept\ndeterministic true\ntrans 0 0 right 0\n"
RIGHT_WRITER = "states 2\nsymbols 2\nstart 0\naccept\ntarget 1\ntrans 0 0 write 1 0\ntrans 0 1 right 0\n"
GAME = "timed t0 t1\nimmune m0\nstart m0 t0\nspeed 2\nmove m0 t0 m0 t1\ngoal m0 t1\n"
SCANNER = (
    "states 3\nsymbols 3\nstart 0\naccept 2\ndeterministic true\n"
    "trans 0 1 right 0\ntrans 0 2 right 1\n"
    "trans 1 1 right 0\ntrans 1 2 right 1\ntrans 1 0 right 2\n"
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_bisim_pass(tmp_path, capsys):
    code = main(["bisim", write(tmp_path, "adder.cm", ADDER)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("pass:")


def test_btm_reach_trivial(tmp_path, capsys):
    code = main(["btm-reach", write(tmp_path, "t.btm", TRIVIAL_REACH)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("reached")


def test_bounds_two_states(capsys):
    assert main(["bounds", "--states", "2"]) == 0
    assert capsys.readouterr().out.strip() == "det=72 nondet=24576"


def test_unknown_subcommand_exits_one(capsys):
    assert main(["frobnicate"]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_file_exits_one(capsys):
    assert main(["cm-run", "/no/such/file.cm"]) == 1


def test_parse_error_reports_line(tmp_path, capsys):
    path = write(tmp_path, "bad.cm", "counters 1\n0: frob 0\n")
    assert main(["cm-run", path]) == 1
    assert "line 2" in capsys.readouterr().err


def test_cm_run_text_and_json(tmp_path, capsys):
    path = write(tmp_path, "adder.cm", ADDER)
    assert main(["cm-run", path]) == 0
    assert "halted" in capsys.readouterr().out
    assert main(["--format", "json", "cm-run", path]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1  # one compact line
    obj = json.loads(out)
    assert obj["verdict"] == "halted"
    assert obj["counters"] == [1]


def test_btm_decide(tmp_path, capsys):
    drifter = "states 1\nsymbols 1\nstart 0\naccept\ndeterministic true\ntrans 0 0 right 0\n"
    assert main(["btm-decide", write(tmp_path, "d.btm", drifter)]) == 0
    assert capsys.readouterr().out.strip() == "loop"


def test_btm_decide_with_input(tmp_path, capsys):
    path = write(tmp_path, "scan.btm", SCANNER)
    assert main(["btm-decide", path, "--input", "12"]) == 0
    assert capsys.readouterr().out.strip() == "accept"
    assert main(["btm-decide", path, "--input", "21"]) == 0
    assert capsys.readouterr().out.strip() == "reject"


def test_btm_oracle(tmp_path, capsys):
    assert main(["btm-oracle", write(tmp_path, "t.btm", TRIVIAL_REACH)]) == 0
    assert "reached" in capsys.readouterr().out


def test_btm_oracle_default_cap_is_det_bound_plus_one(tmp_path, capsys):
    # a 1-state machine without a target: det bound 5, so the cap is 6 cells
    assert main(["btm-oracle", write(tmp_path, "d.btm", DRIFTER)]) == 0
    assert capsys.readouterr().out == "unresolved (explored 8)\n"


@pytest.mark.parametrize("cap,warned", [(24576, True), (24577, False)])
def test_btm_reach_warns_below_nondet_bound_plus_one(tmp_path, capsys, cap, warned):
    # a 2-state machine with a target: nondet bound 24 576, so the exact cap is 24 577
    assert main(["--max-cells", str(cap), "btm-reach", write(tmp_path, "t.btm", TRIVIAL_REACH)]) == 0
    err = capsys.readouterr().err
    assert err == (f"warning: cell cap {cap} is below the exact bound 24577; "
                   "a not-reached verdict is only bounded\n" if warned else "")


def test_trace_file_replays(tmp_path, capsys):
    reach = (
        "states 3\nsymbols 2\nstart 0\naccept\ntarget 2\n"
        "trans 0 0 write 1 1\ntrans 1 1 right 2\n"
    )
    btm = write(tmp_path, "r.btm", reach)
    trace_path = tmp_path / "trace.json"
    assert main(["--trace", str(trace_path), "btm-reach", btm]) == 0
    capsys.readouterr()
    obj = json.loads(trace_path.read_text())
    assert obj["verdict"] == "reached"
    spec = parse_btm(reach)
    confs = [Configuration(w["state"], w["head"], tuple(w["tape"]))
             for w in obj["witness"]]
    for cur, nxt in zip(confs, confs[1:]):
        assert any(x == nxt for x in successors(spec, cur))
    assert confs[-1].state == spec.target_state


def test_compile_sim_dot_pipeline(tmp_path, capsys):
    cm_path = write(tmp_path, "adder.cm", ADDER)
    level_path = str(tmp_path / "adder.json")
    assert main(["cm-compile", cm_path, "-o", level_path]) == 0
    capsys.readouterr()
    assert main(["level-sim", level_path]) == 0
    assert "solved" in capsys.readouterr().out
    assert main(["level-dot", level_path]) == 0
    assert capsys.readouterr().out.startswith("digraph level {")


@pytest.mark.parametrize("command,name,text", [
    ("cm-compile", "p.cm", ADDER),
    ("level-dot", "l.json", level_to_json(compile(parse_counter_program(ADDER)))),
    ("game-to-btm", "g.game", GAME),
])
def test_output_file_matches_stdout(tmp_path, capsys, command, name, text):
    path = write(tmp_path, name, text)
    assert main([command, path]) == 0
    stdout = capsys.readouterr().out
    out_path = tmp_path / "out"
    assert main([command, path, "-o", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    assert out_path.read_bytes() == stdout.encode()


def test_game_to_btm_round_trip(tmp_path, capsys):
    path = write(tmp_path, "g.game", GAME)
    assert main(["game-to-btm", path]) == 0
    out = capsys.readouterr().out
    spec = parse_btm(out)
    assert spec.target_state is not None
    assert not spec.deterministic


def test_bad_input_symbols_exit_one(tmp_path, capsys):
    drifter = "states 1\nsymbols 1\nstart 0\naccept\ndeterministic true\n"
    assert main(["btm-decide", write(tmp_path, "d.btm", drifter), "--input", "xy"]) == 1


def test_bounds_rejects_nonpositive(capsys):
    assert main(["bounds", "--states", "0"]) == 1


def test_btm_reach_without_target_errors_before_the_cap_check(tmp_path, capsys):
    assert main(["--max-cells", "6", "btm-reach", write(tmp_path, "d.btm", DRIFTER)]) == 1
    err = capsys.readouterr().err
    assert err == "error: btm-reach needs a machine with a declared target state\n"


@pytest.mark.parametrize("argv,name,text,err", [
    (["--max-cells", "0", "btm-reach"], "t.btm", TRIVIAL_REACH, "error: --max-cells must be >= 1\n"),
    (["--max-cells", "-3", "btm-oracle"], "d.btm", DRIFTER, "error: --max-cells must be >= 1\n"),
    (["--max-steps", "-1", "cm-run"], "p.cm", ADDER, "error: --max-steps must be >= 0\n"),
    (["--max-steps", "-1", "bisim"], "p.cm", ADDER, "error: --max-steps must be >= 0\n"),
], ids=["reach-cells-0", "oracle-cells-negative", "cm-run-steps-negative", "bisim-steps-negative"])
def test_budget_flags_checked_before_any_work(tmp_path, capsys, argv, name, text, err):
    # the error names the flag, and no below-bound warning comes first
    assert main([*argv, write(tmp_path, name, text)]) == 1
    assert capsys.readouterr() == ("", err)


def test_btm_reach_warns_with_a_bound_too_long_for_decimal(tmp_path, capsys):
    # speed 64 gives a 130-state machine, whose nondet bound has over 5 000 digits
    game = write(tmp_path, "g.game", GAME.replace("speed 2", "speed 64"))
    btm = str(tmp_path / "g.btm")
    assert main(["game-to-btm", game, "-o", btm]) == 0
    assert main(["--max-cells", "9", "btm-reach", btm]) == 0
    out, err = capsys.readouterr()
    assert out == "reached (explored 69 configurations)\n"
    assert err == ("warning: cell cap 9 is below the exact bound of 17435 bits; "
                   "a not-reached verdict is only bounded\n")


def test_bounds_too_long_for_decimal_exits_one(capsys):
    assert main(["bounds", "--states", "130"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: the nondet bound for 130 states has 17435 bits, too many to print in decimal\n"


def test_btm_reach_target_seen_mid_excursion(tmp_path, capsys):
    # reached only through a target visited partway through a leftward
    # excursion, which the removed --prune search reported as not-reached
    path = write(tmp_path, "mid.btm", (
        "states 3\nsymbols 2\nstart 0\naccept\ntarget 1\n"
        "trans 0 0 right 0\ntrans 0 0 left 2\ntrans 0 1 write 0 0\n"
        "trans 1 0 left 2\ntrans 1 1 write 0 2\n"
        "trans 2 0 left 1\ntrans 2 1 write 0 0\ntrans 2 1 left 2\n"))
    assert main(["--max-cells", "64", "btm-reach", path]) == 0
    assert capsys.readouterr().out.startswith("reached")
    assert main(["btm-reach", path, "--prune"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_out_of_memory_exits_one(tmp_path, capsys, monkeypatch):
    def exhausted(text):
        raise MemoryError

    monkeypatch.setattr(cli.cm, "parse_counter_program", exhausted)
    assert main(["cm-run", write(tmp_path, "adder.cm", ADDER)]) == 1
    assert capsys.readouterr().err == "error: out of memory\n"


SUBPROCESS_MEMORY = 400 * 2 ** 20


def run_limited(*args):
    """Run `python *args` on this package with its address space capped, so a
    search that outgrows the cap ends in MemoryError instead of taking the
    machine's memory."""
    def cap_memory():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (SUBPROCESS_MEMORY, hard))

    src = str(Path(braidbench.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=120,
                          preexec_fn=cap_memory, env=env)


def test_right_writer_at_exact_cap():
    # The default cap is 24 577 cells. Copying the tape per configuration
    # took about 2.4 GB on this search; the tape zipper takes O(1) memory
    # per configuration.
    code = ("from braidbench import decide_reachability, parse_btm\n"
            f"r = decide_reachability(parse_btm({RIGHT_WRITER!r}))\n"
            "print(r.kind, r.explored, r.cap_hit)")
    out = run_limited("-c", code)
    assert (out.returncode, out.stdout) == (0, "not-reached 49155 True\n"), out.stderr


def test_btm_reach_right_writer_default_cap(tmp_path):
    out = run_limited("-m", "braidbench.cli", "btm-reach", write(tmp_path, "rw.btm", RIGHT_WRITER))
    assert (out.returncode, out.stdout) == (0, "not-reached (explored 49155 configurations)\n"), out.stderr


def test_compiled_level_starts_from_init(tmp_path, capsys):
    # from zero counters the program loops at instruction 2; from init it halts
    cm_path = write(tmp_path, "init.cm", "counters 2\ninit 1 0\n0: subb 0 2\n1: halt\n2: subb 1 2\n")
    assert main(["--max-steps", "1000", "cm-run", cm_path]) == 0
    assert capsys.readouterr().out.startswith("halted")
    level_path = str(tmp_path / "init.json")
    assert main(["cm-compile", cm_path, "-o", level_path]) == 0
    assert main(["--max-steps", "1000", "level-sim", level_path]) == 0
    assert capsys.readouterr().out.startswith("solved")


def _adder_level(edit):
    obj = json.loads(level_to_json(compile(parse_counter_program(ADDER))))
    edit(obj)
    return json.dumps(obj)


# name -> (argv with {f} for the input file and {d} for its directory,
#          input file name, input text, expected start of stderr)
BAD_INPUTS = {
    "non-integer-write": (["btm-decide", "{f}"], "m.btm",
                          DRIFTER + "trans 0 0 write x 0\n", "error: line 7:"),
    "decide-nondeterministic": (["btm-decide", "{f}"], "m.btm", TRIVIAL_REACH, "error:"),
    "reach-without-target": (["btm-reach", "{f}"], "m.btm", DRIFTER, "error:"),
    "level-not-an-object": (["level-sim", "{f}"], "l.json", "[]", "error:"),
    "level-counter-out-of-range": (
        ["level-sim", "{f}"], "l.json",
        _adder_level(lambda o: o["signals"]["add0"].update(counter=5)), "error:"),
    "level-missing-exit": (
        ["level-sim", "{f}"], "l.json",
        _adder_level(lambda o: o["tim_edges"].clear()), "error:"),
    "unwritable-trace": (["--trace", "{d}/missing/t.json", "btm-reach", "{f}"], "m.btm",
                         TRIVIAL_REACH, "error:"),
    "unwritable-output": (["cm-compile", "{f}", "-o", "{d}/missing/l.json"], "p.cm", ADDER, "error:"),
    "decide-input-out-of-range": (["btm-decide", "{f}", "--input", "19"], "m.btm", SCANNER,
                                  "error: input symbol 9 out of range"),
    "bisim-negative-budget": (["--max-steps", "-3", "bisim", "{f}"], "p.cm", ADDER, "error:"),
    "oracle-negative-budget": (["--max-steps", "-3", "btm-oracle", "{f}"], "m.btm", DRIFTER, "error:"),
}


@pytest.mark.parametrize("argv,name,text,err", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_one_with_error(tmp_path, capsys, argv, name, text, err):
    path = write(tmp_path, name, text)
    assert main([a.format(f=path, d=tmp_path) for a in argv]) == 1
    assert capsys.readouterr().err.startswith(err)


# --- fuzzing: generated .btm and .cm text never escapes the exit-code contract

NUM = st.one_of(st.integers(0, 3).map(str), st.sampled_from(["-1", "x", "\u00b2", ""]))
GARBAGE = st.text(max_size=6)

BTM_HEADER = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2)).map(
    lambda t: f"states {t[0]}\nsymbols {t[1]}\nstart {t[2]}\ndeterministic true\n")
BTM_LINE = st.one_of(
    st.tuples(st.sampled_from(["states", "symbols", "start", "target", "accept"]), NUM).map(" ".join),
    st.sampled_from(["deterministic true", "deterministic false", "deterministic maybe"]),
    st.tuples(NUM, NUM, st.sampled_from(["write", "left", "right", "jump"]),
              st.lists(NUM, max_size=2)).map(lambda t: " ".join(["trans", t[0], t[1], t[2], *t[3]])),
    GARBAGE,
)
BTM_TEXT = st.tuples(st.one_of(BTM_HEADER, st.just("")), st.lists(BTM_LINE, max_size=10)).map(
    lambda t: t[0] + "\n".join(t[1]))

CM_HEADER = st.tuples(st.integers(1, 3), st.lists(NUM, max_size=3)).map(
    lambda t: f"counters {t[0]}\ninit {' '.join(t[1])}\n")
CM_BODY = st.one_of(
    st.tuples(st.sampled_from(["add", "subb", "halt", "frob"]), st.lists(NUM, max_size=2)).map(
        lambda t: " ".join([t[0], *t[1]])),
    GARBAGE,
)
CM_TEXT = st.tuples(st.one_of(CM_HEADER, st.just("")), st.lists(CM_BODY, max_size=8)).map(
    lambda t: t[0] + "\n".join(f"{i}: {b}" for i, b in enumerate(t[1])))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(btm=BTM_TEXT, cm=CM_TEXT)
def test_cli_fuzz_exit_codes(tmp_path_factory, btm, cm):
    d = tmp_path_factory.getbasetemp()
    btm_path, cm_path = write(d, "fuzz.btm", btm), write(d, "fuzz.cm", cm)
    assert main(["btm-decide", btm_path]) in (0, 1)
    assert main(["--max-steps", "100", "cm-run", cm_path]) in (0, 1)
