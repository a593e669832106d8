import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import braidbench
from braidbench import cli
from braidbench.braidlike_tm import Configuration, ParseError, parse_btm, successors
from braidbench.cli import main
from braidbench.counter_machine import parse_counter_program
from braidbench.gadget_compiler import compile, level_from_json, level_run, level_to_json
from braidbench.oracle_sim import Certificate, check_certificate, det_behavior_oracle, reach_bfs, read_only_oracle
from braidbench.rewind_timeline import parse_game
from braidbench.tour_guide import GuideInvariantError, det_guide_bound, nondet_guide_bound
from test_acceptance import CORPUS

ADDER = "counters 1\n0: add 0\n1: halt\n"
TRIVIAL_REACH = "states 2\nsymbols 2\nstart 0\naccept\ntarget 0\ndeterministic false\n"
DRIFTER = "states 1\nsymbols 1\nstart 0\naccept\ndeterministic true\ntrans 0 0 right 0\n"
RIGHT_WRITER = "states 2\nsymbols 2\nstart 0\naccept\ntarget 1\ntrans 0 0 write 1 0\ntrans 0 1 right 0\n"
GAME = "timed t0 t1\nimmune m0\nstart m0 t0\nspeed 2\nmove m0 t0 m0 t1\ngoal m0 t1\n"
# Writes a marker, then pairs of 1s, then walks back flipping parity, so
# target 8 is unreachable; no n-gram proof closes, so btm-reach answers by
# a BFS that hits any small cap. Padding the state count changes nothing
# but the guide bounds, which btm-reach does not read.
PARITY = (
    "symbols 3\nstart 0\naccept\ntarget 8\n"
    "trans 0 0 write 2 1\ntrans 1 2 right 2\ntrans 2 0 write 1 3\ntrans 3 1 right 4\ntrans 4 0 write 1 5\n"
    "trans 5 1 right 2\ntrans 5 1 left 7\ntrans 6 1 left 7\ntrans 7 1 left 6\ntrans 7 2 write 2 8\n"
)
# walks right twice, then left until its fourth step leaves it stuck at cell 0
STAIRS = ("states 3\nsymbols 1\nstart 0\naccept\ndeterministic true\n"
          "trans 0 0 right 1\ntrans 1 0 right 2\ntrans 2 0 left 2\n")
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
    assert capsys.readouterr() == ("det=72 nondet=24576\n", "")


def test_unknown_subcommand_exits_one(capsys):
    assert main(["frobnicate"]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_file_exits_one(capsys):
    assert main(["cm-run", "/no/such/file.cm"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")


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


@pytest.mark.parametrize("text", ["12", "21", ""])
def test_btm_oracle_with_input_is_read_only_oracle(tmp_path, capsys, text):
    path = write(tmp_path, "scan.btm", SCANNER)
    res = read_only_oracle(parse_btm(SCANNER), tuple(int(ch) for ch in text))
    assert main(["btm-oracle", path, "--input", text]) == 0
    assert capsys.readouterr().out == f"{res.kind} (explored {res.explored})\n"
    assert main(["--format", "json", "btm-oracle", path, "--input", text]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "command": "btm-oracle", "verdict": res.kind, "explored": res.explored,
        "witness": None, "certificate": None}


@pytest.mark.parametrize("argv,btm,line", [
    (["btm-oracle", "{f}", "--input", ""], STAIRS, "reject (explored 4)"),
    # the BFS runs to the cap: 2 configurations a cell, and one at the cap
    (["--max-cells", "2048", "btm-oracle", "{f}"], RIGHT_WRITER, "not-reached (explored 4097)"),
], ids=["stairs-empty-input", "right-writer-2048-cells"])
def test_btm_oracle_verdict_lines(tmp_path, capsys, argv, btm, line):
    path = write(tmp_path, "m.btm", btm)
    assert main([a.format(f=path) for a in argv]) == 0
    assert capsys.readouterr() == (line + "\n", "")


def test_guide_invariant_error_exits_two(tmp_path, capsys, monkeypatch):
    def broken(spec, inp=None):
        raise GuideInvariantError("head beyond the end of the guide chain")

    monkeypatch.setattr(cli, "decide_det_braidlike", broken)
    assert main(["btm-decide", write(tmp_path, "d.btm", DRIFTER)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: head beyond the end of the guide chain\n"


def test_btm_oracle_default_cap_is_det_bound_plus_one(tmp_path, capsys, monkeypatch):
    # a 1-state machine without a target: det bound 5, so the cap is 6 cells.
    # No 1-state machine walks past cell 1 and then halts, so the drifter
    # stands in: the simulation stops at the cap, then a proof closes.
    caps = []

    def oracle(spec, max_steps, max_cells):
        caps.append(max_cells)
        return det_behavior_oracle(spec, max_steps, max_cells)

    monkeypatch.setattr(cli, "det_behavior_oracle", oracle)
    assert main(["btm-oracle", write(tmp_path, "d.btm", DRIFTER)]) == 0
    assert capsys.readouterr().out == "loop (closed 1-gram set, 2 windows)\n"
    assert caps == [6]


def cut_warning(cap):
    """btm-reach's stderr beside a not-reached verdict whose BFS hit the cap."""
    return f"warning: cell cap {cap} cut the search; a not-reached verdict is only bounded\n"


@pytest.mark.parametrize("cap", [9, 12])
def test_btm_reach_warns_below_nondet_bound_plus_one(tmp_path, capsys, cap):
    # the warning fires because the BFS cut at the cap; it names no bound
    assert main(["--max-cells", str(cap), "btm-reach", write(tmp_path, "p.btm", "states 9\n" + PARITY)]) == 0
    explored = {9: 39, 12: 55}[cap]
    assert capsys.readouterr() == (f"not-reached (explored {explored} configurations)\n", cut_warning(cap))


@pytest.mark.parametrize("btm,cap,verdict", [
    (TRIVIAL_REACH, 24576, "reached (explored 1 configurations)"),
    (TRIVIAL_REACH, 24577, "reached (explored 1 configurations)"),
    (RIGHT_WRITER, 3, "not-reached (closed 1-gram set, 4 windows)"),
], ids=["reached", "reached-at-bound", "certified"])
def test_btm_reach_warns_only_beside_a_bounded_verdict(tmp_path, capsys, btm, cap, verdict):
    assert main(["--max-cells", str(cap), "btm-reach", write(tmp_path, "t.btm", btm)]) == 0
    assert capsys.readouterr() == (verdict + "\n", "")


def test_trace_file_replays(tmp_path, capsys):
    reach = (
        "states 3\nsymbols 2\nstart 0\naccept\ntarget 2\n"
        "trans 0 0 write 1 1\ntrans 1 1 right 2\n"
    )
    btm = write(tmp_path, "r.btm", reach)
    trace_path = tmp_path / "trace.json"
    trace_path.write_text("[" * 10_000)  # a longer file is cut to the new length
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


def test_level_file_bytes_are_pinned(tmp_path, capsys):
    # the adder starts from `init` counters and compiles two subb
    # instructions, so its level has every gadget kind and signal effect
    data = Path(__file__).parent / "data"
    level_path, dot_path = tmp_path / "adder.json", tmp_path / "adder.dot"
    assert main(["cm-compile", write(tmp_path, "adder.cm", CORPUS["adder"]), "-o", str(level_path)]) == 0
    assert main(["level-dot", str(level_path), "-o", str(dot_path)]) == 0
    assert capsys.readouterr() == ("", "")
    assert level_path.read_bytes() == (data / "adder.level.json").read_bytes()
    assert level_path.read_bytes().count(b"\n") == 1  # one compact line
    assert dot_path.read_bytes() == (data / "adder.dot").read_bytes()


def test_legacy_level_file_loads_to_the_same_level(capsys):
    # the adder as cm-compile wrote it while routers listed their doors and
    # the level its monstar_edges; both keys are now ignored on load
    data = Path(__file__).parent / "data"
    legacy = data / "adder.legacy.level.json"
    assert level_from_json(legacy.read_text()) == level_from_json((data / "adder.level.json").read_text())
    assert main(["level-dot", str(legacy)]) == 0
    assert capsys.readouterr() == ((data / "adder.dot").read_text(), "")


def test_indented_level_file_runs_like_the_compact_one(capsys):
    # the adder as cm-compile wrote it, indented, before it wrote one compact line
    data = Path(__file__).parent / "data"
    indented, compact = data / "adder.indented.level.json", data / "adder.level.json"
    assert level_from_json(indented.read_text()) == level_from_json(compact.read_text())
    printed = {}
    for path in (indented, compact):
        for command in ("level-sim", "level-dot"):
            assert main([command, str(path)]) == 0
            printed[path.name, command] = capsys.readouterr()
    assert printed[indented.name, "level-sim"].out.startswith("solved")
    for command in ("level-sim", "level-dot"):
        assert printed[indented.name, command] == printed[compact.name, command]


@pytest.mark.parametrize("command,name,text", [
    ("cm-compile", "p.cm", ADDER),
    ("level-dot", "l.json", level_to_json(compile(parse_counter_program(ADDER)))),
    ("game-to-btm", "g.game", GAME),
], ids=["cm-compile", "level-dot", "game-to-btm"])
def test_output_file_matches_stdout(tmp_path, capsys, command, name, text):
    path = write(tmp_path, name, text)
    assert main([command, path]) == 0
    stdout = capsys.readouterr().out
    out_path = tmp_path / "out"
    assert main([command, path, "-o", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    assert out_path.read_bytes() == stdout.encode()
    # a longer file is rewritten in place and cut to the new length
    out_path.write_bytes(b"x" * 100_000)
    inode = out_path.stat().st_ino
    assert main([command, path, "-o", str(out_path)]) == 0
    assert out_path.read_bytes() == stdout.encode()
    assert out_path.stat().st_ino == inode
    # and a symlink is written through, not replaced
    link = tmp_path / "link"
    link.symlink_to(out_path)
    out_path.write_bytes(b"x" * 100_000)
    assert main([command, path, "-o", str(link)]) == 0
    assert link.is_symlink() and out_path.read_bytes() == stdout.encode()


def test_output_to_devnull(tmp_path, capsys):
    # /dev/null cannot be truncated, so the writer must not try
    assert main(["cm-compile", write(tmp_path, "p.cm", ADDER), "-o", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


def test_writers_open_without_truncating(tmp_path, capsys, monkeypatch):
    # truncating a non-empty file to zero and closing it makes ext4 flush it
    flags = {}
    real_open = cli.os.open

    def spy(path, flag, *args, **kwargs):
        flags[str(path)] = flag
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(cli.os, "open", spy)
    out, trace = str(tmp_path / "l.json"), str(tmp_path / "trace.json")
    assert main(["cm-compile", write(tmp_path, "p.cm", ADDER), "-o", out]) == 0
    assert main(["--trace", trace, "btm-reach", write(tmp_path, "t.btm", TRIVIAL_REACH)]) == 0
    capsys.readouterr()
    assert out in flags and trace in flags
    assert not (flags[out] | flags[trace]) & os.O_TRUNC


def test_parser_reuse_carries_no_option_over(tmp_path, capsys):
    parity, scan = write(tmp_path, "p.btm", "states 9\n" + PARITY), write(tmp_path, "scan.btm", SCANNER)
    assert main(["--max-cells", "9", "--format", "json", "btm-reach", parity]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["verdict"] == "not-reached" and err.startswith("warning: cell cap 9 ")
    assert main(["btm-reach", parity]) == 0
    assert capsys.readouterr() == ("unresolved (budget of 100000 configurations exceeded)\n", "")
    assert main(["btm-decide", scan, "--input", "12"]) == 0
    assert capsys.readouterr().out == "accept\n"
    assert main(["btm-decide", scan]) == 0
    assert capsys.readouterr().out == "reject\n"
    assert cli._build_parser() is cli._build_parser()


def test_game_to_btm_round_trip(tmp_path, capsys):
    path = write(tmp_path, "g.game", GAME)
    assert main(["game-to-btm", path]) == 0
    out = capsys.readouterr().out
    spec = parse_btm(out)
    assert spec.target_state is not None
    assert not spec.deterministic


def test_game_to_btm_output_is_reached_by_btm_reach(tmp_path, capsys):
    # the one-move game without a speed line: its machine reaches the target within 9 cells
    btm = str(tmp_path / "g.btm")
    assert main(["game-to-btm", write(tmp_path, "g.game", GAME.replace("speed 2\n", "")), "-o", btm]) == 0
    assert main(["--format", "json", "--max-cells", "9", "btm-reach", btm]) == 0
    out, err = capsys.readouterr()
    assert '"verdict":"reached"' in out and json.loads(out)["verdict"] == "reached" and err == ""


def test_game_to_btm_does_not_depend_on_speed(tmp_path, capsys):
    # seeks are unit moves, so the machine is the same at every speed
    texts = []
    for speed in ("1", "64"):
        assert main(["game-to-btm", write(tmp_path, "g.game", GAME.replace("speed 2", f"speed {speed}"))]) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]


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
    # the parity machine padded to 130 states: the nondet bound for 130
    # states has over 5 000 digits, and the warning names the cap alone
    assert main(["--max-cells", "9", "btm-reach", write(tmp_path, "p.btm", "states 130\n" + PARITY)]) == 0
    assert capsys.readouterr() == ("not-reached (explored 39 configurations)\n", cut_warning(9))


@pytest.mark.parametrize("states", [1, 117])
def test_bounds_prints_up_to_117_states(capsys, states):
    # 117 states: a nondet bound of 14 171 bits, within the 4 300 digits
    # Python prints by default
    assert main(["bounds", "--states", str(states)]) == 0
    assert capsys.readouterr() == (f"det={det_guide_bound(states)} nondet={nondet_guide_bound(states)}\n", "")


def test_bounds_refuses_from_118_states(capsys):
    assert main(["bounds", "--states", "118"]) == 1
    assert capsys.readouterr() == (
        "", "error: the nondet bound for 118 states has 14410 bits, too many to print in decimal\n")


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


HUGE = 10 ** 20  # a count no list can index: [0] * HUGE raises OverflowError
HUGE_CM = f"counters {HUGE}\n0: halt\n"
HUGE_LEVEL = json.dumps({"entry": "G", "num_counters": HUGE, "gadgets": {"G": {"kind": "goal"}},
                         "tim_edges": [], "signals": {}})
HUGE_INPUTS = {
    "btm-decide": ("m.btm", f"states {HUGE}\nsymbols 1\nstart 0\naccept\ndeterministic true\n"),
    "btm-oracle": ("m.btm", f"states {HUGE}\nsymbols 1\nstart 0\naccept\ntarget 1\n"),
    "cm-run": ("p.cm", HUGE_CM),
    "cm-compile": ("p.cm", HUGE_CM),
    "bisim": ("p.cm", HUGE_CM),
    "level-sim": ("l.json", HUGE_LEVEL),
    "level-dot": ("l.json", HUGE_LEVEL),
}


@pytest.mark.parametrize("command,name,text", [(c, *v) for c, v in HUGE_INPUTS.items()], ids=HUGE_INPUTS.keys())
def test_count_too_large_to_index_exits_one(tmp_path, capsys, command, name, text):
    assert main([command, write(tmp_path, name, text)]) == 1
    assert capsys.readouterr() == (
        "", "error: number too large: cannot fit 'int' into an index-sized integer\n")


SUBPROCESS_MEMORY = 400 * 2 ** 20


def run_limited(*args, timeout=120):
    """Run `python *args` on this package with its address space capped, so a
    search that outgrows the cap ends in MemoryError instead of taking the
    machine's memory; past `timeout` seconds it raises TimeoutExpired."""
    def cap_memory():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (SUBPROCESS_MEMORY, hard))

    src = str(Path(braidbench.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=timeout,
                          preexec_fn=cap_memory, env=env)


def test_right_writer_at_exact_cap():
    # The default cap is 24 577 cells. Copying the tape per configuration
    # took about 2.4 GB on this search; the tape zipper takes O(1) memory
    # per configuration.
    code = ("from braidbench import parse_btm, reach_bfs\n"
            "from braidbench.tour_guide import default_cell_cap\n"
            f"spec = parse_btm({RIGHT_WRITER!r})\n"
            "r = reach_bfs(spec, default_cell_cap(spec))\n"
            "print(r.kind, r.explored, r.cap_hit)")
    out = run_limited("-c", code)
    assert (out.returncode, out.stdout) == (0, "not-reached 49155 True\n"), out.stderr


def test_btm_reach_right_writer_default_cap(tmp_path):
    # btm-reach proves the target unreachable; btm-oracle runs the BFS to the cap
    path = write(tmp_path, "rw.btm", RIGHT_WRITER)
    out = run_limited("-m", "braidbench.cli", "btm-reach", path)
    assert (out.returncode, out.stdout) == (0, "not-reached (closed 1-gram set, 4 windows)\n"), out.stderr
    out = run_limited("-m", "braidbench.cli", "btm-oracle", path)
    assert (out.returncode, out.stdout) == (0, "not-reached (explored 49155)\n"), out.stderr


def test_btm_reach_settles_a_large_machine_without_its_guide_bound(tmp_path):
    # no transitions, so a 1-gram proof settles it; the default cap, the
    # guide bound of 10^10 bits, once took the subprocess's memory first
    path = write(tmp_path, "big.btm", "states 100000\nsymbols 1\nstart 0\naccept\ntarget 1\n")
    out = run_limited("-m", "braidbench.cli", "btm-reach", path)
    assert (out.returncode, out.stdout) == (0, "not-reached (closed 1-gram set, 1 windows)\n"), out.stderr


def test_btm_reach_warns_below_a_bound_too_big_to_build(tmp_path):
    # the parity machine padded to 100 000 states: its BFS stops at the
    # 9-cell cap, and nothing the size of the guide bound of 10^10 bits is
    # built under the subprocess's memory cap
    path = write(tmp_path, "p.btm", "states 100000\n" + PARITY)
    out = run_limited("-m", "braidbench.cli", "--max-cells", "9", "btm-reach", path)
    assert (out.returncode, out.stdout) == (0, "not-reached (explored 39 configurations)\n"), out.stderr
    assert out.stderr == cut_warning(9)


def test_btm_oracle_searches_a_large_machine_without_its_guide_bound(tmp_path):
    # no search within the budget of --max-steps configurations reaches
    # max-steps + 1 cells, so the oracle's default cap stops there
    path = write(tmp_path, "big.btm", "states 100000\nsymbols 1\nstart 0\naccept\ntarget 1\n")
    out = run_limited("-m", "braidbench.cli", "btm-oracle", path)
    assert (out.returncode, out.stdout, out.stderr) == (0, "not-reached (explored 1)\n", "")


def test_btm_oracle_does_not_build_a_huge_det_bound(tmp_path):
    # (N+4)^N * N for 10^7 states has about 2.3 * 10^8 bits; the oracle's
    # default cap needs only to know that it is past the budget
    path = write(tmp_path, "big.btm", "states 10000000\nsymbols 1\nstart 0\naccept\ndeterministic true\n")
    out = run_limited("-m", "braidbench.cli", "btm-oracle", path, timeout=10)
    assert (out.returncode, out.stdout, out.stderr) == (0, "reject (explored 1)\n", "")


@pytest.mark.parametrize("command,line", [
    ("btm-decide", "accept"),
    ("btm-oracle", "accept (explored 0)"),
    ("btm-reach", "reached (explored 1 configurations)"),
])
def test_a_start_that_halts_is_settled_before_lowering(tmp_path, command, line):
    # lowering 10^8 states builds 10^8 rows, past the subprocess's memory
    # cap; a start that accepts or is the target needs no step table
    head = "states 100000000\nsymbols 1\nstart 0\n"
    text = head + ("accept\ntarget 0\n" if command == "btm-reach" else "accept 0\ndeterministic true\n")
    out = run_limited("-m", "braidbench.cli", command, write(tmp_path, "big.btm", text), timeout=10)
    assert (out.returncode, out.stdout, out.stderr) == (0, line + "\n", "")


def test_bounds_too_big_to_print_is_not_built():
    # the nondet bound of 10^10 bits is refused by its bit length; building
    # it once took the subprocess's memory first
    out = run_limited("-m", "braidbench.cli", "bounds", "--states", "100000")
    assert (out.returncode, out.stdout) == (1, "")
    assert out.stderr == ("error: the nondet bound for 100000 states has 10000400034 bits, "
                          "too many to print in decimal\n")


# moves counter 0 into counter 1 one unit at a time: 3 * 10^9 + 2 steps,
# which each command jumps instead of stepping
TRANSFER = "counters 3\ninit 1000000000 0 0\n0: subb 0 3\n1: add 1\n2: subb 2 0\n3: halt\n"


def test_transfer_of_a_billion_runs_within_ten_seconds(tmp_path, capsys):
    path, level_path = write(tmp_path, "transfer.cm", TRANSFER), str(tmp_path / "transfer.json")

    def run(*argv):
        out = run_limited("-m", "braidbench.cli", "--max-steps", str(10 ** 12), *argv, timeout=10)
        assert (out.returncode, out.stderr) == (0, ""), out.stderr
        return out.stdout

    assert run("cm-run", path) == "halted: counters=[0, 1000000000, 0] steps=3000000002\n"
    lines = run("bisim", path).splitlines()
    assert len(lines) == 14 and lines[0].startswith("pass:")
    obj = json.loads(run("--format", "json", "bisim", path))
    assert (obj["verdict"], obj["steps"], len(obj["boundaries"])) == ("pass", 3000000002, 13)
    assert main(["cm-compile", path, "-o", level_path]) == 0
    assert capsys.readouterr() == ("", "")
    assert Path(level_path).read_text().count("\n") == 1
    assert run("level-sim", level_path) == "solved: ticks=7000000004\n"


PILE_UP = json.dumps({
    "entry": "L0", "num_counters": 1, "gadgets": {"L0": {"kind": "lever", "signal": "s"}},
    "tim_edges": [{"from": "L0", "exit": "out", "to": "L0"}],
    "signals": {"s": {"effect": "remove1", "counter": 0}}, "init_counters": [10 ** 8]})


def test_level_sim_counts_piled_up_monstars(tmp_path):
    # the lever sends 10^8 monstars to one router in one jump; one id per
    # monstar once took the subprocess's memory first
    path = write(tmp_path, "pile.json", PILE_UP)
    out = run_limited("-m", "braidbench.cli", "--max-steps", str(10 ** 12), "level-sim", path)
    assert (out.returncode, out.stdout, out.stderr) == (0, "budget: ticks=1000000000000\n", "")
    res = level_run(level_from_json(PILE_UP), 10 ** 12)
    assert res.config.counters == (0,) and res.config.in_flight == (("R0", 10 ** 8),)


def test_btm_oracle_default_cap_stops_past_the_budget(tmp_path, capsys, monkeypatch):
    caps = []

    def bfs(spec, cell_cap, max_explored):
        caps.append(cell_cap)
        return reach_bfs(spec, cell_cap, max_explored=max_explored)

    monkeypatch.setattr(cli, "reach_bfs", bfs)
    path = write(tmp_path, "rw.btm", RIGHT_WRITER)
    # the 2-state nondet bound is 24 576, so the exact cap is 24 577
    for steps, cap in [(10, 11), (24575, 24576), (24576, 24577), (10 ** 6, 24577)]:
        assert main(["--max-steps", str(steps), "btm-oracle", path]) == 0
        capsys.readouterr()
        assert caps.pop() == cap


WALKER = ("states 21\nsymbols 1\nstart 0\naccept\ntarget 20\n"
          + "".join(f"trans {q} 0 right {q + 1}\n" for q in range(20)))


def test_every_verdict_rewrites_the_trace(tmp_path, capsys):
    # a run with no witness or certificate still writes its own verdict, so
    # no earlier run's trace is left behind
    trace = str(tmp_path / "tr.json")
    assert main(["--trace", trace, "btm-reach", write(tmp_path, "t.btm", TRIVIAL_REACH)]) == 0
    assert json.loads(Path(trace).read_text())["witness"] == [{"state": 0, "head": 0, "tape": []}]
    assert main(["--trace", trace, "--max-steps", "20", "btm-reach", write(tmp_path, "w.btm", WALKER)]) == 0
    assert capsys.readouterr().out.endswith("unresolved (budget of 20 configurations exceeded)\n")
    assert json.loads(Path(trace).read_text()) == {"verdict": "unresolved"}
    assert main(["--trace", trace, "btm-decide", write(tmp_path, "d.btm", DRIFTER)]) == 0
    assert json.loads(Path(trace).read_text()) == {"verdict": "loop"}
    assert main(["--trace", trace, "cm-run", write(tmp_path, "a.cm", ADDER)]) == 0
    assert json.loads(Path(trace).read_text()) == {"verdict": "halted"}


@pytest.mark.parametrize("command", ["btm-reach", "btm-oracle"])
def test_search_budget_is_max_steps(tmp_path, capsys, command):
    # the walker reaches its target in its 21st configuration, so no proof
    # closes and the BFS needs a budget of 21
    path = write(tmp_path, "w.btm", WALKER)
    assert main(["--max-steps", "20", command, path]) == 0
    assert capsys.readouterr() == ("unresolved (budget of 20 configurations exceeded)\n", "")
    assert main(["--format", "json", "--max-steps", "20", command, path]) == 0
    assert json.loads(capsys.readouterr().out) == {"command": command, "verdict": "unresolved", "budget": 20}
    assert main(["--max-steps", "21", command, path]) == 0
    assert capsys.readouterr().out.startswith("reached (explored 21")


def test_btm_reach_speed_64_game_not_reached_at_default_cap(tmp_path, capsys):
    # the goal is on a timed state no move records; the encoding has 5
    # states at every speed, and a BFS could never fill their default cap
    game = write(tmp_path, "g.game", "timed t0 t1 t2\nimmune m0\nstart m0 t0\nspeed 64\n"
                                     "move m0 t0 m0 t1\nmove m0 t1 m0 t0\ngoal m0 t2\n")
    btm = str(tmp_path / "g.btm")
    assert main(["game-to-btm", game, "-o", btm]) == 0
    trace = tmp_path / "cert.json"
    assert main(["--trace", str(trace), "btm-reach", btm]) == 0
    out, err = capsys.readouterr()
    assert (out.split(" (")[0], err) == ("not-reached", "")
    assert out.startswith("not-reached (closed 1-gram set, ")
    obj = json.loads(trace.read_text())
    cert = obj["certificate"]
    assert obj["verdict"] == "not-reached" and cert["n"] == 1
    assert ["wall"] in cert["left"] and ["end"] in cert["right"]
    certificate = Certificate(cert["n"], frozenset(map(tuple, cert["left"])), frozenset(map(tuple, cert["right"])))
    assert check_certificate(parse_btm(Path(btm).read_text()), "not-reached", certificate)
    assert main(["--format", "json", "btm-reach", btm]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert (obj["verdict"], obj["certificate"], obj["witness"]) == ("not-reached", cert, None)


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
    "level-gadgets-list": (
        ["level-sim", "{f}"], "l.json",
        _adder_level(lambda o: o.update(gadgets=[])), "error: malformed level: "),
    "level-tim-edge-not-an-object": (
        ["level-sim", "{f}"], "l.json",
        _adder_level(lambda o: o.update(tim_edges=[5])), "error: malformed level: "),
    "unwritable-trace": (["--trace", "{d}/missing/t.json", "btm-reach", "{f}"], "m.btm",
                         TRIVIAL_REACH, "error:"),
    "unwritable-trace-after-budget": (["--trace", "{d}/missing/t.json", "--max-steps", "20", "btm-reach", "{f}"],
                                      "w.btm", WALKER, "error:"),
    "unwritable-output": (["cm-compile", "{f}", "-o", "{d}/missing/l.json"], "p.cm", ADDER, "error:"),
    "decide-input-on-writer": (["btm-decide", "{f}", "--input", "01"], "m.btm",
                               "states 1\nsymbols 2\nstart 0\naccept\ndeterministic true\n"
                               "trans 0 0 write 1 0\n",
                               "error: decide_det_braidlike on an input requires a read-only machine\n"),
    "decide-input-out-of-range": (["btm-decide", "{f}", "--input", "19"], "m.btm", SCANNER,
                                  "error: input symbol 9 out of range"),
    "decide-input-other-script-digit": (["btm-decide", "{f}", "--input", "0\u0661"], "m.btm", SCANNER,
                                        "error: input must be digit symbols"),
    "oracle-input-sign": (["btm-oracle", "{f}", "--input", "+1"], "m.btm", SCANNER,
                          "error: input must be digit symbols"),
    "btm-line-at-fault": (["btm-decide", "{f}"], "m.btm", "states 1\nsymbols 1\nstart 0\ntrans 0 0 right 4\n",
                          "error: line 4: transition from (0, 0) to state 4 out of range\n"),
    "cm-line-at-fault": (["cm-run", "{f}"], "p.cm", "counters 1\n0: add 5\n",
                         "error: line 2: instruction 0: counter index 5 out of range\n"),
    "game-line-at-fault": (["game-to-btm", "{f}"], "g.game", GAME + "timed t0\n",
                           "error: line 7: second `timed` line\n"),
    "bisim-negative-budget": (["--max-steps", "-3", "bisim", "{f}"], "p.cm", ADDER, "error:"),
    "oracle-negative-budget": (["--max-steps", "-3", "btm-oracle", "{f}"], "m.btm", DRIFTER, "error:"),
}


@pytest.mark.parametrize("argv,name,text,err", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_one_with_error(tmp_path, capsys, argv, name, text, err):
    # one error line and no verdict, also when only the trace file fails
    path = write(tmp_path, name, text)
    assert main([a.format(f=path, d=tmp_path) for a in argv]) == 1
    out, printed = capsys.readouterr()
    assert out == "" and printed.startswith(err) and printed.count("\n") == 1 and printed.endswith("\n")


# --- fuzzing: generated .btm, .cm and .game text never escapes the exit-code
# contract, and every parse error names a line that holds a directive.
# A format's GOOD lines are well formed, with small numbers and names that
# its constructor may still refuse; its LINEs add malformed ones.

# a count between 10^8 and 10^18 would allocate gigabytes before it failed,
# so none is drawn
NUM = st.one_of(st.integers(0, 3).map(str),
                st.sampled_from(["-1", "x", "\u00b2", "\u0661", "1_0", "+1", "", str(HUGE)]))
GARBAGE = st.text(max_size=6)


def texts(header, line, body=lambda lines: "\n".join(lines)):
    """Format text: an optional header, then up to 10 lines."""
    return st.tuples(st.one_of(header, st.just("")), st.lists(line, max_size=10)).map(lambda t: t[0] + body(t[1]))


BTM_HEADER = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2)).map(
    lambda t: f"states {t[0]}\nsymbols {t[1]}\nstart {t[2]}\ndeterministic true\n")
BTM_GOOD = st.one_of(
    st.tuples(st.sampled_from(["states", "symbols", "start", "target", "accept"]), st.integers(0, 3)).map(
        lambda t: "{} {}".format(*t)),
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from(["left", "right", "write 0", "write 3"]),
              st.integers(0, 3)).map(lambda t: "trans {} {} {} {}".format(*t)),
)
BTM_LINE = st.one_of(
    BTM_GOOD,
    st.tuples(st.sampled_from(["states", "symbols", "start", "target", "accept"]), NUM).map(" ".join),
    st.sampled_from(["deterministic true", "deterministic false", "deterministic maybe"]),
    st.tuples(NUM, NUM, st.sampled_from(["write", "left", "right", "jump"]),
              st.lists(NUM, max_size=2)).map(lambda t: " ".join(["trans", t[0], t[1], t[2], *t[3]])),
    GARBAGE,
)

CM_HEADER = st.tuples(st.integers(0, 3), st.lists(NUM, max_size=3)).map(
    lambda t: f"counters {t[0]}\ninit {' '.join(t[1])}\n")
CM_GOOD = st.one_of(
    st.integers(0, 3).map(lambda c: f"add {c}"),
    st.tuples(st.integers(0, 3), st.integers(0, 9)).map(lambda t: "subb {} {}".format(*t)),
    st.just("halt"),
)
CM_LINE = st.one_of(
    CM_GOOD,
    st.tuples(st.sampled_from(["add", "subb", "halt", "frob"]), st.lists(NUM, max_size=2)).map(
        lambda t: " ".join([t[0], *t[1]])),
    GARBAGE,
)


def cm_body(lines):
    return "\n".join(f"{i}: {b}" for i, b in enumerate(lines))


NAME = st.sampled_from(["t0", "t1", "m0", "m1", "T0"])
GAME_HEADER = st.tuples(st.lists(NAME, min_size=1, max_size=3), st.lists(NAME, min_size=1, max_size=2), NAME, NAME).map(
    lambda t: f"timed {' '.join(t[0])}\nimmune {' '.join(t[1])}\nstart {t[2]} {t[3]}\n")
GAME_GOOD = st.one_of(
    st.tuples(NAME, NAME, NAME, NAME).map(lambda t: "move {} {} {} {}".format(*t)),
    st.tuples(NAME, NAME).map(lambda t: "goal {} {}".format(*t)),
    st.integers(0, 3).map(lambda k: f"speed {k}"),
)
GAME_LINE = st.one_of(
    GAME_GOOD,
    st.tuples(st.sampled_from(["move", "goal", "speed", "timed", "immune", "start", "warp"]),
              st.lists(st.one_of(NAME, NUM), max_size=4)).map(lambda t: " ".join([t[0], *t[1]])),
    GARBAGE,
)

BTM_TEXT, CM_TEXT, GAME_TEXT = texts(BTM_HEADER, BTM_LINE), texts(CM_HEADER, CM_LINE, cm_body), texts(GAME_HEADER, GAME_LINE)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(btm=BTM_TEXT, cm=CM_TEXT, game=GAME_TEXT)
def test_cli_fuzz_exit_codes(tmp_path_factory, btm, cm, game):
    d = tmp_path_factory.getbasetemp()
    btm_path, cm_path = write(d, "fuzz.btm", btm), write(d, "fuzz.cm", cm)
    assert main(["btm-decide", btm_path]) in (0, 1)
    assert main(["--max-steps", "100", "cm-run", cm_path]) in (0, 1)
    assert main(["game-to-btm", write(d, "fuzz.game", game), "-o", str(d / "fuzz.game.btm")]) in (0, 1)


# the errors that no line holds: a missing header, and a program with no instruction
NO_LINE = ("missing `", "program must have at least one instruction")


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(case=st.one_of(
    st.one_of(BTM_TEXT, texts(BTM_HEADER, BTM_GOOD)).map(lambda t: (parse_btm, t)),
    st.one_of(CM_TEXT, texts(CM_HEADER, CM_GOOD, cm_body)).map(lambda t: (parse_counter_program, t)),
    st.one_of(GAME_TEXT, texts(GAME_HEADER, GAME_GOOD)).map(lambda t: (parse_game, t)),
))
def test_parse_errors_name_a_directive_line(case):
    parse, text = case
    try:
        parse(text)
    except ParseError as e:
        message = str(e).removeprefix(f"line {e.lineno}: ")
        assert message != str(e)
        if e.lineno == 0:
            assert message.startswith(NO_LINE)
        else:
            assert not message.startswith(NO_LINE)
            assert re.split("\r\n|\r|\n", text)[e.lineno - 1].split("#", 1)[0].split()


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # generating a dataclass's methods was a third of the package's import time
    code = ("import sys\nbefore = set(sys.modules)\nimport braidbench.cli\n"
            "print(*sorted(set(sys.modules) - before))")
    out = run_limited("-c", code)
    loaded = set(out.stdout.split())
    assert out.returncode == 0 and "braidbench.cli" in loaded, out.stderr
    assert not loaded & {"dataclasses", "inspect"}
