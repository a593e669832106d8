"""Command-line front end.

Exit codes: 0 a verdict was produced, 1 usage, parse or I/O error, 2 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import counter_machine as cm
from . import gadget_compiler as gc
from . import rewind_timeline as rt
from .braidlike_tm import format_btm, parse_btm
from .oracle_sim import det_behavior_oracle, reach_bfs, read_only_oracle
from .tour_guide import (
    GuideInvariantError,
    decide_det_braidlike,
    decide_read_only,
    decide_reachability,
    default_cell_cap,
    det_guide_bound,
    nondet_guide_bound,
)

DEFAULT_MAX_STEPS = 100_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    p = _Parser(prog="braidbench", description=__doc__.splitlines()[0])
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    p.add_argument("--max-cells", type=int, default=None,
                   help="cell cap; defaults to the applicable guide bound + 1")
    p.add_argument("--trace", metavar="PATH", help="write the witness trace as JSON")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("cm-run", help="run a counter program")
    s.add_argument("file")
    s = sub.add_parser("cm-compile", help="compile a counter program to level JSON")
    s.add_argument("file")
    s.add_argument("-o", "--output")
    s = sub.add_parser("level-sim", help="run a level JSON file")
    s.add_argument("file")
    s = sub.add_parser("level-dot", help="export a level JSON file as DOT")
    s.add_argument("file")
    s.add_argument("-o", "--output")
    s = sub.add_parser("btm-decide", help="decide a deterministic braidlike machine")
    s.add_argument("file")
    s.add_argument("--input", default=None,
                   help="input symbols (e.g. 0110) for the read-only decider")
    s = sub.add_parser("btm-reach", help="decide target-state reachability")
    s.add_argument("file")
    s = sub.add_parser("btm-oracle", help="brute-force behavior oracle")
    s.add_argument("file")
    s.add_argument("--input", default=None,
                   help="input symbols for the read-only oracle")
    s = sub.add_parser("bounds", help="print the exact guide-count bounds")
    s.add_argument("--states", type=int, required=True)
    s = sub.add_parser("game-to-btm", help="encode a game spec as a .btm machine")
    s.add_argument("file")
    s.add_argument("-o", "--output")
    s = sub.add_parser("bisim", help="bisimulate a counter program against its compiled level")
    s.add_argument("file")
    return p


def _read(path):
    with open(path) as f:
        return f.read()


def _write_output(args, text):
    """Write text to the -o file, or to stdout."""
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
    else:
        print(text, end="")


def _emit(args, payload, text):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(text)
    if args.trace and payload.get("witness") is not None:
        with open(args.trace, "w") as f:
            json.dump({"verdict": payload["verdict"], "witness": payload["witness"]}, f, indent=2)


def _search_payload(args, res):
    """The payload of an OracleVerdict, its witness as plain objects."""
    witness = None if res.witness is None else [
        {"state": c.state, "head": c.head, "tape": list(c.tape)} for c in res.witness]
    return {"command": args.command, "verdict": res.kind, "explored": res.explored, "witness": witness}


def _decimal(n):
    """n in decimal, or None if Python refuses to convert that many digits."""
    try:
        return str(n)
    except ValueError:
        return None


def _parse_input(text):
    try:
        return tuple(int(ch) for ch in text)
    except ValueError:
        raise _UsageError(f"input must be digit symbols, got {text!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.max_steps < 0:
            raise _UsageError("--max-steps must be >= 0")
        if args.max_cells is not None and args.max_cells < 1:
            raise _UsageError("--max-cells must be >= 1")
        return _dispatch(args)
    except (_UsageError, ValueError, OSError) as e:
        # every parse error subclasses ValueError; OSError covers unreadable
        # inputs and unwritable outputs
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except GuideInvariantError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "cm-run":
        program = cm.parse_counter_program(_read(args.file))
        res = cm.cm_run(program, cm.initial_config(program), args.max_steps)
        payload = {
            "command": args.command,
            "verdict": res.kind,
            "steps": res.config.steps,
            "counters": list(res.config.counters),
            "pc": res.config.pc,
        }
        _emit(args, payload, f"{res.kind}: counters={list(res.config.counters)} steps={res.config.steps}")
        return 0

    if args.command == "cm-compile":
        program = cm.parse_counter_program(_read(args.file))
        _write_output(args, gc.level_to_json(gc.compile(program)) + "\n")
        return 0

    if args.command == "level-sim":
        level = gc.level_from_json(_read(args.file))
        res = gc.level_run(level, args.max_steps)
        payload = {"command": args.command, "verdict": res.kind, "ticks": res.ticks}
        _emit(args, payload, f"{res.kind}: ticks={res.ticks}")
        return 0

    if args.command == "level-dot":
        level = gc.level_from_json(_read(args.file))
        _write_output(args, gc.level_to_dot(level))
        return 0

    if args.command == "btm-decide":
        spec = parse_btm(_read(args.file))
        if args.input is not None:
            verdict = decide_read_only(spec, _parse_input(args.input))
        else:
            verdict = decide_det_braidlike(spec)
        payload = {"command": args.command, "verdict": verdict}
        _emit(args, payload, verdict)
        return 0

    if args.command == "btm-reach":
        spec = parse_btm(_read(args.file))
        if spec.target_state is None:
            raise _UsageError("btm-reach needs a machine with a declared target state")
        default_cap = default_cell_cap(spec)
        cap = args.max_cells if args.max_cells is not None else default_cap
        if cap < default_cap:
            bound = _decimal(default_cap) or f"of {default_cap.bit_length()} bits"
            print(f"warning: cell cap {cap} is below the exact bound {bound}; "
                  "a not-reached verdict is only bounded", file=sys.stderr)
        res = decide_reachability(spec, cell_cap=cap)
        payload = _search_payload(args, res)
        _emit(args, payload, f"{res.kind} (explored {res.explored} configurations)")
        return 0

    if args.command == "btm-oracle":
        spec = parse_btm(_read(args.file))
        if args.input is not None:
            res = read_only_oracle(spec, _parse_input(args.input))
        else:
            cap = args.max_cells if args.max_cells is not None else default_cell_cap(spec)
            if spec.target_state is not None:
                res = reach_bfs(spec, cap)
            else:
                res = det_behavior_oracle(spec, args.max_steps, cap)
        payload = _search_payload(args, res)
        _emit(args, payload, f"{res.kind} (explored {res.explored})")
        return 0

    if args.command == "bounds":
        if args.states < 1:
            raise _UsageError("--states must be >= 1")
        det, nondet = det_guide_bound(args.states), nondet_guide_bound(args.states)
        if _decimal(nondet) is None:  # the det bound is the smaller one
            raise _UsageError(f"the nondet bound for {args.states} states has "
                              f"{nondet.bit_length()} bits, too many to print in decimal")
        payload = {"command": args.command, "det": det, "nondet": nondet}
        _emit(args, payload, f"det={det} nondet={nondet}")
        return 0

    if args.command == "game-to-btm":
        game = rt.parse_game(_read(args.file))
        _write_output(args, format_btm(rt.build_braidlike_from_game(game)))
        return 0

    if args.command == "bisim":
        program = cm.parse_counter_program(_read(args.file))
        report = gc.bisimulate(program, args.max_steps)
        payload = {
            "command": args.command,
            "verdict": "pass" if report.passed else "fail",
            "cm_halted": report.cm_halted,
            "level_solved": report.level_solved,
            "steps": report.steps,
            "ticks": report.ticks,
            "boundaries": [
                {
                    "index": b.index,
                    "pc": b.cm_pc,
                    "counters": list(b.cm_counters),
                    "tim_at": b.tim_at,
                    "occupancies": list(b.occupancies),
                    "ok": b.ok,
                }
                for b in report.boundaries
            ],
        }
        lines = [f"{'pass' if report.passed else 'fail'}: "
                 f"{len(report.boundaries)} boundaries, halted={report.cm_halted} solved={report.level_solved}"]
        for b in report.boundaries:
            mark = "ok" if b.ok else "MISMATCH"
            lines.append(f"  [{b.index}] pc={b.cm_pc} counters={list(b.cm_counters)} "
                         f"tim={b.tim_at} occ={list(b.occupancies)} {mark}")
        _emit(args, payload, "\n".join(lines))
        return 0

    raise _UsageError(f"unknown command {args.command!r}")


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
