"""Command-line front end.

Exit codes: 0 a verdict was produced, 1 usage, parse or I/O error (a parse
error names the line at fault), out of memory, or a count too large to
index a list, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys

from . import counter_machine as cm
from . import gadget_compiler as gc
from . import rewind_timeline as rt
from .braidlike_tm import format_btm, is_digits, parse_btm
from .oracle_sim import (
    DEFAULT_BUDGET,
    END,
    WALL,
    SearchBudgetExceeded,
    det_behavior_oracle,
    reach_bfs,
    read_only_oracle,
)
from .tour_guide import (
    GuideInvariantError,
    decide_det_braidlike,
    decide_reachability,
    default_cell_cap,
    det_guide_bound,
    nondet_guide_bound,
    nondet_guide_bound_bits,
)

# The largest bit length of an int that Python prints within its default
# limit of 4300 decimal digits: 2^14284 < 10^4300 < 2^14285.
_DECIMAL_BITS = 14_284


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser():
    p = _Parser(prog="braidbench", description=__doc__.splitlines()[0])
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--max-steps", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--max-cells", type=int, default=None,
                   help="cell cap; defaults to --max-steps + 1 (btm-oracle: min(guide bound, --max-steps) + 1)")
    p.add_argument("--trace", metavar="PATH", help="write the witness or certificate as JSON")
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
                   help="input symbols (e.g. 0110); the machine must be read-only")
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


def _write_file(path, text):
    """Write text to path like mode "w" (same inode and permissions, through
    symlinks), but cut a regular file to length only after writing: closing
    a non-empty file truncated to zero makes ext4 (auto_da_alloc) start
    writeback, tens of milliseconds per overwrite. Devices and pipes cannot
    be truncated and need not be."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w") as f:
        f.write(text)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            f.truncate()


def _write_output(args, text):
    """Write text to the -o file, or to stdout."""
    if args.output:
        _write_file(args.output, text)
    else:
        print(text, end="")


def _emit(args, payload, text):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(text)
    for key in ("witness", "certificate"):
        if args.trace and payload.get(key) is not None:
            _write_file(args.trace, json.dumps({"verdict": payload["verdict"], key: payload[key]}, indent=2))


def _ngrams(grams):
    """A certificate's n-gram set as sorted lists; WALL and END are strings."""
    return sorted((list(g) for g in grams), key=lambda g: [-1 if x in (WALL, END) else x for x in g])


def _search_payload(args, res):
    """The payload of an OracleVerdict, its witness or certificate as plain
    objects."""
    witness = None if res.witness is None else [
        {"state": c.state, "head": c.head, "tape": list(c.tape)} for c in res.witness]
    cert = res.certificate
    certificate = None if cert is None else {
        "n": cert.n, "left": _ngrams(cert.left), "right": _ngrams(cert.right)}
    return {"command": args.command, "verdict": res.kind, "explored": res.explored,
            "witness": witness, "certificate": certificate}


def _search_text(res, detail):
    """A search verdict's text line: the detail in brackets, or the rule of
    a certified verdict."""
    if res.certificate is not None:
        return f"{res.kind} (closed {res.certificate.n}-gram set, {res.explored} windows)"
    return f"{res.kind} ({detail})"


def _parse_input(text):
    if not is_digits(text):
        raise _UsageError(f"input must be digit symbols, got {text!r}")
    return tuple(map(int, text))


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.max_steps < 0:
            raise _UsageError("--max-steps must be >= 0")
        if args.max_cells is not None and args.max_cells < 1:
            raise _UsageError("--max-cells must be >= 1")
        return _dispatch(args)
    except SearchBudgetExceeded:  # btm-reach and btm-oracle budget their BFS by --max-steps
        _emit(args, {"command": args.command, "verdict": "unresolved", "budget": args.max_steps},
              f"unresolved (budget of {args.max_steps} configurations exceeded)")
        return 0
    except (_UsageError, ValueError, OSError) as e:
        # every parse error subclasses ValueError; OSError covers unreadable
        # inputs and unwritable outputs
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except OverflowError as e:  # a count no list can index, such as `states 10^20`
        print(f"error: number too large: {e}", file=sys.stderr)
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
        inp = None if args.input is None else _parse_input(args.input)
        verdict = decide_det_braidlike(spec, inp)
        payload = {"command": args.command, "verdict": verdict}
        _emit(args, payload, verdict)
        return 0

    if args.command == "btm-reach":
        spec = parse_btm(_read(args.file))
        if spec.target_state is None:
            raise _UsageError("btm-reach needs a machine with a declared target state")
        res = decide_reachability(spec, cell_cap=args.max_cells, max_explored=args.max_steps)
        # only reach_bfs hits a cap, and only an explicit one below --max-steps
        if res.kind == "not-reached" and res.cap_hit:
            print(f"warning: cell cap {args.max_cells} cut the search; a not-reached verdict is only bounded",
                  file=sys.stderr)
        _emit(args, _search_payload(args, res), _search_text(res, f"explored {res.explored} configurations"))
        return 0

    if args.command == "btm-oracle":
        spec = parse_btm(_read(args.file))
        if args.input is not None:
            res = read_only_oracle(spec, _parse_input(args.input))
        else:
            cap = default_cell_cap(spec, args.max_steps) if args.max_cells is None else args.max_cells
            if spec.target_state is not None:
                res = reach_bfs(spec, cap, max_explored=args.max_steps)
            else:
                res = det_behavior_oracle(spec, args.max_steps, cap)
        _emit(args, _search_payload(args, res), _search_text(res, f"explored {res.explored}"))
        return 0

    if args.command == "bounds":
        if args.states < 1:
            raise _UsageError("--states must be >= 1")
        if nondet_guide_bound_bits(args.states) > _DECIMAL_BITS:  # the det bound is the smaller one
            raise _UsageError(f"the nondet bound for {args.states} states has "
                              f"{nondet_guide_bound_bits(args.states)} bits, too many to print in decimal")
        det, nondet = det_guide_bound(args.states), nondet_guide_bound(args.states)
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
        verdict = "pass" if report.passed else "fail"
        jumps = [r for r in report.boundaries if type(r) is gc.JumpRecord]
        count = len(report.boundaries) - len(jumps) + sum(j.k * j.steps for j in jumps)
        payload = {
            "command": args.command,
            "verdict": verdict,
            "cm_halted": report.cm_halted,
            "level_solved": report.level_solved,
            "steps": report.steps,
            "ticks": report.ticks,
            "boundaries": [
                {"index": r.index, "k": r.k, "steps": r.steps, "ticks": r.ticks, "d": list(r.d)}
                if type(r) is gc.JumpRecord else
                {
                    "index": r.index,
                    "pc": r.cm_pc,
                    "counters": list(r.cm_counters),
                    "tim_at": r.tim_at,
                    "occupancies": list(r.occupancies),
                    "ok": r.ok,
                }
                for r in report.boundaries
            ],
        }
        text = None
        if args.format == "text":
            lines = [f"{verdict}: {count} boundaries, halted={report.cm_halted} solved={report.level_solved}"]
            for r in report.boundaries:
                if type(r) is gc.JumpRecord:
                    lines.append(f"  jump x{r.k} after [{r.index}]: {r.steps} steps, {r.ticks} ticks, d={list(r.d)}")
                else:
                    mark = "ok" if r.ok else "MISMATCH"
                    lines.append(f"  [{r.index}] pc={r.cm_pc} counters={list(r.cm_counters)} "
                                 f"tim={r.tim_at} occ={list(r.occupancies)} {mark}")
            text = "\n".join(lines)
        _emit(args, payload, text)
        return 0


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
