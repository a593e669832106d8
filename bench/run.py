"""braidbench benchmark: verified-verdict workloads, timed from outside the package.

One workload, as the benchmark contract runs it (from the repository root):

    python3 bench/run.py --workload det-census --seed 1 --seconds 20 --trace 0

Every workload, untraced and traced, with a per-workload table, the failed
items and the tracing overhead (optionally saved as JSON):

    python3 bench/run.py --all --seed 1 --seconds 20 [--record bench/baseline.json]

Each workload is a closed loop in one process and one thread: the next item
starts only after the previous verdict was checked against its baseline.
A run goes through the workload's pool of inputs several times and ends on
a round boundary once `--seconds` have passed.

Every time is reported in reference seconds: the measured time scaled by
how fast the machine ran a fixed pure-Python kernel in the kernel timings
nearest to it, taken between items (see `Speed`).

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics: items_per_s (verdicts that passed their check, per
second of item time), item_tail_ms (the highest percentile of per-item
latency with ten items beyond it; an item's latency is the median of its
repeats), peak_rss_mb, verified_frac (items whose verdict agreed with its
baseline) and setup_s (import plus input generation, the median of
several). With `--trace 1` it holds the per-layer metrics from a traced
pass, and the tracing overhead against an untraced pass over the same
rounds. In the last line, `failed` counts items with a failed operation (a
wrong verdict, a CLI error, an exception, a MemoryError); items whose
verdict could not be checked (see `ItemUnverified`) and searches that ran
out of their explored budget count only against verified_frac. Spans and
every item that failed or stayed unverified are written under
`bench/out/`.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from tracing import Tracer  # noqa: E402
from workloads import LAYER_COUNTERS, LAYER_FUNCTIONS, LAYER_TABLE, WORKLOADS, Context, ItemFailed, ItemUnverified  # noqa: E402

MODULES = ("counter_machine", "gadget_compiler", "braidlike_tm", "oracle_sim", "tour_guide", "rewind_timeline", "cli")
SETUP_REPS = 15
KERNEL_EVERY = 0.02  # seconds of workload between two timings of the speed kernel
KERNEL_PER_SETUP = 2
SPEED_SAMPLES = 40  # kernel timings whose mean corrects a measured time
REFERENCE_KERNEL_S = 2e-3  # the kernel's typical time on a 2-core VM, Python 3.11
MIN_BEYOND = 10  # items a tail percentile must leave above it
FAILED_SHOWN = 20


class Package:
    """The package's seven modules, freshly imported."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "braidbench" or m.startswith("braidbench.")]:
            del sys.modules[name]
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"braidbench.{name}"))


@dataclass(frozen=True)
class _Config:
    state: int
    head: int
    tape: tuple


# Two states, two symbols, two choices each: (symbol written, move, next state).
KERNEL_RULES = {(0, 0): ((1, 1, 0), (0, 1, 1)), (0, 1): ((1, -1, 1), (0, 1, 0)),
                (1, 0): ((0, 1, 1), (1, -1, 0)), (1, 1): ((1, 1, 1), (0, -1, 0))}
KERNEL_CELLS = 9


def kernel():
    """A fixed pure-Python load written like the package's searches, which
    calls nothing in it: breadth-first search over the configurations of a
    small machine that writes and erases to the right on a tuple tape."""
    seen = {(0, 0, ())}
    queue = deque([_Config(0, 0, ())])
    while queue:
        c = queue.popleft()
        sym = c.tape[c.head] if c.head < len(c.tape) else 0
        for write, move, nxt in KERNEL_RULES[c.state, sym]:
            tape = c.tape[:c.head] + (write,)
            head = c.head + move
            if 0 <= head < KERNEL_CELLS and (nxt, head, tape) not in seen:
                seen.add((nxt, head, tape))
                queue.append(_Config(nxt, head, tape))
    return len(seen)


class Speed:
    """How fast the machine ran pure Python around each moment of a run.

    On a shared machine every pure-Python timing speeds up and slows down
    together: on a 2-core VM the same code ran up to 1.4x slower for
    stretches of seconds to minutes, which would decide a comparison of two
    sets of runs. The kernel is timed between items, every KERNEL_EVERY
    seconds, and after every set-up. One timing is too noisy to correct an
    item, but the mean of the SPEED_SAMPLES timings nearest to it follows
    the machine's speed: `ref` turns a measured time into reference
    seconds, the time on a machine on which the kernel takes
    REFERENCE_KERNEL_S.
    """

    def __init__(self):
        self.times = []  # when each kernel timing ended
        self.cumulative = [0.0]  # running sum of the kernel's times
        self.due = 0.0

    def sample(self):
        gc.disable()  # the kernel frees all it makes; keep the workload's heap out of its time
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        gc.enable()
        self.times.append(end)
        self.cumulative.append(self.cumulative[-1] + end - start)
        self.due = end + KERNEL_EVERY

    def tick(self):
        if time.perf_counter() >= self.due:
            self.sample()

    def ref(self, start, seconds):
        """`seconds` measured from `start`, in reference seconds: at the mean
        speed of the SPEED_SAMPLES kernel timings nearest to its middle."""
        middle = bisect.bisect(self.times, start + seconds / 2)
        lo = max(0, min(middle - SPEED_SAMPLES // 2, len(self.times) - SPEED_SAMPLES))
        hi = min(lo + SPEED_SAMPLES, len(self.times))
        mean = (self.cumulative[hi] - self.cumulative[lo]) / (hi - lo)
        return seconds * REFERENCE_KERNEL_S / mean


def set_up(name, seed, tracer, speed):
    """Import the package and generate the inputs SETUP_REPS times; return
    the last set and the median time of one set-up, in reference seconds."""
    times = []
    ctx = rounds = None
    for _ in range(SETUP_REPS):
        if ctx is not None:
            # free the last set first, so that peak RSS holds a single one
            shutil.rmtree(ctx.workdir)
            ctx = rounds = pkg = None
            gc.collect()
        start = time.perf_counter()
        pkg = Package()
        ctx = Context(pkg, tracer, tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
        rounds = WORKLOADS[name][0](pkg, seed, ctx)
        times.append((start, time.perf_counter() - start))
        for _ in range(KERNEL_PER_SETUP):
            speed.sample()
    # The inputs live for the whole run; keep the collector from rescanning
    # them, which would add noise that depends on the size of the input pool.
    gc.collect()
    gc.freeze()
    return ctx, rounds, statistics.median(speed.ref(*t) for t in times)


class Pass:
    """The outcome of running whole rounds of items."""

    def __init__(self):
        self.rounds = 0
        self.attempted = 0
        self.runs = {}  # item id -> [(start, seconds)], one per repeat
        self.failed = []  # (item id, reason, detail)
        self.unverified = []  # (item id, reason, detail)
        self.incorrect = 0

    def seconds(self, speed):
        """Item time of the whole pass, (measured, in reference seconds)."""
        runs = [r for rs in self.runs.values() for r in rs]
        return sum(s for _, s in runs), sum(speed.ref(*r) for r in runs)

    def verified(self):
        """Items that passed their check."""
        return self.attempted - len(self.failed) - len(self.unverified)

    def items_per_s(self, speed):
        """Items that passed their check per reference second of item time."""
        return self.verified() / self.seconds(speed)[1]

    def latencies(self, speed):
        """Each item's latency: the median of its repeats, in reference
        seconds."""
        return [statistics.median(speed.ref(*r) for r in rs) for rs in self.runs.values()]

    def tail(self, speed):
        """The highest percentile of per-item latency with MIN_BEYOND items
        beyond it, as (percentile, seconds)."""
        latencies = sorted(self.latencies(speed), reverse=True)
        k = min(MIN_BEYOND, len(latencies) - 1)
        return 100 * (1 - k / len(latencies)), latencies[k]


def run_round(ctx, rounds, index, p, speed):
    """Run pool round `index` once and add its outcome to pass `p`."""
    budget_error = ctx.pkg.oracle_sim.SearchBudgetExceeded
    tracer = ctx.tracer
    for item_id, check, args in rounds[index]:
        t0 = time.perf_counter()
        tracer.begin_item(item_id)
        try:
            check(ctx, *args)
        except ItemFailed as e:
            p.failed.append((item_id, e.reason, e.detail))
            p.incorrect += e.incorrect
        except ItemUnverified as e:
            p.unverified.append((item_id, e.reason, e.detail))
        except budget_error as e:  # the explicit budget's "unresolved"
            p.unverified.append((item_id, "budget", str(e)))
        except MemoryError:
            p.failed.append((item_id, "memory", ""))
        except Exception as e:  # one broken item must not end the run
            p.failed.append((item_id, "raised", f"{type(e).__name__}: {e}"))
        finally:
            tracer.end_item()
        p.runs.setdefault(item_id, []).append((t0, time.perf_counter() - t0))
        p.attempted += 1
        speed.tick()
    p.rounds += 1


def run(ctx, rounds, seconds, traced, speed):
    """Run the pool's rounds in order, cycling, until `seconds` have passed
    (checked at round boundaries). With `traced`, every round runs twice,
    untraced and traced, in alternating order, so that both passes see the
    same machine time and warmth; returns (untraced pass, traced pass,
    seconds)."""
    plain, spans = Pass(), Pass()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        index = plain.rounds % len(rounds)
        order = [(plain, False), (spans, True)] if traced else [(plain, False)]
        for p, enabled in order[:: 1 if plain.rounds % 2 == 0 else -1]:
            ctx.tracer.enabled = enabled
            run_round(ctx, rounds, index, p, speed)
    elapsed = time.perf_counter() - start
    speed.sample()
    return plain, spans, elapsed


def report_failures(name, seed, trace, p):
    """Print the failed and the unverified items and write them all to a
    file; return the counts of each by reason."""
    path = OUT / f"failures-{name}-{seed}-trace{trace}.json"
    with open(path, "w") as f:
        json.dump({kind: [{"item": i, "reason": r, "detail": d} for i, r, d in items]
                   for kind, items in (("failed", p.failed), ("unverified", p.unverified))}, f, indent=1)
    counts = {}
    for kind, items in (("failed", p.failed), ("unverified", p.unverified)):
        by_reason = counts[kind] = {}
        for _, reason, _ in items:
            by_reason[reason] = by_reason.get(reason, 0) + 1
        print(f"{kind} items: {len(items)} of {p.attempted}, by reason {by_reason}")
        for shown, (item_id, reason, detail) in enumerate(items):
            if kind == "unverified" and shown >= FAILED_SHOWN:
                break  # every failed item is printed, the unverified ones in the file
            print(f"  {kind} {item_id}: {reason} {detail}")
    print(f"all listed in {path.relative_to(ROOT)}")
    return counts


def run_one(name, seed, seconds, trace):
    OUT.mkdir(exist_ok=True)
    speed = Speed()
    ctx, rounds, setup_s = set_up(name, seed, Tracer(False), speed)
    try:
        print(f"workload {name} seed {seed} trace {trace}")
        p_plain, p_traced, elapsed = run(ctx, rounds, seconds, bool(trace), speed)
        if not trace:
            p = p_plain
            pct, tail_s = p.tail(speed)
            metrics = {
                "items_per_s": (p.items_per_s(speed), "1/s"),
                "item_tail_ms": (tail_s * 1e3, "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "verified_frac": (p.verified() / p.attempted, "frac"),
                "setup_s": (setup_s, "s"),
            }
            measured, reference = p.seconds(speed)
            extra = {"tail_percentile": pct, "items": len(p.runs), "reference_per_measured_s": reference / measured}
        else:
            p = p_traced
            measured, reference = p.seconds(speed)
            metrics = ctx.tracer.layer_metrics(LAYER_FUNCTIONS, LAYER_COUNTERS, reference / measured)
            metrics["item.p50_ms"] = (statistics.median(p_plain.latencies(speed)) * 1e3, "ms")
            metrics["trace.overhead_frac"] = (p_plain.items_per_s(speed) / p.items_per_s(speed) - 1, "frac")
            metrics["trace.spans"] = (len(ctx.tracer.spans), "count")
            spans = OUT / f"trace-{name}-{seed}.jsonl"
            ctx.tracer.write(spans)
            extra = {"spans_file": str(spans.relative_to(ROOT))}
            print(f"tracing overhead: {metrics['trace.overhead_frac'][0]:+.1%} "
                  f"(each of {p.rounds} rounds run both untraced and traced)")
        for metric, (value, unit) in metrics.items():
            print(f"  {metric} = {value:.6g} {unit}")
        by_reason = report_failures(name, seed, trace, p)
        summary = {"records": WORKLOADS[name][1](ctx.props), "failed_by_reason": by_reason["failed"],
                   "unverified_by_reason": by_reason["unverified"],
                   "rounds": p.rounds, "seconds": elapsed,
                   "kernel_samples": len(speed.times),
                   **extra}
        print("summary " + json.dumps(summary))
        result = {
            "correct": p.incorrect == 0,
            "attempted": p.attempted,
            "failed": len(p.failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run_all(seed, seconds, record):
    """Every workload in its own process, untraced then traced."""
    out = {"seed": seed, "seconds": seconds, "workloads": {}, "layer_table": LAYER_TABLE}
    ok = True
    for name in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT)
            print(proc.stdout, end="")
            if proc.returncode != 0:
                print(proc.stderr, end="", file=sys.stderr)
                ok = False
                break
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            summary = json.loads(next(l for l in lines if l.startswith("summary "))[len("summary "):])
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            key = "per_layer" if trace else "end_to_end"
            entry[key] = metrics
            entry[f"{key}_run"] = {"correct": result["correct"], "attempted": result["attempted"],
                                   "failed": result["failed"], **summary}
        out["workloads"][name] = entry
    print("\nworkload       items_per_s  item_tail_ms  peak_rss_mb  verified_frac  setup_s  trace overhead")
    for name, e in out["workloads"].items():
        if "per_layer" not in e:
            continue
        m = e["end_to_end"]
        print(f"{name:14} {m['items_per_s']:11.1f} {m['item_tail_ms']:13.2f} {m['peak_rss_mb']:12.1f} "
              f"{m['verified_frac']:14.4f} {m['setup_s']:8.3f} {e['per_layer']['trace.overhead_frac']:+14.1%}")
    if record:
        with open(record, "w") as f:
            json.dump(out, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="with --all: write the combined results as JSON here")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "braidbench" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'braidbench'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.all:
        return run_all(args.seed, args.seconds, args.record)
    if args.workload is None:
        ap.error("give --workload or --all")
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
