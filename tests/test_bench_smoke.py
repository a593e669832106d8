"""Smoke test of the API the benchmark harness in `bench/` calls.

A change that breaks a call the harness makes (a constructor, a keyword, a
result field) fails here instead of only in a benchmark run. For each
workload, the seed-1 inputs are built untraced, and a few items of the first
round run through the harness's own checks: the first three, and the first
that also goes through the CLI. An item whose verdict cannot be checked
(`ItemUnverified`) passes; a failed item or any other exception fails.
"""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from run import MODULES  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_bench_workload_items_run(tmp_path, name):
    pkg = SimpleNamespace(**{m: importlib.import_module(f"braidbench.{m}") for m in MODULES})
    ctx = workloads.Context(pkg, tracing.Tracer(False), str(tmp_path))
    first = workloads.WORKLOADS[name][0](pkg, 1, ctx)[0]
    # an item's last argument is the input file its CLI call reads, if any
    with_cli = next(item for item in first if str(item[2][-1]).startswith(str(tmp_path)))
    for item_id, check, args in first[:3] + [with_cli]:
        try:
            check(ctx, *args)
        except workloads.ItemUnverified:
            pass
        except workloads.ItemFailed as e:
            pytest.fail(f"{name} item {item_id}: {e}")
