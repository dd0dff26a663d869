"""Tests of the benchmark itself: seeded inputs, smoke runs, exact counts.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_METRICS = {
    "chain": ("numerics.evals_per_quote", "numerics.panels_per_quote",
              "hybrid.rate_kernel_calls_per_integrand_call"),
    "mc_verify": ("mc.closed_form_calls_per_estimate",),
    "density": ("heston.density_probe_calls",),
}


def run_bench(workload, seed, trace, root=ROOT):
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "0.2", "--trace",
           str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = workloads.make_ops(workload, 5)
    assert first == workloads.make_ops(workload, 5)
    assert first != workloads.make_ops(workload, 6)
    assert workloads.first_op(workload, 5) == first[0]


def test_scatter_mixes_every_category_in_each_block():
    ops = workloads.scatter_ops(3, n=64)
    for i in range(0, 64, 8):
        assert {op.tag for op in ops[i:i + 8]} == \
            set(workloads.SCATTER_CATEGORIES)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    res = result_of(run_bench(workload, 1, 0))
    assert res["correct"] is True and res["attempted"] >= 1
    # scatter draws near-deterministic quotes that the library fails to
    # price at this accuracy (see README.md); the others have none
    if workload != "scatter":
        assert res["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", sorted(COUNT_METRICS))
def test_traced_counts_repeat_exactly(workload):
    runs = [result_of(run_bench(workload, 2, 1)) for _ in range(2)]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for res in runs:
        assert res["correct"] is True
        assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    for name in COUNT_METRICS[workload]:
        values = [res["metrics"][name]["value"] for res in runs]
        assert values[0] > 0 and values[0] == values[1], name


def test_scatter_checks_its_whole_schedule_each_run():
    # every run prices each scheduled quote, so the failures repeat
    runs = [result_of(run_bench("scatter", 4, 0)) for _ in range(2)]
    assert runs[0]["attempted"] == len(workloads.scatter_ops(4, smoke=True))
    assert [(r["attempted"], r["failed"]) for r in runs[1:]] == \
        [(runs[0]["attempted"], runs[0]["failed"])]


def test_raised_and_wrong_results_are_both_failures():
    ops = workloads.chain_ops(1, smoke=True)[:3]
    good = workloads.price_quote(ops[2], workloads.quote_config())
    records = [(0, 1.0, 1.0, None, "PricingError: did not converge"),
               (1, 1.0, 1.0, ops[1].s0 * 2.0, None),
               (2, 1.0, 1.0, good, None)]
    failures = run.check_records("chain", 1, ops, records)
    assert failures[0] == ("PricingError: did not converge", "raised")
    assert failures[1][1] == "wrong" and "reference" in failures[1][0]
    assert 2 not in failures


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("chain", 0, 0, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
