#!/usr/bin/env python3
"""Pricing benchmark for hestoncir.

    python3 bench/run.py --workload chain --seed 0 --seconds 10 --trace 0

Builds the workload's inputs from ``--seed``, starts cold interpreters
to time set-up, then drives the library's public API from this single
closed-loop client (the next op starts when the previous one returns)
for ``--seconds`` seconds and checks every result.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` wraps the layer
boundaries (see ``tracing.py``), reports the per-layer metrics and the
tracing overhead, and writes the spans to ``bench/out/``.  The last
line of standard output is one JSON object; the lines before it are
the readable report: metrics with units, run environment, and every
failed op with its parameters.  The library is imported from the
``src/`` directory next to ``bench/``; without it the run fails.
"""

import os

# One thread per process, BLAS included; the children inherit it.  Set
# before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCES = BENCH / "references"

PROBES = 3              # cold starts per run; their median is reported
CHILD_TIMEOUT = 120.0
# Percentile reported as latency_tail_ms.  chain has 50 or more samples
# beyond p95 in a 10 s run, and p95 spread a third as much as p99 between
# runs; p99 is printed in the report where a run has ten samples beyond
# it.  scatter runs have 500 to 1000 successful ops from a heavy-tailed
# mix, whose p95 spread 10% to 11%.  mc_verify and density runs have 60
# to 100 ops.
TAIL_PERCENTILE = {"chain": 95, "scatter": 90, "mc_verify": 80,
                   "density": 80}
# Traced runs report counts over a fixed prefix of the seeded schedule,
# so the counts repeat exactly for a seed.
COUNT_OPS = {"chain": 300, "scatter": 400, "mc_verify": 6, "density": 7}
SMOKE_COUNT_OPS = {"chain": 10, "scatter": 16, "mc_verify": 3, "density": 5}

END_TO_END_UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_tail_ms": "ms", "setup_s": "s",
                    "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed child)."""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True,
                    choices=("chain", "scatter", "mc_verify", "density"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and one cold start, for the "
                         "benchmark's own tests")
    return ap.parse_args(argv)


def import_library():
    if not (SRC / "hestoncir" / "__init__.py").is_file():
        raise BenchError("no library sources at %s: the benchmark must sit "
                         "in a hestoncir checkout" % SRC)
    sys.path.insert(0, str(SRC))
    import hestoncir
    if Path(hestoncir.__file__).resolve().parent != SRC / "hestoncir":
        raise BenchError("imported hestoncir from %s, not from %s"
                         % (hestoncir.__file__, SRC))
    sys.path.insert(0, str(BENCH))


# ------------------------------------------------------- machine speed

# Median time of each calibration unit (see speed.py) on the reference
# machine (2-core shared Xeon VM, Python 3.11, numpy 2.4, one BLAS thread).
REFERENCE_S = {"quotes": 1.45e-3, "paths": 1.05e-3, "table": 0.8e-3}
CAL_INTERVAL_S = 0.25   # least time between readings in a timed loop


def calibration_unit(op):
    """The calibration unit resembling the work that dominates an op.
    Cold starts are dominated by the interpreter and use "quotes"."""
    import workloads
    if isinstance(op, workloads.McCheck):
        return "paths"
    if isinstance(op, workloads.DensityGrid):
        return "table"
    return "quotes"


class SpeedProbe:
    """The ``speed.py`` process, which times calibration units on request.

    It never imports the library, so a change to the library cannot move
    its readings.  The client pins itself, and so the probe and every
    cold child, to one CPU: the probe then runs on the CPU whose speed
    the client sees, with warm caches, instead of waking an idle one.
    The client waits for each answer, so one process runs at a time.
    """

    def __init__(self):
        usable = os.sched_getaffinity(0)
        self.cpus_usable, self.cpu = len(usable), min(usable)
        os.sched_setaffinity(0, {self.cpu})
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "speed.py")], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def time(self, unit):
        self.proc.stdin.write(unit + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("speed probe exited with %s" % self.proc.wait())
        return float(line)

    def close(self):
        if self.proc.stdin:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Speedometer:
    """Readings of how fast the machine runs, relative to the reference.

    The shared machine's core speed swings by up to 2x in phases of 5 to
    20 seconds, for every process alike, which no run length averages
    out.  A reading has the speed probe time each of the given
    calibration units; ``speed = reference time / time``, so a slow phase
    reads below 1.  An op's measured time is multiplied by the mean speed
    of its unit in the readings just before and just after it, which
    gives its duration at reference speed.  A change to the library moves
    the op times and not the readings.
    """

    def __init__(self, probe, units):
        self.probe, self.units = probe, units
        self.speeds = []
        self.last = -math.inf

    def read(self):
        self.speeds.append({u: REFERENCE_S[u] / self.probe.time(u)
                            for u in self.units})
        self.last = time.perf_counter()
        return len(self.speeds) - 1

    def between(self, unit, a, b):
        return 0.5 * (self.speeds[a][unit] + self.speeds[b][unit])


# ------------------------------------------------------------ child runs

def _run_child(cmd):
    """Run one cold interpreter to completion; returns (start, stdout)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError("%s exited with %d: %s" % (
            " ".join(cmd[1:]), proc.returncode, proc.stderr.strip()[-2000:]))
    return start, proc.stdout


def cold_starts(probe, workload, seed, smoke, n):
    """Medians over n cold interpreters of (set-up, import, first op),
    each at reference speed.

    Set-up runs from process start through ``import hestoncir`` and the
    workload's first op.
    """
    meter = Speedometer(probe, ("quotes",))
    setup, imports, first = [], [], []
    cmd = [sys.executable, str(BENCH / "probe.py"), "--workload", workload,
           "--seed", str(seed)] + (["--smoke"] if smoke else [])
    for _ in range(n):
        before = meter.read()
        start, out = _run_child(cmd)
        speed = meter.between("quotes", before, meter.read())
        rec = json.loads(out.strip().splitlines()[-1])
        setup.append(speed * (rec["imported"] - start + rec["first_op_s"]))
        imports.append(speed * rec["import_s"])
        first.append(speed * rec["first_op_s"])
    return (statistics.median(setup), statistics.median(imports),
            statistics.median(first))


def cli_price_time(probe, seed, n):
    """Median wall time of a cold ``python -m hestoncir.cli price``, at
    reference speed."""
    import workloads
    OUT.mkdir(exist_ok=True)
    path = OUT / ("price-seed%d.json" % seed)
    path.write_text(json.dumps(workloads.cli_config(seed)))
    cmd = [sys.executable, "-m", "hestoncir.cli", "price", "--config",
           str(path)]
    meter = Speedometer(probe, ("quotes",))
    times = []
    for _ in range(n):
        before = meter.read()
        start, out = _run_child(cmd)
        elapsed = time.monotonic() - start
        times.append(elapsed * meter.between("quotes", before,
                                             meter.read()))
        price = json.loads(out)["price"]
        if not (math.isfinite(price) and price > 0):
            raise BenchError("hestoncir price printed price %r" % price)
    return statistics.median(times)


# ------------------------------------------------------------ timed loop

def timed_loop(probe, ops, seconds, block, min_ops, runner):
    """Closed loop over ``ops`` (cycled) until ``seconds`` have passed and
    at least ``min_ops`` ran, stopping only at a multiple of ``block``.

    Returns one record per op: (index into ops, measured latency,
    latency at reference speed, result, error).  An op that raises is
    recorded with its error and the loop goes on.
    """
    import workloads
    cfg = workloads.quote_config()
    units = [calibration_unit(op) for op in ops]
    meter = Speedometer(probe, sorted(set(units)))
    raw = []
    clock = time.perf_counter
    reading = meter.read()
    deadline = clock() + seconds
    i = 0
    while not (i % block == 0 and i >= min_ops and clock() >= deadline):
        k = i % len(ops)
        start = clock()
        try:
            out, err = runner(i, ops[k], cfg), None
        except Exception as exc:  # a failed op is counted, not fatal
            out, err = None, "%s: %s" % (type(exc).__name__, exc)
        end = clock()
        raw.append((k, end - start, reading, out, err))
        if end - meter.last >= CAL_INTERVAL_S:
            reading = meter.read()
        i += 1
    final = meter.read()
    records = []
    for j, (k, lat, a, out, err) in enumerate(raw):
        b = raw[j + 1][2] if j + 1 < len(raw) else final
        records.append((k, lat, lat * meter.between(units[k], a, b), out,
                        err))
    return records


# ---------------------------------------------------------------- checks

def fingerprint(op):
    return hashlib.sha1(repr(op).encode()).hexdigest()[:16]


def reference_file(workload, seed):
    return REFERENCES / ("%s-seed%d.json" % (workload, seed))


def compute_reference(op):
    """(reference price, discount factor) of a quote, at REF_TOL."""
    import workloads
    return (workloads.price_quote(op, workloads.reference_config()),
            workloads.discount(op))


def load_references(workload, seed, ops):
    """Stored (reference, discount) by op index, where the stored
    fingerprint still matches the generated op.  Quotes that fail at the
    quote accuracy are stored without a reference."""
    path = reference_file(workload, seed)
    if not path.is_file():
        return {}
    stored = json.loads(path.read_text())
    return {i: (ref, disc) for i, (fp, ref, disc) in enumerate(stored)
            if i < len(ops) and fp == fingerprint(ops[i]) and ref is not None}


def check_records(workload, seed, ops, records):
    """(reason, how) by op index, for every op that failed.

    ``how`` is "raised" where the op raised instead of returning a
    result, "unchecked" where the reference to check its result against
    could not be computed, and "wrong" where the result failed its
    check.  Quote references come from the stored file for this seed
    where it has them, else are computed here, outside the timed region.
    """
    import workloads
    refs = load_references(workload, seed, ops)
    failures = {}
    for k, _lat, _norm, out, err in records:
        if k in failures:
            continue
        op = ops[k]
        if err is not None:
            failures[k] = (err, "raised")
            continue
        if isinstance(op, workloads.Quote):
            if k not in refs:
                try:
                    refs[k] = compute_reference(op)
                except Exception as exc:  # the result cannot be checked
                    failures[k] = ("reference failed: %s: %s" % (
                        type(exc).__name__, exc), "unchecked")
                    continue
            err = workloads.check_quote(op, out, *refs[k])
        else:
            err = workloads.check_other(op, out)
        if err is not None:
            failures[k] = (err, "wrong")
    return failures


# --------------------------------------------------------------- metrics

def percentile(values, q):
    """Linear-interpolation percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def min_ops_for_percentile(q):
    """Ops a run needs for ten samples beyond percentile q."""
    return math.ceil(10.0 / (1.0 - q / 100.0))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(seed, probe):
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or "unknown"
    digest = hashlib.sha1()
    for path in sorted((SRC / "hestoncir").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"][
            "blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": probe.cpus_usable,
        "pinned_cpu": probe.cpu,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_commit": commit,
        "src_sha1": digest.hexdigest(),
        "seed": seed,
    }


def timing_metrics(workload, latencies):
    """ops_per_s, latency_p50_ms and latency_tail_ms of op latencies in
    seconds."""
    if not latencies:
        raise BenchError("no op succeeded")
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * percentile(latencies,
                                            TAIL_PERCENTILE[workload]),
    }


def traced_metrics(probe, args, ops, block, count_ops, report):
    """Per-layer metrics from a traced loop, and the tracing overhead
    from the same ops run again untraced.  Returns the metrics, the
    traced records and the untraced ones."""
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    try:
        records = timed_loop(
            probe, ops, args.seconds, block, count_ops,
            lambda i, op, cfg: tracer.run_op(i, workloads.run_op, op, cfg))
    finally:
        tracer.uninstall()
    executed = [ops[r[0]] for r in records]
    plain = timed_loop(probe, executed, 0.0, 1, len(executed),
                       lambda i, op, cfg: workloads.run_op(op, cfg))
    traced_s = sum(r[2] for r in records)
    plain_s = sum(r[2] for r in plain)
    metrics = tracing.layer_metrics(tracer.spans, executed, count_ops)
    metrics["trace.overhead_share"] = traced_s / plain_s - 1.0
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / ("spans-%s-seed%d.jsonl" % (args.workload, args.seed))
    tracer.write(spans_path)
    report.append("spans: %d written to %s" % (
        len(tracer.spans), spans_path.relative_to(ROOT)))
    report.append("ops_per_s at reference speed: traced %.6g, untraced "
                  "%.6g (same ops)" % (len(records) / traced_s,
                                       len(plain) / plain_s))
    return metrics, records, plain


# ------------------------------------------------------------------ main

def run(args, probe):
    import_library()
    import tracing
    import workloads

    w = args.workload
    ops = workloads.make_ops(w, args.seed, args.smoke)
    block = workloads.block(w, ops)
    probes = 1 if args.smoke else PROBES
    report = []

    setup_s, import_s, first_op_s = cold_starts(probe, w, args.seed,
                                                args.smoke, probes)
    # warm-up: a few ops, so lazily initialised numpy paths are ready
    warm = min(block, 8)
    timed_loop(probe, ops, 0.0, warm, warm,
               lambda i, op, cfg: workloads.run_op(op, cfg))

    # Timings cover the ops that succeeded; failed ops are counted in
    # "failed" and listed, and the time they took is reported.
    if args.trace:
        count_ops = (SMOKE_COUNT_OPS if args.smoke else COUNT_OPS)[w]
        metrics, records, plain = traced_metrics(probe, args, ops, block,
                                                 count_ops, report)
        failures = check_records(w, args.seed, ops, records)
        ok = [r for r in records if r[0] not in failures]
        unscaled = [p[1] for p, r in zip(plain, records)
                    if r[0] not in failures]
        for name, value in timing_metrics(w, unscaled).items():
            metrics["unscaled." + name] = value
        metrics["cli.import_s"] = import_s
        metrics["cli.first_quote_s"] = first_op_s
        metrics["cli.price_cmd_s"] = cli_price_time(probe, args.seed, probes)
        units = tracing.UNITS
    else:
        min_ops = 1 if args.smoke else \
            min_ops_for_percentile(TAIL_PERCENTILE[w])
        records = timed_loop(probe, ops, args.seconds, block, min_ops,
                             lambda i, op, cfg: workloads.run_op(op, cfg))
        rss_mb = peak_rss_mb()
        failures = check_records(w, args.seed, ops, records)
        ok = [r for r in records if r[0] not in failures]
        metrics = timing_metrics(w, [r[2] for r in ok])
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = rss_mb
        units = END_TO_END_UNITS
        raw = timing_metrics(w, [r[1] for r in ok])
        report.append("measured without speed scaling: " + ", ".join(
            "%s %.6g %s" % (name, value, units[name])
            for name, value in raw.items()))
        report.append("latency_tail_ms is p%d of %d samples" % (
            TAIL_PERCENTILE[w], len(ok)))
        if len(ok) >= min_ops_for_percentile(99):
            report.append("latency_p99_ms %.6g ms (p99 of %d samples)" % (
                1e3 * percentile([r[2] for r in ok], 99), len(ok)))

    # An op is one input of the seeded schedule.  A run that cycles the
    # schedule times an op on each pass and checks every result, and the
    # op counts once in "attempted" and, if any of its results failed,
    # once in "failed".
    attempted = len({r[0] for r in records})
    failed = len(failures)
    busy = sum(r[1] for r in records)
    report.append("workload %s, seed %d, %s run: %d ops, %d executions, "
                  "%.3f s busy, mean speed %.4f, one closed-loop client"
                  % (w, args.seed, "traced" if args.trace else "untraced",
                     attempted, len(records), busy,
                     sum(r[2] for r in records) / busy))
    mc_steps = sum(ops[r[0]].path_steps for r in records
                   if isinstance(ops[r[0]], workloads.McCheck))
    if mc_steps:
        report.append("path_steps_per_s %.6g 1/s at reference speed" % (
            mc_steps / sum(r[2] for r in records)))
    report.append("error_rate %.6g (%d failed of %d attempted); failed "
                  "ops took %.3f s of %.3f s client time" % (
                      failed / attempted, failed, attempted,
                      busy - sum(r[1] for r in ok), busy))
    for name, value in metrics.items():
        report.append("%-45s %.6g %s" % (name, value, units[name]))
    report.append("env " + json.dumps(environment(args.seed, probe)))
    for k, (reason, how) in sorted(failures.items()):
        report.append("FAILED op %d (%s) %r: %s" % (k, how, ops[k], reason))
    print("\n".join(report))

    # Every failure counts in "failed"; only a result shown wrong makes the
    # output incorrect.
    result = {
        "correct": all(how != "wrong" for _reason, how in failures.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None):
    args = parse_args(argv)
    probe = SpeedProbe()
    try:
        return run(args, probe)
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        probe.close()


if __name__ == "__main__":
    sys.exit(main())
