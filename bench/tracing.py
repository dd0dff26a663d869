"""Span recording around the library's layer boundaries, from outside.

The tracer replaces module attributes with timing wrappers: the public
entry points the benchmark calls on the ``hestoncir`` package, and the
functions each layer looks up in its own module namespace at call time
(``heston.integrate_real_line``, ``hybrid.rate_kernel``, ...).  Nothing
under ``src/`` is edited; :meth:`Tracer.uninstall` puts every original
back.  Spans are kept in memory as tuples and written out at the end.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

import hestoncir
from hestoncir import heston, hybrid, mc

SPAN_FIELDS = ("name", "start", "end", "parent", "op", "count", "ok")


def _nodes(args, _out):
    return int(np.size(args[0])), True


def _evals(_args, out):
    return int(out.evaluations), bool(out.converged)


def _draws(_args, out):
    return int(np.size(out)), True


def _path_steps(args, _out):
    cfg = args[2]
    return int(cfg.paths * cfg.steps), True


# (span name, module, attribute, count extractor or None)
TARGETS = (
    ("api.heston_call_price", hestoncir, "heston_call_price", None),
    ("api.hybrid_call_price", hestoncir, "hybrid_call_price", None),
    ("api.mc_price_heston_euler", hestoncir, "mc_price_heston_euler", None),
    ("api.mc_price_hybrid", hestoncir, "mc_price_hybrid", None),
    ("api.marginal_density_grid", hestoncir, "marginal_density_grid", None),
    ("api.price_via_density", hestoncir, "price_via_density", None),
    ("heston.integrate_real_line", heston, "integrate_real_line", _evals),
    ("heston.price_integrand", heston, "price_integrand", _nodes),
    ("heston.marginal_density", heston, "marginal_density", None),
    ("heston.integrate_interval", heston, "integrate_interval", _evals),
    ("hybrid.integrate_real_line", hybrid, "integrate_real_line", _evals),
    ("hybrid.hybrid_price_integrand", hybrid, "hybrid_price_integrand",
     _nodes),
    ("hybrid.rate_kernel", hybrid, "rate_kernel", None),
    ("hybrid.cir_bond_price", hybrid, "cir_bond_price", None),
    ("mc.sample_noncentral_chisq", mc, "sample_noncentral_chisq", _draws),
    ("mc.heston_call_price", mc, "heston_call_price", None),
    ("mc.simulate_average_rates", mc, "simulate_average_rates",
     _path_steps),
)


UNITS = {
    "numerics.evals_per_quote": "count",
    "numerics.panels_per_quote": "count",
    "numerics.quad_self_share": "ratio",
    "numerics.nonconverged": "count",
    "numerics.chisq_share": "ratio",
    "numerics.chisq_draws_per_s": "1/s",
    "numerics.payoff_quad_evals": "count",
    "heston.integrand_us_per_call": "us",
    "heston.integrand_ns_per_node": "ns",
    "heston.integrand_share": "ratio",
    "heston.density_grid_ms": "ms",
    "heston.density_points_per_s": "1/s",
    "heston.price_via_density_ms": "ms",
    "heston.density_probe_calls": "count",
    "hybrid.integrand_us_per_call": "us",
    "hybrid.integrand_ns_per_node": "ns",
    "hybrid.integrand_share": "ratio",
    "hybrid.rate_kernel_calls_per_integrand_call": "count",
    "hybrid.bond_calls_per_quote": "count",
    "hybrid.deterministic_branch_share": "ratio",
    "mc.euler_path_steps_per_s": "1/s",
    "mc.avg_rate_path_steps_per_s": "1/s",
    "mc.rate_sampling_share": "ratio",
    "mc.closed_form_calls_per_estimate": "count",
    "mc.closed_form_share": "ratio",
    "mc.path_steps_per_s": "1/s",
    "cli.import_s": "s",
    "cli.first_quote_s": "s",
    "cli.price_cmd_s": "s",
    "trace.overhead_share": "ratio",
    "unscaled.ops_per_s": "1/s",
    "unscaled.latency_p50_ms": "ms",
    "unscaled.latency_tail_ms": "ms",
}


class Tracer:
    """Records (name, start, end, parent, op, count, ok) spans.

    ``parent`` is the index of the enclosing span or -1; ``op`` is the
    index of the benchmark op the span belongs to; ``count`` is the
    work the call did where it is observable from its arguments or
    result (integrand nodes, quadrature evaluations, chi-square draws,
    path-steps), else 0; ``ok`` is false for a quadrature that did not
    converge or a call that raised.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self.op = -1

    def _wrap(self, name, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op, 0, False)
            count, ok = (0, True) if counter is None else counter(args, out)
            spans[idx] = (name, start, end, parent, self.op, count, ok)
            return out

        return wrapper

    def install(self):
        for name, module, attr, counter in TARGETS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, counter))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def run_op(self, op_index, fn, *args):
        """Run one benchmark op as the root span ``op``."""
        self.op = op_index
        return self._wrap("op", fn, None)(*args)

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps(SPAN_FIELDS) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans):
    """Span duration minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for _name, start, end, parent, *_rest in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


class SpanStats:
    """Sums of time, self time, calls and counts per span name over a
    chosen set of ops."""

    def __init__(self, spans, ops=None):
        selfs = self_times(spans)
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.count = defaultdict(int)
        self.children = defaultdict(lambda: defaultdict(int))
        self.ops = set()
        for span, st in zip(spans, selfs):
            name, start, end, parent, op, n, _ok = span
            if ops is not None and op not in ops:
                continue
            if name == "op":
                self.ops.add(op)
            self.time[name] += end - start
            self.self_time[name] += st
            self.calls[name] += 1
            self.count[name] += n
            if parent >= 0:
                self.children[spans[parent][0]][name] += 1


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, ops, count_ops):
    """Per-layer metrics from a traced run.

    Counts (evaluations, panels, calls per call) come from the first
    ``count_ops`` ops only, a fixed prefix of the seeded schedule, so
    they repeat exactly between runs with the same seed; times come
    from every traced op.  A layer the workload does not reach reads 0.
    """
    from workloads import DensityGrid, DensityPrice, McCheck, Quote

    every = SpanStats(spans)
    fixed = SpanStats(spans, set(range(count_ops)))
    op_time = every.time["op"]
    quotes = [i for i in range(count_ops) if isinstance(ops[i], Quote)]
    hybrid_quotes = [i for i in quotes if ops[i].model == "hybrid"]
    mc_ops = {i for i in every.ops if isinstance(ops[i], McCheck)}
    grids = [i for i in range(count_ops) if isinstance(ops[i], DensityGrid)]
    crosses = [i for i in range(count_ops)
               if isinstance(ops[i], DensityPrice)]
    m = {}

    # numerics: quadrature work per quote (exact), its own overhead, and
    # chi-square sampling inside the Monte Carlo layer
    quote_stats = SpanStats(spans, set(quotes))
    nodes = quote_stats.count["heston.price_integrand"] + \
        quote_stats.count["hybrid.hybrid_price_integrand"]
    m["numerics.evals_per_quote"] = _ratio(nodes, len(quotes))
    # one integrand call evaluates one Gauss-Kronrod panel
    m["numerics.panels_per_quote"] = _ratio(
        quote_stats.calls["heston.price_integrand"]
        + quote_stats.calls["hybrid.hybrid_price_integrand"], len(quotes))
    quad_self = every.self_time["heston.integrate_real_line"] + \
        every.self_time["hybrid.integrate_real_line"]
    m["numerics.quad_self_share"] = _ratio(quad_self, op_time)
    m["numerics.nonconverged"] = sum(
        1 for s in spans if s[0].endswith("integrate_real_line")
        and s[4] < count_ops and not s[6])
    mc_stats = SpanStats(spans, mc_ops)
    chisq_t = mc_stats.time["mc.sample_noncentral_chisq"]
    m["numerics.chisq_share"] = _ratio(chisq_t, mc_stats.time["op"])
    m["numerics.chisq_draws_per_s"] = _ratio(
        mc_stats.count["mc.sample_noncentral_chisq"], chisq_t)
    m["numerics.payoff_quad_evals"] = _ratio(
        SpanStats(spans, set(crosses)).count["heston.integrate_interval"],
        len(crosses))

    # heston: integrand cost per call and per node, density table path
    for layer, name in (("heston", "heston.price_integrand"),
                        ("hybrid", "hybrid.hybrid_price_integrand")):
        t = every.time[name]
        m[layer + ".integrand_us_per_call"] = _ratio(1e6 * t,
                                                     every.calls[name])
        m[layer + ".integrand_ns_per_node"] = _ratio(1e9 * t,
                                                     every.count[name])
        m[layer + ".integrand_share"] = _ratio(t, op_time)
    grid_t = every.time["api.marginal_density_grid"]
    points = sum(ops[i].n for i in every.ops
                 if isinstance(ops[i], DensityGrid))
    m["heston.density_grid_ms"] = _ratio(
        1e3 * grid_t, every.calls["api.marginal_density_grid"])
    m["heston.density_points_per_s"] = _ratio(points, grid_t)
    m["heston.price_via_density_ms"] = _ratio(
        1e3 * every.time["api.price_via_density"],
        every.calls["api.price_via_density"])
    m["heston.density_probe_calls"] = _ratio(
        fixed.children["api.marginal_density_grid"]["heston.marginal_density"],
        len(grids))

    # hybrid: wasted rate-kernel work and the bond / deterministic branch
    hq = SpanStats(spans, set(hybrid_quotes))
    m["hybrid.rate_kernel_calls_per_integrand_call"] = _ratio(
        hq.children["hybrid.hybrid_price_integrand"]["hybrid.rate_kernel"],
        hq.calls["hybrid.hybrid_price_integrand"])
    m["hybrid.bond_calls_per_quote"] = _ratio(
        hq.calls["hybrid.cir_bond_price"], len(hybrid_quotes))
    m["hybrid.deterministic_branch_share"] = _ratio(
        hq.children["api.hybrid_call_price"]["heston.integrate_real_line"],
        len(hybrid_quotes))

    # mc: path throughput of each scheme, and the closed-form share of the
    # averaged-rate estimator
    euler_steps = sum(ops[i].path_steps for i in mc_ops
                      if ops[i].scheme != "hybrid")
    m["mc.euler_path_steps_per_s"] = _ratio(
        euler_steps, every.time["api.mc_price_heston_euler"])
    m["mc.avg_rate_path_steps_per_s"] = _ratio(
        every.count["mc.simulate_average_rates"],
        every.time["mc.simulate_average_rates"])
    m["mc.rate_sampling_share"] = _ratio(
        chisq_t, every.time["mc.simulate_average_rates"])
    m["mc.closed_form_calls_per_estimate"] = _ratio(
        fixed.children["api.mc_price_hybrid"]["mc.heston_call_price"],
        fixed.calls["api.mc_price_hybrid"])
    m["mc.closed_form_share"] = _ratio(
        every.time["mc.heston_call_price"], every.time["api.mc_price_hybrid"])
    m["mc.path_steps_per_s"] = _ratio(
        sum(ops[i].path_steps for i in mc_ops), mc_stats.time["op"])
    return m

