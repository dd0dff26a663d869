"""Shared numerical machinery: adaptive complex quadrature and random streams.

The pricing formulas in this package all reduce to one integral over the
real line of the Fourier transform of a real law, a smooth, oscillatory,
rapidly decaying function f with f(-l) = conj f(l) (the density) or
-conj f(l) (the braced price).  Folded onto l > 0 it is 2 Re f or 2 Im
f, so every pricer integrates over (0, inf) only, with one engine,
:func:`integrate_half_line`, an adaptive Gauss-Kronrod (7-15) scheme.
It starts from geometric panels with edges 0, L/64, ..., L, 2L, so that
one integrand call resolves any scale from L/64 to 2L; it then refines
in batches -- each round bisects every panel whose error is above its
share, tol/(2n) of n panels, at most 128 of them, and evaluates all
their children in one vectorized integrand call of at most 3840
nodes.  The start window's outer panel [L, 2L] is the first test of
the tail; while the outermost panel contributes more than the
tolerance, the window grows geometrically by strips [2L, 4L], ....  An
integrand may return several columns at once (several x or rates of
one kernel); they share the panels, and each column is judged against
its own tolerance.  :func:`integrate_real_line` integrates any f over
the whole line on the same engine, as f(l) + f(-l) over l > 0.

Random variates come from counter-based Philox streams so that
(master_seed, stream_id) pairs give independent, reproducible sequences
suitable for deterministic parallel Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .models import _require_finite

__all__ = [
    "QuadratureConfig",
    "QuadratureResult",
    "QuadratureError",
    "RngStream",
    "integrate_half_line",
    "integrate_real_line",
    "integrate_interval",
    "sample_standard_normal",
    "sample_noncentral_chisq",
]


class QuadratureError(Exception):
    """Raised when an integrand misbehaves or convergence fails hard."""


@dataclass
class QuadratureConfig:
    """Tolerances and budget for the adaptive integrator.

    ``truncation_bound`` is L in the start window [0, 2L], whose outer
    panel [L, 2L] is the first tail test; the window is doubled until
    the outermost strip contributes less than ``abs_tol``.  The
    whole-line :func:`integrate_real_line` takes [-2L, 2L] as f(l) +
    f(-l) on [0, 2L], so its first tail test is the pair [L, 2L] and
    [-2L, -L].
    """

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    max_evals: int = 500_000
    truncation_bound: float = 100.0

    def __post_init__(self):
        _require_finite(self)
        if not self.abs_tol > 0:
            raise ValueError("abs_tol must be positive")
        if self.rel_tol < 0:
            raise ValueError("rel_tol must be nonnegative")
        if self.max_evals < 15:
            raise ValueError("max_evals must be at least 15 (one panel)")
        if not self.truncation_bound > 0:
            raise ValueError("truncation_bound must be positive")


@dataclass
class QuadratureResult:
    """An integral's value and error estimate, the integrand evaluations
    and whether it met its tolerance within budget.

    The value is complex and the error a float, or, for an integrand with
    m columns, an array of m values and one of their m errors.
    ``integrand_calls`` counts the calls of the integrand (one per
    refinement round, every strip included) and ``window`` is the final
    end L of the half-line window [0, L], or half-width of the
    real-line window [-L, L]; it is 0 for a finite interval.
    """

    value: complex
    error_estimate: float
    evaluations: int
    converged: bool
    integrand_calls: int = 0
    window: float = 0.0


# Gauss-Kronrod 7-15 nodes and weights on [-1, 1].  The 7 Gauss nodes
# are the odd-indexed Kronrod nodes; the embedded difference gives the
# per-panel error estimate.
_XGK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])


# Most panels bisected in one refinement round: their 256 children are
# 3840 nodes, which bounds the memory of one integrand call.  The whole
# line evaluates f at both signs of a node, so it bisects half as many.
_MAX_SPLITS = 128


def _gk_panels(f, a, b):
    """Gauss-Kronrod 7-15 on each panel [a[i], b[i]], in one call of f.

    f returns one value per node, shape (n,), or m per node, shape
    (n, m).  Returns the kronrod estimates, shape (panels,) or
    (panels, m), and their errors |kronrod - gauss| in the same shape.
    """
    # (n,) kept beside (n, m): as m = 1, p50 `chain` +6%, `scatter` +7%
    half = 0.5 * (b - a)
    nodes = ((0.5 * (a + b))[:, None] + half[:, None] * _XGK).ravel()
    vals = np.asarray(f(nodes), dtype=complex)
    if vals.shape != nodes.shape and (vals.ndim != 2
                                      or vals.shape[0] != nodes.size):
        raise QuadratureError(
            "integrand must be vectorized: expected shape %s or %s + (m,), "
            "got %s" % (nodes.shape, nodes.shape, np.shape(vals)))
    bad = ~np.isfinite(vals)
    if bad.any():
        where = nodes[bad.nonzero()[0][0]]
        raise QuadratureError(
            "integrand returned a non-finite value at l=%r" % (where,))
    if vals.ndim == 1:
        vals = vals.reshape(-1, 15)
        resk = half * (vals @ _WGK)
        resg = half * (vals[:, 1::2] @ _WG)
        return resk, np.abs(resk - resg)
    vals = vals.reshape(a.size, 15, -1).swapaxes(1, 2)
    resk = half[:, None] * (vals @ _WGK)
    resg = half[:, None] * (vals[:, :, 1::2] @ _WG)
    return resk, np.abs(resk - resg)


class _Panels:
    """A set of panels refined in batches, one integrand call per round.

    The integrand has one column or m; the value and the error are
    complex and float, or arrays of m, one per column.
    """

    def __init__(self, f, a, b):
        self.f = f
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.val, self.err = _gk_panels(f, self.a, self.b)
        self.evals = 15 * self.a.size
        self.calls = 1

    @property
    def value(self):
        if self.val.ndim == 1:
            return complex(self.val.sum())
        return self.val.sum(axis=0)

    @property
    def error(self):
        if self.err.ndim == 1:
            return float(self.err.sum())
        return self.err.sum(axis=0)

    def _to_split(self, abs_tol, rel_tol):
        """The panels to bisect, in panel order, or None at tolerance.

        Column j is short when its error exceeds its tolerance tol_j =
        max(abs_tol, rel_tol |value_j|).  With n panels, every panel
        whose error in a short column exceeds tol_j/(2n) is taken, so
        the panels left hold at most tol_j/2 in every column.  Panels
        narrower than ~1e-13 of their location are frozen: below that
        width the error estimate reflects the integrand's rounding
        noise, not truncation error.
        """
        tol = np.maximum(abs_tol, rel_tol * abs(self.value))
        short = self.error > tol
        if not short.any():
            return None
        a, b = self.a, self.b
        over = (self.err > 0.5 * tol / a.size) & short
        return np.flatnonzero(
            over.reshape(a.size, -1).any(axis=1)
            & (b - a >= 1e-13 * (1.0 + np.abs(a) + np.abs(b))))

    def refine(self, abs_tol, rel_tol, evals_budget,
               max_splits=_MAX_SPLITS):
        """Bisect panels in rounds until tolerance or budget is exhausted.

        Each round bisects the panels :meth:`_to_split` picks, every
        panel above its share of the tolerance, the first ``max_splits``
        of them in panel order and no more than the budget pays for, and
        evaluates every child in one integrand call.
        """
        while True:
            split = self._to_split(abs_tol, rel_tol)
            if split is None:
                return True
            room = (evals_budget - self.evals) // 30
            if split.size == 0 or room <= 0:
                return False
            a, b = self.a, self.b
            split = split[:min(max_splits, room)]
            mid = 0.5 * (a[split] + b[split])
            ca = np.concatenate([a[split], mid])
            cb = np.concatenate([mid, b[split]])
            cval, cerr = _gk_panels(self.f, ca, cb)
            self.evals += 15 * ca.size
            self.calls += 1
            keep = np.ones(a.size, dtype=bool)
            keep[split] = False
            self.a = np.concatenate([a[keep], ca])
            self.b = np.concatenate([b[keep], cb])
            self.val = np.concatenate([self.val[keep], cval])
            self.err = np.concatenate([self.err[keep], cerr])


def integrate_interval(f, a, b, cfg=None):
    """Adaptively integrate a complex-valued vectorized f over [a, b]."""
    cfg = cfg or QuadratureConfig()
    panels = _Panels(f, [a], [b])
    ok = panels.refine(cfg.abs_tol, cfg.rel_tol, cfg.max_evals)
    return QuadratureResult(panels.value, panels.error, panels.evals, ok,
                            panels.calls)


def integrate_half_line(f, cfg=None):
    """Estimate the integral of f over (0, inf).

    f must accept an ndarray of n positive abscissae and return complex
    values, shape (n,), or m integrands at once, shape (n, m); the value
    is then an array of m and every column shares the panels.  The
    start window [0, 2L] (L = cfg.truncation_bound) is cut into
    geometric panels with edges 0, L/64, L/32, ..., L, 2L, 8 of them
    (fewer if max_evals cannot pay for 8: the innermost go), so that an
    integrand varying on any scale from L/64 to 2L is resolved in the
    first call and l = 0 is never an abscissa.  Once the window is
    refined, its outer panel [L, 2L] is the first tail test: if its
    contribution is below abs_tol, in every column, the integral stops
    with window 2L.  Otherwise the window grows by doubling; each new
    strip [2L, 4L], and so on, is one panel refined at abs_tol, and
    growth stops at the first strip below abs_tol.  A budget of one
    panel (max_evals under 30) has no edge at L and so no tail test:
    the integral is not converged.  Each column j is held to its own
    tolerance tol_j = max(abs_tol, rel_tol |value_j|), as if integrated
    alone, and the error estimate is one per column.  Of n panels, a
    refinement round bisects every panel whose error exceeds tol_j/(2n)
    in a column short of tol_j, so the panels left hold at most tol_j/2
    (at most 128 panels a round, in panel order, so one integrand call
    gets at most 3840 nodes); ``evaluations`` never exceeds
    ``cfg.max_evals``.  The result reports the integrand calls of every
    round and strip, and the final L.
    """
    cfg = cfg or QuadratureConfig()
    return _half_line(f, cfg)


def _half_line(f, cfg, per_node=1):
    """:func:`integrate_half_line` of an f that costs ``per_node``
    evaluations a node.

    The budget is cfg.max_evals // per_node nodes, and a round bisects
    at most _MAX_SPLITS // per_node panels, so a call never costs more
    than 3840 evaluations; ``evaluations`` counts per_node a node.
    Under 15 nodes nothing is evaluated, and the integral is not
    converged.
    """
    budget = cfg.max_evals // per_node
    max_splits = _MAX_SPLITS // per_node
    L = cfg.truncation_bound
    panels = min(8, budget // 15)
    if panels == 0:
        return QuadratureResult(0j, math.inf, 0, False)
    edges = np.concatenate(
        [[0.0], 2.0 * L * 2.0 ** -np.arange(panels - 1, -1, -1.0)])
    window = _Panels(f, edges[:-1], edges[1:])
    converged = window.refine(cfg.abs_tol, cfg.rel_tol, budget, max_splits)
    value = window.value
    error = window.error
    evals = window.evals
    calls = window.calls
    # the outer panel [L, 2L] is the first tail test; one panel has no
    # edge at L, so it tests no tail
    tail = window.val[window.a >= L].sum(axis=0)
    L *= 2.0
    if panels > 1 and np.max(np.abs(tail)) < cfg.abs_tol:
        return QuadratureResult(value, error, per_node * evals, converged,
                                calls, L)

    while evals + 15 <= budget:
        strip = _Panels(f, [L], [2.0 * L])
        ok = strip.refine(cfg.abs_tol, 0.0, budget - evals, max_splits)
        evals += strip.evals
        calls += strip.calls
        contribution = strip.value
        value += contribution
        error += strip.error
        converged = converged and ok
        L *= 2.0
        if np.max(np.abs(contribution)) < cfg.abs_tol:
            break
    else:
        converged = False

    return QuadratureResult(value, error, per_node * evals, converged,
                            calls, L)


def integrate_real_line(f, cfg=None):
    """Estimate the integral of f over (-inf, inf).

    The integral of f(l) + f(-l) over (0, inf) by
    :func:`integrate_half_line`: each integrand call evaluates f once,
    at the nodes and their mirror images together, and a round bisects
    at most 64 panels, so a call still has at most 3840 abscissae; the
    window [-L, L] grows by pairs of strips
    [L, 2L] and [-2L, -L].  f takes abscissae of either sign and
    returns values as for :func:`integrate_half_line`; l = 0 is never
    an abscissa.  ``evaluations`` counts the nodes
    at which f was evaluated, both signs, and never exceeds
    ``cfg.max_evals``; a budget under 60 has no tail test, and one under
    30 evaluates nothing.
    """
    cfg = cfg or QuadratureConfig()

    def folded(l):
        vals = np.asarray(f(np.concatenate([l, -l])))
        if vals.shape[:1] != (2 * l.size,):
            return vals         # _gk_panels names the shape it wanted
        return vals[:l.size] + vals[l.size:]

    return _half_line(folded, cfg, per_node=2)


@dataclass
class RngStream:
    """A reproducible Philox substream.

    Streams with distinct (master_seed, stream_id) are statistically
    independent by construction of the counter-based generator, which
    makes path-parallel Monte Carlo deterministic under any scheduling.
    """

    master_seed: int
    stream_id: int = 0
    _gen: np.random.Generator | None = field(
        default=None, repr=False, compare=False)

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            key = (self.master_seed & (2**64 - 1)) | (int(self.stream_id) << 64)
            self._gen = np.random.Generator(np.random.Philox(key=key))
        return self._gen


def sample_standard_normal(rng: RngStream, size=None):
    """Standard normal draw(s) from the given stream."""
    out = rng.generator.standard_normal(size)
    return float(out) if size is None else out


def sample_noncentral_chisq(df, noncentrality, rng: RngStream, size=None):
    """Draw from the noncentral chi-square law chi2(df, noncentrality).

    One ``Generator.noncentral_chisquare`` call on the stream.  For
    df > 1 numpy draws chi2(df - 1) + (Z + sqrt(nc))^2; for df <= 1 the
    Poisson mixture J ~ Poisson(nc/2), then chi2(df + 2J) through a
    gamma sampler valid for shapes below 1.  Both are exact, so
    Feller-violating CIR parameter sets sample correctly too.

    ``df`` and ``noncentrality`` may be scalars or broadcastable arrays;
    the output shape follows numpy broadcasting (plus ``size``).  A
    nonpositive df or negative noncentrality raises ValueError.
    """
    return rng.generator.noncentral_chisquare(df, noncentrality, size)
