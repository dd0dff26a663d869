"""Shared numerical machinery: adaptive complex quadrature and random streams.

The pricing formulas in this package all reduce to one integral of a
smooth, oscillatory, rapidly decaying complex function over the real
line.  The integrator here is an adaptive Gauss-Kronrod (7-15) scheme.
It starts from geometric panels, 0, +-L/64, ..., +-L, +-2L, so that
one integrand call resolves any scale from L/64 to 2L; it then refines
in batches -- each round bisects every panel whose error is above its
share, tol/(2n) of n panels, at most 128 of them, and evaluates all
their children in one vectorized integrand call of at most 3840
nodes.  The start window's outer pair, [L, 2L] and [-2L, -L], is the
first test of the tail; while the outermost pair contributes more than
the tolerance, the window grows geometrically by strips.  An integrand
may return several columns at once (several x or rates of one kernel);
they share the panels, and each column is judged against its own
tolerance.

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

    ``truncation_bound`` is L in the start window [-2L, 2L], whose outer
    pair [L, 2L] and [-2L, -L] is the first tail test; the window is
    doubled until the outermost pair contributes less than ``abs_tol``.
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
    half-width L of the real-line window, 0 for a finite interval.
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
# 3840 nodes, which bounds the memory of one integrand call.
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

    def refine(self, abs_tol, rel_tol, evals_budget):
        """Bisect panels in rounds until tolerance or budget is exhausted.

        Each round bisects the panels :meth:`_to_split` picks, every
        panel above its share of the tolerance, the first
        ``_MAX_SPLITS`` of them in panel order and no more than the
        budget pays for, and evaluates every child in one integrand
        call.
        """
        while True:
            split = self._to_split(abs_tol, rel_tol)
            if split is None:
                return True
            room = (evals_budget - self.evals) // 30
            if split.size == 0 or room <= 0:
                return False
            a, b = self.a, self.b
            split = split[:min(_MAX_SPLITS, room)]
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


def integrate_real_line(f, cfg=None):
    """Estimate the integral of f over (-inf, inf).

    f must accept an ndarray of n real abscissae and return complex
    values, shape (n,), or m integrands at once, shape (n, m); the value
    is then an array of m and every column shares the panels.  The
    start window [-2L, 2L] (L = cfg.truncation_bound) is cut into
    geometric panels with edges 0, +-L/64, +-L/32, ..., +-L, +-2L, 8 a
    side (fewer if max_evals cannot pay for 8: the innermost go), so
    that an integrand varying on any scale from L/64 to 2L is resolved
    in the first call and l = 0 is never an abscissa.  Once the window
    is refined, its outer pair [L, 2L] and [-2L, -L] is the first tail
    test: if the pair's combined contribution is below abs_tol, in
    every column, the integral stops with window 2L.  Otherwise the
    window grows by doubling; each new pair of strips [2L, 4L] and
    [-4L, -2L], and so on, is refined jointly at abs_tol, and growth
    stops at the first pair below abs_tol.  A pair is taken together
    because odd parts of the integrand cancel only between mirrored
    strips.  A budget of one panel a side (max_evals under 60) has no
    edge at +-L and so no tail test: the integral is not converged.
    Each column j is held to its own tolerance tol_j = max(abs_tol,
    rel_tol |value_j|), as if integrated alone, and the error estimate
    is one per column.  Of n panels, a refinement round bisects every
    panel whose error exceeds tol_j/(2n) in a column short of tol_j, so
    the panels left hold at most tol_j/2 (at most 128 panels a round, in
    panel order, so one integrand call gets at most 3840 nodes);
    ``evaluations`` never exceeds ``cfg.max_evals``.  The result reports
    the integrand calls of every round and strip, and the final L.
    """
    cfg = cfg or QuadratureConfig()
    L = cfg.truncation_bound

    per_side = min(8, cfg.max_evals // 30)
    if per_side == 0:   # the budget cannot pay for both halves
        return QuadratureResult(0j, math.inf, 0, False)
    pos = 2.0 * L * 2.0 ** -np.arange(per_side - 1, -1, -1.0)
    edges = np.concatenate([-pos[::-1], [0.0], pos])
    window = _Panels(f, edges[:-1], edges[1:])
    converged = window.refine(cfg.abs_tol, cfg.rel_tol, cfg.max_evals)
    value = window.value
    error = window.error
    evals = window.evals
    calls = window.calls
    # the outer pair [L, 2L] and [-2L, -L] is the first tail test; one
    # panel a side has no edge at L, so it tests no tail
    outer = (window.a >= L) | (window.b <= -L)
    tail = window.val[outer].sum(axis=0)
    L *= 2.0
    if per_side > 1 and np.max(np.abs(tail)) < cfg.abs_tol:
        return QuadratureResult(value, error, evals, converged, calls, L)

    while evals + 30 <= cfg.max_evals:
        strip = _Panels(f, [L, -2.0 * L], [2.0 * L, -L])
        ok = strip.refine(cfg.abs_tol, 0.0, cfg.max_evals - evals)
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

    return QuadratureResult(value, error, evals, converged, calls, L)


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
