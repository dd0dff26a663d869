"""Shared numerical machinery: adaptive complex quadrature and random streams.

The pricing formulas in this package all reduce to one integral over the
real line of the Fourier transform of a real law, a smooth, oscillatory,
rapidly decaying function f with f(-l) = conj f(l) (the density, and
the put on its contour).  Folded onto l > 0 it is 2 Re f, so every
pricer integrates over (0, inf) only, with one engine,
:func:`integrate_half_line`, an adaptive Gauss-Kronrod (7-15) scheme.
It starts from 16 half-octave panels with edges 0 and 2L 2^(-k/2), k =
15, ..., 0 (L/90.5, L/64, ..., L, sqrt(2) L, 2L), so that one integrand
call resolves any scale from L/90 to 2L.  An integrand with a
singularity a distance ``scale`` from l = 0, such as the put's pole on
its contour, passes that scale, and the half-octave edges continue
inward until the innermost is at most 0.78 scale, so the first call
resolves that scale too.  The density, whose kernel decays
exponentially across its window, cuts the same 8 octaves into 4 panels
each, 32 start panels with edges 2L 2^(-k/4), k = 31, ..., 0, so that
GK15 resolves it in the first call too; the count of panels an octave
is an argument of the private engine, not an option of
:func:`integrate_half_line`.  The engine then refines in batches --
each round bisects every panel whose error is above its share, tol/(2n)
of n panels, at most 128 of them, and evaluates all their children in
one vectorized integrand call of at most 3840 nodes.  An integral is
one set of panels held to one tolerance.  The window's outermost
octave [L, 2L], at first its outer start panels, is the tail test:
while the absolute values of its panels sum to abs_tol or more, the
next octave [2L, 4L] joins the set and the whole set is refined again.
A new octave starts at the resolution the octave before it ended with,
so an oscillating tail is not resolved again one bisection a call.  An
integrand may return several columns at once (several x or rates of
one kernel); they share the panels, and each column is judged against
its own tolerance.  :func:`integrate_real_line` integrates any f over
the whole line on the same engine, as f(l) + f(-l) over l > 0.

Random variates come from SFC64 generators seeded through numpy's
``SeedSequence``: stream i of a master seed is that seed's i-th spawned
child, so (master_seed, stream_id) pairs give independent, reproducible
sequences suitable for deterministic parallel Monte Carlo.  Noncentral
chi-square draws with df > 1 are made as whole arrays from the exact
identity chi2(df - 1) + (Z + sqrt(nc))^2; df <= 1 keeps the Generator's
exact Poisson mixture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .models import _require_finite, _require_int

__all__ = [
    "QuadratureConfig",
    "QuadratureResult",
    "QuadratureError",
    "RngStream",
    "integrate_half_line",
    "integrate_real_line",
    "integrate_interval",
    "sample_noncentral_chisq",
]


class QuadratureError(Exception):
    """Raised when an integrand misbehaves or convergence fails hard."""


@dataclass
class QuadratureConfig:
    """Tolerances and budget for the adaptive integrator.

    ``truncation_bound`` is L in the start window [0, 2L] of 16
    half-octave panels (more when :func:`integrate_half_line` is given
    a ``scale``), whose outer octave [L, 2L], the two panels
    [L, sqrt(2) L] and [sqrt(2) L, 2L], is the first tail test; the
    window grows one octave at a time until the absolute values of its
    outermost octave's panels sum to less than ``abs_tol``.  An L whose
    start window overflows, 4L past the largest float (a panel's
    midpoint is formed as (a + b)/2), raises ValueError.  All its
    panels share one tolerance, max(``abs_tol``, ``rel_tol`` |value|).
    The whole-line :func:`integrate_real_line` takes [-2L, 2L] as f(l) +
    f(-l) on [0, 2L], so its first tail test is the pair [L, 2L] and
    [-2L, -L].
    """

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    max_evals: int = 500_000
    truncation_bound: float = 100.0

    def __post_init__(self):
        _require_finite(self)
        _require_int(self, ("max_evals",))
        if not self.abs_tol > 0:
            raise ValueError("abs_tol must be positive")
        if self.rel_tol < 0:
            raise ValueError("rel_tol must be nonnegative")
        if self.max_evals < 15:
            raise ValueError("max_evals must be at least 15 (one panel)")
        if not self.truncation_bound > 0:
            raise ValueError("truncation_bound must be positive")
        # a panel's midpoint is (a + b)/2, up to 4L on [0, 2L]
        if not math.isfinite(4.0 * self.truncation_bound):
            raise ValueError("truncation_bound %r overflows the start window "
                             "[0, 2L]" % (self.truncation_bound,))


@dataclass
class QuadratureResult:
    """An integral's value and error estimate, the integrand evaluations
    and whether it met its tolerance within budget.

    The value is complex and the error a float, or, for an integrand with
    m columns, an array of m values and one of their m errors.
    ``integrand_calls`` counts the calls of the integrand (the start
    panels, each refinement round, each new octave) and ``window`` is
    the final end L of the half-line window [0, L], or half-width of
    the real-line window [-L, L]; it is 0 for a finite interval.
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
    """A set of panels refined in batches, one integrand call per round,
    that :meth:`extend` grows by new panels in one more call.

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
            keep = np.ones(a.size, dtype=bool)
            keep[split] = False
            self.extend(np.concatenate([a[split], mid]),
                        np.concatenate([mid, b[split]]), keep)

    def extend(self, a, b, keep=slice(None)):
        """Evaluate the panels [a[i], b[i]] in one integrand call and
        append them to the panels that ``keep`` selects."""
        val, err = _gk_panels(self.f, a, b)
        self.evals += 15 * a.size
        self.calls += 1
        self.a = np.concatenate([self.a[keep], a])
        self.b = np.concatenate([self.b[keep], b])
        self.val = np.concatenate([self.val[keep], val])
        self.err = np.concatenate([self.err[keep], err])


def integrate_interval(f, a, b, cfg=None):
    """Adaptively integrate a complex-valued vectorized f over [a, b]."""
    cfg = cfg or QuadratureConfig()
    panels = _Panels(f, [a], [b])
    ok = panels.refine(cfg.abs_tol, cfg.rel_tol, cfg.max_evals)
    return QuadratureResult(panels.value, panels.error, panels.evals, ok,
                            panels.calls)


def integrate_half_line(f, cfg=None, scale=None):
    """Estimate the integral of f over (0, inf).

    f must accept an ndarray of n positive abscissae and return complex
    values, shape (n,), or m integrands at once, shape (n, m); the value
    is then an array of m and every column shares the panels.  The
    start window [0, 2L] (L = cfg.truncation_bound) is cut into 16
    half-octave panels, with edges 0 and 2L 2^(-k/2) for k = 15, ...,
    0, that is 0, L/90.5, L/64, ..., L, sqrt(2) L, 2L (fewer if
    max_evals cannot pay for 16: the innermost go), so that an
    integrand varying on any scale from L/90 to 2L is resolved in the
    first call and l = 0 is never an abscissa.

    ``scale``, if given, is the distance from the real axis to the
    integrand's nearest singularity at l = 0, such as the pole of the
    put at z = 0, a distance |c| from its contour Im z = c.  The
    half-octave edges then continue inward, k = 16, 17, ..., until the
    innermost is at most 0.78 scale, so that the first call resolves
    the integrand's variation near l = 0 too: never fewer than 16
    panels, at most 256, and, as without it, the innermost go first
    when the budget cannot pay for them all.  A nonpositive or
    non-finite scale raises ValueError; ``scale=None`` is the 16-panel
    window.

    The integral is one set of panels, refined in rounds to one
    tolerance per column j, tol_j = max(abs_tol, rel_tol |value_j|), as
    if the column were integrated alone; the error estimate is one per
    column.  Of n panels, a round bisects every panel whose error
    exceeds tol_j/(2n) in a column short of tol_j, so the panels left
    hold at most tol_j/2 (at most 128 panels a round, in panel order,
    so one integrand call gets at most 3840 nodes).

    Once the set meets its tolerance, the window's outermost octave
    [L, 2L], at first the start panels at or beyond L, is the tail
    test: if the absolute values of its panels sum to less than abs_tol
    in every column, the integral stops with window 2L.  The sum is of
    absolute values, so panels that cancel in sign do not pass for a
    negligible tail.  Otherwise the next octave [2L, 4L] joins the set,
    evaluated in one integrand call, the whole set is refined again and
    the tail test moves out to it.  A new octave starts as even panels,
    as many as the octave before it ended with, twice as many if any of
    those was bisected, at most 256 (3840 nodes) and no more than the
    budget left pays for; so a tail that converges at first sight keeps
    its count.

    The integral is converged when the last refinement met the
    tolerance and the tail test passed; it is not when the budget runs
    out first, the panels left are too narrow to bisect or the next
    octave's panel midpoints would overflow (the window reported is
    then the last one that does not).  A budget of
    one panel (max_evals under 30) has no edge at or beyond L and so no
    tail test: the integral is not converged.  ``evaluations`` never
    exceeds ``cfg.max_evals``.  The result reports the integrand calls
    and the final window end 2L.
    """
    cfg = cfg or QuadratureConfig()
    return _half_line(f, cfg, scale=scale)


def _half_line(f, cfg, per_node=1, scale=None, per_octave=2):
    """:func:`integrate_half_line` of an f that costs ``per_node``
    evaluations a node, with its start window graded down to ``scale``
    and cut into ``per_octave`` panels an octave.

    The budget is cfg.max_evals // per_node nodes, and a round bisects
    at most _MAX_SPLITS // per_node panels and a new octave, or the
    start window, has at most twice as many, so a call never costs more
    than 3840 evaluations; ``evaluations`` counts per_node a node.
    Under 15 nodes nothing is evaluated, and the integral is not
    converged.

    The start window [0, 2L] has ``per_octave`` panels an octave, edges
    0 and 2L 2^(-k/per_octave), k = 8 per_octave - 1, ..., 0, and a
    ``scale`` continues them inward at the same spacing.  The pricers
    keep the half-octave edges of 2 an octave; an integrand that decays
    exponentially across the window, such as the density kernel, takes
    4, so that its first call resolves it.  The outer octave's
    ``per_octave`` start panels are the first tail test.
    """
    budget = cfg.max_evals // per_node
    max_splits = _MAX_SPLITS // per_node
    L = cfg.truncation_bound
    n = 8 * per_octave
    if scale is not None:
        if not (math.isfinite(scale) and scale > 0):
            raise ValueError("scale must be positive and finite, got %r"
                             % (scale,))
        # the innermost edge 2L 2^(-(n-1)/per_octave) at most 0.78 scale:
        # at L = 100 the contours Im z = -4 and -2 keep 8 octaves, and each
        # halving of |c| below adds one octave of per_octave panels; log2
        # of scale alone stays finite for the smallest positive float
        steps = per_octave * (math.log2(2.0 * L / 0.78) - math.log2(scale))
        n = min(max(n, 1 + math.ceil(steps)), 2 * max_splits)
    n = min(n, budget // 15)
    if n == 0:
        return QuadratureResult(0j, math.inf, 0, False)
    edges = np.concatenate([[0.0], 2.0 * L * 2.0 ** (
        -np.arange(n - 1, -1, -1.0) / per_octave)])
    panels = _Panels(f, edges[:-1], edges[1:])
    # n is the panel count the outermost octave [L, 2L] started with, the
    # start panels from L = 2L 2^(-1) on; one start panel has no edge at
    # L, so it tests no tail
    n = min(per_octave, n - 1)
    converged = False
    while panels.refine(cfg.abs_tol, cfg.rel_tol, budget, max_splits):
        # |panel values|: panels that cancel in sign are not a small tail
        outer = panels.a >= L
        if n and np.max(np.abs(panels.val[outer]).sum(axis=0)) < cfg.abs_tol:
            converged = True
            break
        room = (budget - panels.evals) // 15
        # the next octave [2L, 4L] would overflow its midpoints (a + b)/2
        if room == 0 or not math.isfinite(8.0 * L):
            break
        ended = np.count_nonzero(outer)
        n = min(ended * (2 if ended > n else 1), 2 * max_splits, room)
        L *= 2.0
        edges = np.linspace(L, 2.0 * L, n + 1)
        panels.extend(edges[:-1], edges[1:])
    return QuadratureResult(panels.value, panels.error,
                            per_node * panels.evals, converged, panels.calls,
                            2.0 * L)


def integrate_real_line(f, cfg=None):
    """Estimate the integral of f over (-inf, inf).

    The integral of f(l) + f(-l) over (0, inf) by
    :func:`integrate_half_line`: each integrand call evaluates f once,
    at the nodes and their mirror images together, and a round bisects
    at most 64 panels, so a call still has at most 3840 abscissae (the
    first call, 16 start panels a side, has 480); the window [-L, L]
    grows by pairs of octaves [L, 2L] and [-2L, -L].  f takes abscissae
    of either sign and returns values as for
    :func:`integrate_half_line`; l = 0 is never an abscissa.
    ``evaluations`` counts the nodes at which f was evaluated, both
    signs, and never exceeds
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
    """A reproducible SFC64 stream: child ``stream_id`` of ``master_seed``.

    The generator is ``SFC64(SeedSequence(master_seed mod 2**64,
    spawn_key=(stream_id,)))``, which is exactly the ``stream_id``-th
    child that ``SeedSequence(master_seed mod 2**64).spawn`` hands out,
    so streams with distinct (master_seed, stream_id) are independent by
    numpy's seed spawning.  That makes path-parallel Monte Carlo
    deterministic under any scheduling.  The seed is taken mod 2**64
    because ``SeedSequence`` rejects negative entropy.
    """

    master_seed: int
    stream_id: int = 0
    _gen: np.random.Generator | None = field(
        default=None, repr=False, compare=False)

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            seq = np.random.SeedSequence(self.master_seed & (2**64 - 1),
                                         spawn_key=(int(self.stream_id),))
            self._gen = np.random.Generator(np.random.SFC64(seq))
        return self._gen


def sample_noncentral_chisq(df, noncentrality, rng: RngStream, size=None):
    """Draw from the noncentral chi-square law chi2(df, noncentrality).

    Two exact routes, so Feller-violating CIR parameter sets sample
    correctly too:

    * df > 1 (every element, if df is an array): chi2(df - 1) +
      (Z + sqrt(nc))^2, drawn as whole arrays -- the standard normals
      first, then 2 standard_gamma((df - 1)/2).  This is the identity
      ``Generator.noncentral_chisquare`` applies one element at a time,
      at less cost per draw.
    * otherwise: one ``Generator.noncentral_chisquare`` call, whose
      Poisson mixture J ~ Poisson(nc/2), then chi2(df + 2J), is the only
      exact route once chi2(df - 1) does not exist; a vectorized mixture
      is slower than numpy's, so it is not used for every df.

    ``df`` and ``noncentrality`` may be scalars or broadcastable arrays;
    the output shape follows numpy broadcasting (plus ``size``).  A
    nonpositive or NaN df, or a negative noncentrality, raises
    ValueError; a NaN noncentrality gives NaN.
    """
    dfa = np.asarray(df, dtype=float)
    if not np.all(dfa > 0.0):
        raise ValueError("df must be positive, got %r" % (df,))
    if not np.all(dfa > 1.0):
        return rng.generator.noncentral_chisquare(df, noncentrality, size)
    nc = np.asarray(noncentrality, dtype=float)
    if np.any(nc < 0.0):
        raise ValueError("nonc < 0")
    shape = np.broadcast_shapes(dfa.shape, nc.shape) if size is None \
        else size
    gen = rng.generator
    z = gen.standard_normal(shape)
    out = gen.standard_gamma(0.5 * (dfa - 1.0), shape)
    out *= 2.0
    z += np.sqrt(nc)
    out += z * z
    return float(out) if size is None and out.ndim == 0 else out
