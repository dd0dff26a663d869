"""Closed-form Heston pricing via a single Fourier integral.

The marginal density of the drift-adjusted logreturn and the vanilla
price both come out as one integral over a real frequency variable l.
All hyperbolic expressions are evaluated in the cosh/sinh form through
exp(-w) factors: with the principal square root the argument w has
nonnegative real part, so nothing overflows at long maturity or large
|l|, and the complex logarithm stays on its principal branch without
manual rotation-counting.

The pricer and the density take them by one route, :func:`_core_half`,
as accurate at sigma -> 0 as at any other sigma.  Both pricers, here
and in :mod:`hestoncir.hybrid`, share one integrand body and one
post-processing.

The exponent cores depend on the parameters and the maturity but not on
the strike or the rate, which enter only through phases.  Quotes on one
(params, T) therefore share their cores through a bounded memo: the
pricer admits the kernel key once per quote, the key gets a table of
cores at its second quote, and the integrand computes only the nodes
the table lacks.  Parameter sets priced once store nothing.

The density is one Fourier integral over l as well, taken on a uniform
l-table of its kernel.  An evenly spaced x grid sums that table by a
chirp-z transform (Bluestein's algorithm on ``numpy.fft``); any other x
(single points, uneven grids) by cos/sin phase matrices in blocks of
bounded size.  The price-via-density cross-check integrates the payoff
against each mode of the same table in closed form.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict

import numpy as np

from .models import HestonParams, VanillaOption, risk_neutral_map
from .numerics import QuadratureConfig, QuadratureError, integrate_interval, \
    integrate_real_line

__all__ = [
    "PricingError",
    "omega_of_l",
    "nu_of_l",
    "big_n_of_l",
    "big_m_of_l",
    "price_integrand",
    "density_integrand",
    "marginal_density",
    "marginal_density_grid",
    "heston_call_price",
    "heston_price_with_diagnostics",
    "price_via_density",
]

_TWO_PI = 2.0 * math.pi


class PricingError(Exception):
    """Quadrature failure or internal-consistency violation in a pricer."""


def _stable_nsh(w, beta):
    """Stable evaluation of N = 1/(cosh w + beta sinh w) and companions.

    Returns (N, log N, (cosh w - N)/sinh w).  Everything is factored
    through exp(-w); Re(w) >= 0 is guaranteed by the principal square
    root upstream, so exp(-w) never overflows.
    """
    w = np.asarray(w, dtype=complex)
    emw = np.exp(-w)
    e2 = emw * emw
    denom = (1.0 + e2) + beta * (1.0 - e2)
    n = 2.0 * emw / denom
    log_n = math.log(2.0) - w - np.log(denom)
    g = ((1.0 + e2) - 2.0 * emw * n) / (1.0 - e2)
    return n, log_n, g


def omega_of_l(l, p: HestonParams):
    """Frequency omega(l) = (sigma/2) sqrt((kappa/sigma + i l rho)^2 + l(l - i))."""
    l = np.asarray(l, dtype=complex)
    radicand = (p.kappa / p.sigma + 1j * l * p.rho) ** 2 + l * (l - 1j)
    return 0.5 * p.sigma * np.sqrt(radicand)


def nu_of_l(l, p: HestonParams):
    """Shifted frequency nu(l), the omega of the spot-weighted kernel."""
    l = np.asarray(l, dtype=complex)
    radicand = (p.kappa / p.sigma + 1j * l * p.rho - p.rho) ** 2 + l * (l + 1j)
    return 0.5 * p.sigma * np.sqrt(radicand)


def big_n_of_l(l, T, p: HestonParams):
    """N(l) = 1 / (cosh(omega T) + (kappa + i l rho sigma)/(2 omega) sinh(omega T))."""
    omega = omega_of_l(l, p)
    beta = (p.kappa + 1j * np.asarray(l) * p.rho * p.sigma) / (2.0 * omega)
    n, _, _ = _stable_nsh(omega * T, beta)
    return n


def big_m_of_l(l, T, p: HestonParams):
    """M(l), the analogue of N(l) built on nu(l)."""
    nu = nu_of_l(l, p)
    beta = (p.kappa + 1j * np.asarray(l) * p.rho * p.sigma
            - p.rho * p.sigma) / (2.0 * nu)
    m, _, _ = _stable_nsh(nu * T, beta)
    return m


def _log1p_c(z):
    """log(1 + z) for complex z, accurate for small |z|.

    The real part is log|1 + z| = log1p(x (2 + x) + y^2)/2, which keeps
    the relative accuracy of a small z; the imaginary part is the
    principal arg(1 + z) = atan2(y, 1 + x).
    """
    z = np.asarray(z, dtype=complex)
    x, y = z.real, z.imag
    return 0.5 * np.log1p(x * (2.0 + x) + y * y) \
        + 1j * np.arctan2(y, 1.0 + x)


def _core_half(l2, b0, b, T, v0, kappa_theta, sig2):
    """One exponent core, cancellation-free for every sigma.

    With 4 f^2 = b^2 + sig2 l2, s = 2f + b, d = 2f - b (s d = sig2 l2)
    and e = exp(-2fT), the exp(-w) form of the core is exactly

        v0 l2 (e - 1)/(s + d e) - kappa theta (l2 T/s + (2/sig2) log P),

    P = (s + d e)/(4f) = 1 + d (e - 1)/(4f) since s + d = 4f, and
    log N = -fT - log P with the principal log N of :func:`_stable_nsh`.
    P - 1 is O(sig2) and its log1p exact, so no 1/sig2 goes uncancelled.
    b = b0 + i l rho sigma with b0 real; as Re 4f^2 > 0 for real l, s
    cancels only if b0 < 0 (kappa < rho sigma, spot side, near l = 0).
    There d is formed directly, s = sig2 l2/d, and log P is taken of P
    itself, which may be near 0 rather than 1.
    """
    sl2 = sig2 * l2
    two_f = np.sqrt(b * b + sl2)
    em1 = np.expm1(-T * two_f)
    if b0 >= 0.0:
        s = two_f + b
        d = sl2 / s
        p = 2.0 * two_f + d * em1
        log_p = _log1p_c((0.5 * d) * em1 / two_f)
    else:
        d = two_f - b
        s = sl2 / d
        p = s + d * np.exp(-T * two_f)
        log_p = np.log(p / (2.0 * two_f))
    return (v0 * l2) * em1 / p \
        - kappa_theta * (T * l2 / s + (2.0 / sig2) * log_p)


def _pricing_kappa_theta(p: HestonParams):
    """kappa and theta of the pricing measure, lam folded in."""
    if p.lam != 0.0:
        return risk_neutral_map(p.kappa, p.theta, p.lam)
    return p.kappa, p.theta


def _strike_core(l, T, p: HestonParams):
    """Strike-side core i l rho a/sigma + kappa a/sigma^2 + upsilon(l).

    Its exp is the density's kernel, the characteristic function of x_T.
    """
    kappa, theta = _pricing_kappa_theta(p)
    b = kappa + (1j * p.rho * p.sigma) * l
    return _core_half(l * (l - 1j), kappa, b, T, p.v0, kappa * theta,
                      p.sigma * p.sigma)


def _spot_core(l, T, p: HestonParams):
    """Spot-side exponent core, on nu(l) as the strike core is on omega(l)."""
    kappa, theta = _pricing_kappa_theta(p)
    b0 = kappa - p.rho * p.sigma
    b = b0 + (1j * p.rho * p.sigma) * l
    return _core_half(l * (l + 1j), b0, b, T, p.v0, kappa * theta,
                      p.sigma * p.sigma)


def _core_exponents(l, T, p: HestonParams):
    """Spot- and strike-side exponent cores of the price integrand.

    The full exponents are i*l*(x_e - rT) + spot_core for the spot term
    and i*l*(x_e - rT) - rT + strike_core for the strike term; the
    i*l*(rho/sigma)*a phase and the kappa*a/sigma^2 offset are folded in
    by :func:`_core_half`, the one route for every amplification
    2(kappa theta + v0)/sigma^2.
    """
    l = np.asarray(l, dtype=float)
    return _spot_core(l, T, p), _strike_core(l, T, p)


# Bounds of the exponent-core memo: the kernel keys it remembers (seen
# once or holding a table) and the nodes all its tables hold together.
# A node costs 40 bytes (l and two complex cores), so the tables stay
# within about 1 MB; a table that meets the budget still serves hits.
_MEMO_KEYS = 64
_MEMO_NODES = 25_000


class _CoreMemo:
    """Bounded memo of a kernel's two exponent cores, one table per key.

    A key holds every value the core function reads (parameters and T).
    A table is (sorted nodes, 2 x n cores); a lookup is a searchsorted
    with an equality test, and the misses are computed by the core
    function and merged into a new table that replaces the old one
    whole, so a reader never sees a table change.  A hit returns the
    values the core function computed for that node.  Past ``max_keys``
    remembered keys the least recently admitted one is forgotten.
    """

    def __init__(self):
        self.max_keys = _MEMO_KEYS
        self.max_nodes = _MEMO_NODES
        self._entries = OrderedDict()   # key -> None (seen once) or table
        self._nodes = 0
        self._lock = threading.Lock()

    def clear(self):
        with self._lock:
            self._entries.clear()
            self._nodes = 0

    @property
    def tables(self):
        """Keys holding a table, least recently admitted first."""
        return [k for k, t in list(self._entries.items()) if t is not None]

    @property
    def nodes(self):
        return self._nodes

    @property
    def nbytes(self):
        """Bytes held by the tables' arrays."""
        return sum(t[0].nbytes + t[1].nbytes
                   for t in list(self._entries.values()) if t is not None)

    def admit(self, key):
        """Count one quote on ``key``; its second quote gets a table."""
        with self._lock:
            if key not in self._entries:
                self._entries[key] = None
                if len(self._entries) > self.max_keys:
                    _, old = self._entries.popitem(last=False)
                    if old is not None:
                        self._nodes -= old[0].size
                return
            self._entries.move_to_end(key)
            if self._entries[key] is None:
                self._entries[key] = (np.empty(0), np.empty((2, 0), complex))

    def cores(self, key, l, fn, *args):
        """``fn(l, *args)``, a pair of core arrays, through key's table."""
        table = self._entries.get(key)
        if table is None:
            return fn(l, *args)
        l = np.asarray(l, dtype=float)
        flat = l.reshape(-1)
        nodes, vals = table
        idx, miss = _locate(nodes, flat)
        if not miss.any():
            out = vals[:, idx]
        elif miss.all():
            out = self._fill(key, flat, fn(flat, *args))
        else:
            out = vals[:, idx]
            new = flat[miss]
            out[:, miss] = self._fill(key, new, fn(new, *args))
        return out[0].reshape(l.shape), out[1].reshape(l.shape)

    def _fill(self, key, new, got):
        """Merge the cores ``got`` at nodes ``new`` into key's table.

        Returns ``got`` as one 2 x n array.  Nodes another thread stored
        since the lookup are skipped; a table that would pass the node
        budget is left as it is.
        """
        got = np.array(got)
        new, first = np.unique(new, return_index=True)
        with self._lock:
            table = self._entries.get(key)
            if table is None:       # evicted since the lookup
                return got
            nodes, vals = table
            _, fresh = _locate(nodes, new)
            new, first = new[fresh], first[fresh]
            if not new.size or self._nodes + new.size > self.max_nodes:
                return got
            pos = nodes.searchsorted(new)
            self._entries[key] = (np.insert(nodes, pos, new),
                                  np.insert(vals, pos, got[:, first], axis=1))
            self._nodes += new.size
        return got


def _locate(nodes, x):
    """Index of each x in the sorted ``nodes`` and a mask of those absent.

    An absent x gets some index in range, or 0 when ``nodes`` is empty.
    """
    if not nodes.size:
        return np.zeros(x.shape, dtype=np.intp), np.ones(x.shape, dtype=bool)
    idx = nodes.searchsorted(x)
    np.minimum(idx, nodes.size - 1, out=idx)
    return idx, nodes[idx] != x


_MEMO = _CoreMemo()


def _heston_key(p: HestonParams, T):
    """The fields :func:`_core_exponents` reads, plus T (mu is unused)."""
    return (p.kappa, p.theta, p.sigma, p.rho, p.v0, p.lam, T)


def _braced(l, opt: VanillaOption, x, spot_exp, strike_exp, bond):
    """(S0 e^{ilx + spot_exp} - K e^{ilx + strike_exp} - S0 + K bond)/l.

    The braced integrand of both pricers: the exponents carry the
    volatility and rate cores, and the constant cancels the 1/l pole.
    """
    phase = 1j * l * x
    spot_term = opt.s0 * np.exp(phase + spot_exp)
    strike_term = opt.strike * np.exp(phase + strike_exp)
    return (spot_term - strike_term - opt.s0 + opt.strike * bond) / l


def price_integrand(l, opt: VanillaOption, p: HestonParams, r: float):
    """The braced l-integrand of the single-integral call price.

    Vectorized over l; finite in the limit l -> 0 (the constant
    subtraction cancels the 1/l pole), but l = 0 itself must not be an
    abscissa -- the adaptive rule splits the domain there.  A constant
    rate is the rate model with cores (-i l rT, -i l rT - rT) and log
    bond -rT; the -i l rT is folded into the phase.
    """
    l = np.asarray(l, dtype=float)
    T = opt.maturity
    rt = r * T
    spot_core, strike_core = _MEMO.cores(_heston_key(p, T), l,
                                         _core_exponents, T, p)
    return _braced(l, opt, math.log(opt.strike / opt.s0) - rt, spot_core,
                   strike_core - rt, math.exp(-rt))


def _check_result(res, what):
    if not res.converged:
        raise PricingError(
            "%s quadrature did not converge: error=%.3e after %d evaluations"
            % (what, res.error_estimate, res.evaluations))


def _finish_price(res, opt: VanillaOption, bond, cfg: QuadratureConfig,
                  what):
    """(price, res) from the braced integral ``res``, for both pricers.

    Checks convergence, the imaginary residual and the sign, and prices
    a put by the parity C - P = S0 - K bond.
    """
    _check_result(res, what)
    s0, k = opt.s0, opt.strike
    price_c = 0.5 * (s0 - k * bond) + 1j * res.value / _TWO_PI
    imag = abs(price_c.imag)
    if imag > 10.0 * res.error_estimate + 1e-10 * s0:
        raise PricingError(
            "%s imaginary residual %.3e exceeds 10x quadrature error %.3e"
            % (what, imag, res.error_estimate))
    call = price_c.real
    if call < -10.0 * max(cfg.abs_tol, res.error_estimate):
        raise PricingError("%s gives a negative call %.6e" % (what, call))
    call = max(call, 0.0)
    if opt.kind == "put":
        return call - s0 + k * bond, res
    return call, res


def heston_call_price(opt: VanillaOption, p: HestonParams, r: float,
                      cfg: QuadratureConfig | None = None) -> float:
    """European vanilla price under Heston with constant rate r.

    ``p`` must carry risk-neutral (option-propagation) parameters with
    mu = r; apply :func:`hestoncir.models.risk_neutral_map` first if a
    volatility risk premium is in play.  Puts are priced via parity.
    """
    price, _ = heston_price_with_diagnostics(opt, p, r, cfg)
    return price


def heston_price_with_diagnostics(opt: VanillaOption, p: HestonParams,
                                  r: float,
                                  cfg: QuadratureConfig | None = None):
    """Like :func:`heston_call_price`, also returning the QuadratureResult."""
    cfg = cfg or QuadratureConfig()
    _MEMO.admit(_heston_key(p, opt.maturity))
    res = integrate_real_line(lambda l: price_integrand(l, opt, p, r), cfg)
    return _finish_price(res, opt, math.exp(-r * opt.maturity), cfg, "price")


def density_integrand(l, x, T, p: HestonParams):
    """Fourier integrand of the marginal logreturn density (vectorized)."""
    l = np.asarray(l, dtype=float)
    return np.exp(1j * l * x + _strike_core(l, T, p))


def marginal_density(x: float, T: float, p: HestonParams,
                     cfg: QuadratureConfig | None = None) -> float:
    """Density of the logreturn x_T = ln(S_T/S0) - mu T at x.

    The integrand is conjugate-symmetric over real l, so the imaginary
    part of the integral is pure quadrature noise; it is checked against
    the error estimate and discarded.
    """
    cfg = cfg or QuadratureConfig()
    res = integrate_real_line(lambda l: density_integrand(l, x, T, p), cfg)
    _check_result(res, "density")
    if abs(res.value.imag) > 10.0 * res.error_estimate + 1e-12:
        raise PricingError(
            "density imaginary residual %.3e at x=%g" % (res.value.imag, x))
    return res.value.real / _TWO_PI


# Phase entries (points x table nodes) in one block of the matrix route:
# each of its angle, cosine and sine arrays stays within 8 MB.
_PHASE_BLOCK = 1 << 20


def _uniform_step(xs):
    """The step dx of an evenly spaced 1-D ``xs``, or None.

    Evenly spaced means at least two points, each within a few ulps of
    xs[0] + j dx, and dx != 0; descending grids count.
    """
    if xs.ndim != 1 or xs.size < 2:
        return None
    dx = (xs[-1] - xs[0]) / (xs.size - 1)
    if not dx or not math.isfinite(dx):
        return None
    ramp = xs[0] + dx * np.arange(xs.size)
    if np.all(np.abs(xs - ramp) <= 4.0 * np.spacing(np.max(np.abs(xs)))):
        return dx
    return None


def _phase_matrix_sum(kernel, h, xs):
    """Re sum_k kernel_k exp(i x l_k), l_k = k h, by cos/sin matrices.

    Works for any x; blocks of rows keep each phase matrix within
    ``_PHASE_BLOCK`` entries.
    """
    grid = np.arange(kernel.size) * h
    k_re, k_im = kernel.real, kernel.imag
    out = np.empty(xs.shape)
    rows = max(1, _PHASE_BLOCK // kernel.size)
    for i0 in range(0, xs.size, rows):
        angles = np.outer(xs[i0:i0 + rows], grid)
        out[i0:i0 + rows] = np.cos(angles) @ k_re - np.sin(angles) @ k_im
    return out


def _chirp_z_sum(kernel, h, x0, dx, m):
    """Re sum_k kernel_k exp(i x_j l_k) on x_j = x0 + j dx, j < m.

    Bluestein's chirp-z transform: with alpha = dx h and
    jk = (j^2 + k^2 - (j - k)^2)/2 the sum is a convolution of the
    chirped kernel with exp(-i alpha t^2/2), done by FFT in
    O((n + m) log(n + m)).
    """
    n = kernel.size
    alpha = dx * h
    k = np.arange(n, dtype=float)
    u = kernel * np.exp(1j * (x0 * h * k + 0.5 * alpha * k * k))
    size = 1 << (n + m - 2).bit_length()    # power of two >= n + m - 1
    t = np.arange(max(n, m), dtype=float)
    chirp = np.exp(-0.5j * alpha * t * t)
    v = np.zeros(size, dtype=complex)
    v[:m] = chirp[:m]
    v[size - n + 1:] = chirp[n - 1:0:-1]    # t = -(n-1) .. -1
    conv = np.fft.ifft(np.fft.fft(u, size) * np.fft.fft(v))[:m]
    j = t[:m]
    return (np.exp(0.5j * alpha * j * j) * conv).real


def _payoff_strip_sum(kernel, h, lo, hi, a, k):
    """Re sum_k kernel_k int_lo^hi (a e^x - k) exp(i x l_k) dx, l_k = k h.

    Each mode integrates in closed form.  About the midpoint m, with
    half-width s and z = (1 + i l) s,

        int e^{(1+il)x} dx = 2 s e^{(1+il)m} sinh(z)/z,
        int e^{ilx} dx     = 2 s e^{ilm} sin(l s)/(l s),

    and neither cancels as l -> 0; the second is hi - lo at l = 0.
    """
    grid = np.arange(kernel.size) * h
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    z = half * (1.0 + 1j * grid)
    modes = a * math.exp(mid) * (np.sinh(z) / z) \
        - k * np.sinc(half / math.pi * grid)
    return 2.0 * half * (kernel @ (np.exp(1j * mid * grid) * modes)).real


def _density_evaluator(T, p: HestonParams, cfg: QuadratureConfig,
                       x_reach: float):
    """Logreturn density for |x| <= x_reach, and its payoff strips.

    Returns ``(density, payoff_strip)``: ``density(xs)`` is vectorized
    over x, and ``payoff_strip(lo, hi, a, k, outer)`` is the integral of
    (a e^x - k) times the density over [lo, hi].

    Builds a uniform trapezoid table of the Fourier kernel in l; for an
    analytic integrand decaying exponentially at both ends the uniform
    rule converges near-spectrally, so a single table replaces one
    adaptive quadrature per x.  The table is verified against the
    adaptive :func:`marginal_density` at probe points.

    The table's density is f(x) = Re sum_k c_k exp(i l_k x) / 2 pi.  An
    evenly spaced x grid (the CLI's and :func:`marginal_density_grid`'s
    usual input) sums it by a chirp-z transform, O((N + M) log(N + M))
    in time and memory; every other x (the single-point probes, uneven
    grids) by cos/sin phase matrices, O(N M) in time, in blocks of
    bounded size.  Both routes stay, because the transform needs evenly
    spaced x.  A payoff strip needs no x at all: every mode integrates
    against a e^x - k in closed form, so a strip is one O(N) dot product
    and exact for the table.

    When the table disagrees with a probe, the scalar route is returned
    instead: the density is one adaptive :func:`marginal_density` per x,
    and a payoff strip an adaptive :func:`integrate_interval` of it to
    ``outer``'s tolerance.  That route has no table to sum in closed
    form, so it keeps the quadrature in x.
    """
    scale = math.sqrt((p.v0 + p.theta) * T)
    # step small enough that the 2*pi/h aliasing period clears the
    # requested x-range plus the density's own support
    h = min(0.05, math.pi / (x_reach + 12.0 * scale + 1.0))
    l_max = 50.0
    while True:
        decay = float(np.real(_strike_core(np.array([l_max]), T, p))[0])
        if decay < -45.0 or l_max >= 1e5:
            break
        l_max *= 2.0
    # conjugate symmetry of the kernel folds the line onto l >= 0
    grid = np.arange(0.0, l_max + 0.5 * h, h)
    weights = np.full(grid.shape, 2.0 * h)
    weights[0] = h
    weights[-1] = h
    kernel = weights * np.exp(_strike_core(grid, T, p))

    def table_density(xs):
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        dx = _uniform_step(xs)
        if dx is None:
            return _phase_matrix_sum(kernel, h, xs) / _TWO_PI
        return _chirp_z_sum(kernel, h, xs[0], dx, xs.size) / _TWO_PI

    def table_strip(lo, hi, a, k, outer):
        return _payoff_strip_sum(kernel, h, lo, hi, a, k) / _TWO_PI

    peak = float(table_density(np.array([0.0]))[0])
    for probe in (0.0, 0.9 * scale, -1.7 * scale):
        ref = marginal_density(probe, T, p, cfg)
        if abs(float(table_density(probe)[0]) - ref) > 1e-7 * (peak + 1.0):
            break
    else:
        return table_density, table_strip

    def scalar_density(xs):
        return np.array([marginal_density(x, T, p, cfg)
                         for x in np.atleast_1d(xs)])

    def scalar_strip(lo, hi, a, k, outer):
        res = integrate_interval(
            lambda xs: (a * np.exp(xs) - k) * scalar_density(xs),
            lo, hi, outer)
        _check_result(res, "payoff")
        return res.value.real

    return scalar_density, scalar_strip


def marginal_density_grid(xs, T: float, p: HestonParams,
                          cfg: QuadratureConfig | None = None):
    """Density of the logreturn at each x in xs (vectorized).

    The variable is the drift-adjusted logreturn x_T = ln(S_T/S0) - mu T,
    as for :func:`marginal_density`.
    """
    cfg = cfg or QuadratureConfig()
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    reach = float(np.max(np.abs(xs))) if xs.size else 1.0
    density, _ = _density_evaluator(T, p, cfg, reach)
    return density(xs)


def price_via_density(opt: VanillaOption, p: HestonParams, r: float,
                      cfg: QuadratureConfig | None = None) -> float:
    """Price by discounted expectation over the logreturn density.

    Cross-check of :func:`heston_call_price`.  Under mu = r the terminal
    spot is S0 exp(x_T + rT), so the call payoff is a e^x - K with
    a = S0 e^{rT}, nonzero for x above ln(K/S0) - rT.  It is integrated
    against the density of :func:`marginal_density_grid` in strips
    [lo, hi] going up from there, each strip in closed form over the
    density's l-table (see :func:`_density_evaluator`); only when that
    table fails its probes is a strip an adaptive quadrature in x of the
    scalar density.  The route shares nothing with the pricer's spot
    core or its l-quadrature: it reads the strike core alone, on its own
    uniform l-table, checked against the adaptive density at three
    probes.  Puts follow by parity.

    The strips widen from 0.5 to 2 and stop once a strip of width 2,
    above 6 density widths, adds less than 10 abs_tol.  Limitation: on a
    fat right tail (the moment E[S_T^w] explodes for w just above 1)
    e^x f(x) decays so slowly that the density's rounding error,
    magnified by a e^x, overtakes it before any strip falls below that
    bound.  The strips then change sign and grow, and past x_bail (60
    above max(x_lo, 0), or 40 density widths when more) a
    :class:`PricingError` says so, in milliseconds on the table route.
    With sigma = 0.5, kappa = 1.5, theta = 0.05 and v0 = 0.04 this
    happens at T = 5 with rho = 0.9 and at T = 30 with rho >= 0, where
    :func:`heston_call_price` still prices.
    """
    cfg = cfg or QuadratureConfig()
    s0, k, T = opt.s0, opt.strike, opt.maturity
    disc = math.exp(-r * T)
    x_lo = math.log(k / s0) - r * T
    scale = math.sqrt((p.v0 + p.theta) * T)
    x_bail = max(x_lo, 0.0) + max(60.0, 40.0 * scale)
    _, payoff_strip = _density_evaluator(T, p, cfg,
                                         abs(x_lo) + x_bail + 4.0)

    outer = QuadratureConfig(
        abs_tol=max(cfg.abs_tol, 1e-9), rel_tol=cfg.rel_tol,
        max_evals=cfg.max_evals)
    # Expand the upper limit in doubling strips until the payoff tail
    # is negligible; the density decays faster than the payoff grows.
    # Never stop below 6 density widths above the origin, or a deep
    # strike would bail before the bulk of the mass is even reached.
    total = 0.0
    lo, width = x_lo, 0.5
    while True:
        hi = lo + width
        strip = payoff_strip(lo, hi, s0 / disc, k, outer)
        total += strip
        if abs(strip) < outer.abs_tol * 10 and width >= 2.0 \
                and hi > 6.0 * scale:
            break
        if hi > x_bail:
            raise PricingError(
                "payoff integral failed to decay at T=%g: past x_bail=%.4g "
                "the strip [%.4g, %.4g] still adds %.3e, not below %.1e"
                % (T, x_bail, lo, hi, strip, outer.abs_tol * 10))
        lo, width = hi, min(2.0 * width, 2.0)
    call = disc * total
    if opt.kind == "put":
        return call - s0 + k * disc
    return call
