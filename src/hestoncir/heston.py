"""Closed-form Heston pricing via a single Fourier integral.

The put is one integral along z = l + i c, Lewis's (2001) contour form,
one strike core per node on a line c in (-w-, 0) that
:func:`_contour_shift` certifies; the call follows by parity, and the
density is the same core on the real line.  Both integrands are
conjugate-symmetric in l, so each is integrated as 2 Re of it over l > 0
(:func:`hestoncir.numerics.integrate_half_line`).  The put's payoff
transform has a pole at z = 0, a distance |c| from the real line, so
both pricers, here and in :mod:`hestoncir.hybrid`, grade the start
window down to |c| (``scale=-c``) and resolve it in the first integrand
call; c is part of the memo key, so every strike on a key still makes
the same first call.  All hyperbolic
expressions are evaluated in the cosh/sinh form through exp(-w) factors:
with the principal square root w has nonnegative real part, so nothing
overflows at long maturity or large |l|, and the complex logarithm stays
on its principal branch without manual rotation-counting.

The pricer, the density, the paper's N and M and the CIR rate side in
:mod:`hestoncir.hybrid` take them by one route, :func:`_core_half`,
as accurate at sigma -> 0 as at any other sigma.  Both pricers, here
and in :mod:`hestoncir.hybrid`, share one integrand body and one
post-processing; both broadcast over a trailing axis of rates, so a
contract's prices at many constant rates are one integral with one
column per rate (:func:`heston_call_price` with an array of rates).

The core depends on the parameters and the maturity (which fix c) but
not on the strike or the rate, which enter only through phases.  Quotes
on one (params, T) therefore share their cores through a bounded memo:
the pricer admits the kernel key once per quote, and the key gets a
table at its second quote with one entry per integrand call, keyed by
its abscissae' bytes.  Parameter sets priced once store nothing.

The density is one Fourier integral over l as well, taken on a uniform
l-table of its kernel that ends at its first node below e^-45 and whose
step an aliasing period sets, checked by one adaptive integral at three
probes, whose start window of 4 panels an octave resolves the kernel in
its first integrand call; a table that fails its probe, or needs more
nodes than the evaluation budget, raises.  Every period comes from the
law's own tail depths, Chernoff bounds on the moments E[exp(s x_T)], the
strike core at l = i s, finite between the critical moments
(:func:`critical_moments`).
A grid's period keeps the images of its x-range where the mass is below
e^-45, rounded to M |dx| for a 5-smooth M, so an even grid sums the
table by one FFT of length M; any other x by cos/sin phase matrices in
bounded blocks.  The price-via-density cross-check integrates the
bounded put payoff against each mode of its table in closed form, from
below the strike up to it, and prices the call by parity, finishing the
price by the pricers' sign check and floor.  The contour,
the critical moments and the Chernoff samples take one explosion test,
the closed-form explosion time T*(s) (:func:`_explosion_time`).
"""

from __future__ import annotations

import dataclasses
import math
import threading
from collections import OrderedDict

import numpy as np

from .models import HestonParams, VanillaOption, risk_neutral_map
from .numerics import (QuadratureConfig, QuadratureError, _half_line,
                       integrate_half_line)
# nothing here calls them: bench/tracing.py wraps heston.integrate_interval
# and heston.integrate_real_line
from .numerics import integrate_interval, integrate_real_line  # noqa: F401

__all__ = [
    "PricingError",
    "omega_of_l",
    "nu_of_l",
    "big_n_of_l",
    "big_m_of_l",
    "price_integrand",
    "marginal_density",
    "marginal_density_grid",
    "critical_moments",
    "heston_call_price",
    "heston_price_with_diagnostics",
    "price_via_density",
]

_TWO_PI = 2.0 * math.pi
# :func:`_tail_depths`' samples of (0, w), as fractions of w
_CHERNOFF_SAMPLES = np.concatenate([2.0 ** (-0.5 * np.arange(51)),
                                    np.linspace(0.5, 1.0, 16, endpoint=False)])


class PricingError(Exception):
    """Quadrature failure or internal-consistency violation in a pricer.

    ``result`` is the :class:`~hestoncir.numerics.QuadratureResult` of an
    integral that did not converge, else None.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


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
    l = np.asarray(l)
    return _amplitude(l * (l - 1j), p.kappa, l, T, p)


def big_m_of_l(l, T, p: HestonParams):
    """M(l), the analogue of N(l) built on nu(l)."""
    l = np.asarray(l)
    return _amplitude(l * (l + 1j), p.kappa - p.rho * p.sigma, l, T, p)


def _amplitude(l2, b0, l, T, p: HestonParams):
    """N or M as exp(-fT - log P) of :func:`_core_half`, on the raw kappa."""
    _, two_f, log_p = _core_half(l2, b0, b0 + 1j * l * p.rho * p.sigma, T,
                                 0.0, 0.0, p.sigma * p.sigma)
    return np.exp(-0.5 * T * two_f - log_p)


def _log1p_c(z):
    """log(1 + z) for complex z, accurate for small |z| and near z = -1.

    The real part is log|1 + z| = log1p(x (2 + x) + y^2)/2, which keeps
    the relative accuracy of a small z; where |1 + z| < 1/2 that sum
    rounds towards -1 and loses |1 + z|, so there it is log(hypot(1 + x,
    y)), with 1 + x exact (x lies in (-3/2, -1/2)).  The imaginary part
    is the principal arg(1 + z) = atan2(y, 1 + x).
    """
    z = np.asarray(z, dtype=complex)
    x, y = z.real, z.imag
    q = x * (2.0 + x) + y * y
    near = q < -0.75
    if near.any():
        re = np.where(near, np.log(np.hypot(1.0 + x, y)),
                      0.5 * np.log1p(np.where(near, 0.0, q)))
    else:
        re = 0.5 * np.log1p(q)
    return re + 1j * np.arctan2(y, 1.0 + x)


def _core_half(l2, b0, b, T, v0, kappa_theta, sig2):
    """One exponent core, cancellation-free for every sigma.

    The one route for every exp(-w) quantity: the volatility strike
    core at z (b = kappa + i z rho sigma, l2 = z(z - i)), the rate cores
    (b = kappa_r, l2 = 2 i z or 2(i z + 1)) and the paper's N, M, N_r
    and M_r.  Returns (core, 2f, log P).

    With 4 f^2 = b^2 + sig2 l2, s = 2f + b, d = 2f - b (s d = sig2 l2)
    and e = exp(-2fT), the exp(-w) form of the core is exactly

        v0 l2 (e - 1)/(s + d e) - kappa theta (l2 T/s + (2/sig2) log P),

    P = (s + d e)/(4f) = 1 + d (e - 1)/(4f) since s + d = 4f, and
    N = 1/(cosh fT + (b/2f) sinh fT) = exp(-fT - log P), with f on the
    principal square root, so Re fT >= 0 and log N is the principal one
    without rotation-counting.  P - 1 is O(sig2) and its log1p exact, so
    no 1/sig2 goes uncancelled.  b = b0 + i l rho sigma at z = l + i c,
    b0 = kappa - rho sigma c; as Re 2f >= 0, s cancels only if b0 < 0
    (rho sigma c > kappa).  There d is formed directly, s = sig2 l2/d,
    l2/s is d/sig2, and log P is taken of P itself, which may be near 0
    rather than 1.
    """
    sl2 = sig2 * l2
    two_f = np.sqrt(b * b + sl2)
    em1 = np.expm1(-T * two_f)
    if b0 >= 0.0:
        s = two_f + b
        d_em1 = sl2 / s * em1
        p = 2.0 * two_f + d_em1
        log_p = _log1p_c(0.5 * d_em1 / two_f)
        core = l2 * (v0 * em1 / p - (kappa_theta * T) / s)
    else:
        d = two_f - b
        p = sl2 / d + d * np.exp(-T * two_f)
        log_p = np.log(p / (2.0 * two_f))
        # l2/s = d/sig2, finite where l2 = 0 makes s = 0
        core = l2 * (v0 * em1 / p) - (kappa_theta * T / sig2) * d
    return core - (2.0 * kappa_theta / sig2) * log_p, two_f, log_p


def _pricing_kappa_theta(p: HestonParams):
    """kappa and theta of the pricing measure, lam folded in."""
    if p.lam != 0.0:
        return risk_neutral_map(p.kappa, p.theta, p.lam)
    return p.kappa, p.theta


def _strike_core(l, T, p: HestonParams, c=0.0):
    """Strike core i z rho a/sigma + kappa a/sigma^2 + upsilon(z) at l + i c.

    Its exp is E[exp(-i z x_T)], finite for -w- < c < w+: the density's
    kernel at c = 0, the paper's spot-side core at l at c = 1.
    """
    kappa, theta = _pricing_kappa_theta(p)
    z = l + 1j * c
    b0 = kappa - p.rho * p.sigma * c
    b = b0 + (1j * p.rho * p.sigma) * l
    return _core_half(z * (z - 1j), b0, b, T, p.v0, kappa * theta,
                      p.sigma * p.sigma)[0]


def _explosion_time(s, p: HestonParams):
    """T*(s), where E[exp(s x_T)] explodes (Andersen and Piterbarg 2007):
    the first zero in T of D = cosh fT + (b/2f) sinh fT, P = exp(-fT) D
    of the strike core at l = i s, at beta T/2 = atan2(beta, -b) if
    4 f^2 = -beta^2 < 0, else at 2 atanh(2f/-b)/(2f) if b < -2f, else
    never (inf)."""
    b = _pricing_kappa_theta(p)[0] - p.rho * p.sigma * s
    four_f2 = b * b + p.sigma * p.sigma * s * (1.0 - s)
    if four_f2 < 0.0:
        beta = math.sqrt(-four_f2)
        return 2.0 * math.atan2(beta, -b) / beta
    two_f = math.sqrt(four_f2)
    if b + two_f >= 0.0:
        return math.inf
    return 2.0 * math.atanh(two_f / -b) / two_f if two_f else -2.0 / b


def _contour_shift(p: HestonParams, T):
    """The pricing contour's Im z = c, a power of 2 in [-4, 0).

    Of c = -4, -2, -1, ..., those with T*(2c) > T lie in (-w-/2, 0); c
    minimizes among them c (c - 1) V/2 - log(c (c - 1)), the log of the
    at-the-money integrand at l = 0, M(c)/(|c| (1 - c)), for the
    Gaussian moment M(c) at the mean integrated variance V: it grows as
    c -> 0 and, at large V, with |c| (e^524 at c = -1/2 for v0 = theta
    = 25, T = 50).  It depends on (params, T) only.
    """
    kappa, theta = _pricing_kappa_theta(p)
    var = theta * T - (p.v0 - theta) * math.expm1(-kappa * T) / kappa
    best, c = math.inf, -4.0
    while True:
        # T*(2c) > T holds for every c after the first that passes
        if _explosion_time(2.0 * c, p) > T:
            size = 0.5 * c * (c - 1.0) * var - math.log(c * (c - 1.0))
            if size >= best:
                return 2.0 * c
            best = size
        c *= 0.5


def _log_moment(s, T, p: HestonParams):
    """log M(s) at real s, with M(s) = E[exp(s x_T)].

    log M is the strike core at l = i s, where l2 = s(1 - s) and b =
    kappa - rho sigma s are real.  The core's P nears 0 only where b < 0
    or f is imaginary (elsewhere P >= 1/2), and there :func:`_core_half`
    takes its branch that forms d = 2f - b directly and log P of P
    itself, so log M stays finite up to the explosion at T*(s) = T
    (:func:`_explosion_time`).  Past the explosion log M is meaningless,
    and no warning is raised for it.
    """
    kappa, theta = _pricing_kappa_theta(p)
    sig2 = p.sigma * p.sigma
    s = np.asarray(s, dtype=float)
    l2 = s * (1.0 - s)
    b = kappa - p.rho * p.sigma * s
    direct = (b < 0.0) | (b * b + sig2 * l2 < 0.0)
    log_m = np.empty(s.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for branch, b0 in ((~direct, 1.0), (direct, -1.0)):
            if branch.any():
                log_m[branch] = _core_half(
                    l2[branch].astype(complex), b0,
                    b[branch].astype(complex), T, p.v0, kappa * theta,
                    sig2)[0].real
    return log_m


def _finite_edges(p: HestonParams, T, rel_width):
    """(-w-, w+) to within ``rel_width`` of each, on the finite side.

    T*(s) (:func:`_explosion_time`) is infinite on [0, 1] and falls to
    0 as s leaves it, so on each side the bracket (0, -2) or (1, 2) has
    its outer end doubled while T*(outer) > T, then is bisected until
    ``|outer - inner| <= rel_width |outer|``.  The inner end is
    returned, where T*(inner) > T: the moment is finite there.
    """
    ends = []
    for inner, outer in ((0.0, -2.0), (1.0, 2.0)):
        while _explosion_time(outer, p) > T:
            inner, outer = outer, 2.0 * outer
        while abs(outer - inner) > rel_width * abs(outer):
            mid = 0.5 * (inner + outer)
            if _explosion_time(mid, p) > T:
                inner = mid
            else:
                outer = mid
        ends.append(inner)
    return ends


def critical_moments(p: HestonParams, T: float):
    """(w-, w+): E[exp(s x_T)] is finite for s in (-w-, w+) at maturity T.

    The critical moments of the logreturn x_T (Lee 2004), where the
    moment explodes at T: the s on either side of s = 0 at which
    Andersen and Piterbarg's (2007) closed-form explosion time T*(s)
    (:func:`_explosion_time`) equals T.  Each is bracketed to 1e-13 of
    its size, and the bracket's inner end is returned, so the moment is
    finite at each w returned.
    """
    lo, hi = _finite_edges(p, T, 1e-13)
    return -lo, hi


def _tail_depths(p: HestonParams, T, log_odds):
    """(d-, d+): P(x_T < -d-) and P(x_T > d+) are below exp(-log_odds).

    Chernoff: P(x_T < -d) <= M(-s) e^{-s d} for 0 < s < w-, so d- is the
    least (log_odds + log M(-s))/s over samples of (0, w-), and d+ the
    same with M(s).  Each w is the finite end of a bracket of 1/64 of
    the critical moment (:func:`_finite_edges`), and the samples, w
    2^(-k/2) for k <= 50 and 16 even points across [w/2, w), take one
    :func:`_log_moment` call (on 400 random parameter sets, depths within
    2% of those from 64 even points).
    """
    w = np.array(_finite_edges(p, T, 1.0 / 64.0))[:, None]
    s = w * _CHERNOFF_SAMPLES
    depth = np.nanmin((log_odds + _log_moment(s, T, p)) / np.abs(s), axis=1)
    return float(depth[0]), float(depth[1])


# Bounds of the exponent-core memo: the kernel keys it remembers (seen
# once or holding a table) and the nodes all its tables hold together.
# A node costs 24 bytes (8 of l in the key, 16 of its complex core), so
# the tables stay within about 600 KB; a full table still serves hits.
_MEMO_KEYS = 64
_MEMO_NODES = 25_000


class _CoreMemo:
    """Bounded memo of a kernel's exponent core, one table per key.

    A key holds every value the core function reads (parameters, T and
    the contour's c).  A table has one entry per integrand call, keyed
    by its abscissae' bytes: quotes on one key start from one window and
    bisect it alike, so they repeat each other's calls bit for bit.  A
    hit returns the stored read-only cores in the shape asked for.  Past
    ``max_keys`` keys the least recently admitted one is forgotten.
    """

    def __init__(self):
        self.max_keys = _MEMO_KEYS
        self.max_nodes = _MEMO_NODES
        self._entries = OrderedDict()   # key -> None (seen once) or table
        self.nodes = 0
        self._lock = threading.Lock()

    def clear(self):
        with self._lock:
            self._entries.clear()
            self.nodes = 0

    @property
    def tables(self):
        """Keys holding a table, least recently admitted first."""
        return [k for k, t in list(self._entries.items()) if t is not None]

    @property
    def nbytes(self):
        """Bytes held by the tables' keys and cores."""
        return sum(len(call) + got.nbytes
                   for t in list(self._entries.values()) if t is not None
                   for call, got in list(t.items()))

    def admit(self, key):
        """Count one quote on ``key``; its second quote gets a table."""
        with self._lock:
            if key not in self._entries:
                self._entries[key] = None
                if len(self._entries) > self.max_keys:
                    _, old = self._entries.popitem(last=False)
                    if old is not None:
                        self.nodes -= sum(got.size for got in old.values())
                return
            self._entries.move_to_end(key)
            if self._entries[key] is None:
                self._entries[key] = {}

    def cores(self, key, l, fn, *args):
        """``fn(l, *args)``, an array of cores, through key's table."""
        table = self._entries.get(key)
        if table is None:
            return fn(l, *args)
        l = np.asarray(l, dtype=float)
        call = l.tobytes()
        got = table.get(call)
        if got is not None:
            return got.reshape(l.shape)
        got = fn(l, *args)
        with self._lock:
            # skip a key evicted, or a call stored, since the lookup
            if (self._entries.get(key) is table and call not in table
                    and self.nodes + got.size <= self.max_nodes):
                table[call] = got
                got.flags.writeable = False
                self.nodes += got.size
        return got


_MEMO = _CoreMemo()


def _heston_key(p: HestonParams, T, c):
    """The fields :func:`_strike_core` reads, T and c (mu is unused)."""
    return (p.kappa, p.theta, p.sigma, p.rho, p.v0, p.lam, T, c)


def _put_integrand(l, c, x, exponent):
    """e^{i z x + exponent}/(i z (1 + i z)) at z = l + i c.

    The contour integrand of both pricers: ``exponent`` carries log K,
    the volatility core, and the rate core or the constant rate's -rT.
    It broadcasts: l and the exponent as (n, 1) columns against an x of
    shape (m,) give an (n, m) integrand, one column per rate.
    """
    iz = 1j * l - c
    return np.exp(iz * x + exponent) / (iz * (1.0 + iz))


def price_integrand(l, opt: VanillaOption, p: HestonParams, r, c=None):
    """The l-integrand of the single-integral put price, on Im z = c.

    With z = l + i c and x = ln(K/S0) - rT, the put is 1/(2 pi) times
    the integral over the real l of

        f(l) = K exp(i z x - rT + strike core(z)) / (i z (1 + i z)),

    the bounded put payoff's transform against E[exp(-i z x_T)], finite
    for -w- < c < w+, with poles at z = 0 and z = i only, so c in
    (-w-, 0); ``c`` defaults to the pricer's, :func:`_contour_shift`.
    The law of x_T is real, so f(-l) = conj f(l): the put is 1/(2 pi)
    times the integral of 2 Re f over l > 0.  For an array of m rates
    the integrand has shape l.shape + (m,), one column per rate on one
    evaluation of the core.
    """
    l = np.asarray(l, dtype=float)
    T = opt.maturity
    if c is None:
        c = _contour_shift(p, T)
    core = _MEMO.cores(_heston_key(p, T, c), l, _strike_core, T, p, c)
    if isinstance(r, np.ndarray) and r.ndim:
        l, core = l[..., None], core[..., None]
    rt = r * T
    return _put_integrand(l, c, math.log(opt.strike / opt.s0) - rt,
                          core + (math.log(opt.strike) - rt))


def _check_result(res, what):
    """Raise a :class:`PricingError` carrying ``res`` unless it converged."""
    if not res.converged:
        raise PricingError(
            "%s quadrature did not converge: error=%.3e after %d evaluations "
            "in %d integrand calls, window %g"
            % (what, np.max(res.error_estimate), res.evaluations,
               res.integrand_calls, res.window), res)


def _finish_price(res, opt: VanillaOption, p: HestonParams, c, bond,
                  cfg: QuadratureConfig, what):
    """(price, res) from the folded contour integral ``res``, for both
    pricers.

    ``res`` integrates 2 Re of the put integrand over l > 0 on Im z =
    c, 2 pi times the put.  Checks convergence, naming the contour and
    the critical moments if it fails, and the sign, and prices a call by
    the parity C - P = S0 - K bond.  With one integral column per rate,
    ``bond`` holds one discount per column, the price is an array, and
    the checks run column by column against each column's own error
    estimate.
    """
    if not res.converged:
        what += (" on the contour Im z = %.6g (critical moments w- = %.6g, "
                 "w+ = %.6g)" % ((c,) + critical_moments(p, opt.maturity)))
    _check_result(res, what)
    if not isinstance(res.value, np.ndarray):
        return _column_price(res.value.real / _TWO_PI, res.error_estimate,
                             opt, bond, cfg, what), res
    return np.array([
        _column_price(v / _TWO_PI, e, opt, b, cfg, what) for v, e, b in zip(
            res.value.real.tolist(), res.error_estimate.tolist(),
            bond.tolist())]), res


def _column_price(put, error, opt: VanillaOption, bond,
                  cfg: QuadratureConfig, what):
    """The price from a put, checked: one column of the folded contour
    integral over 2 pi, or the put of :func:`price_via_density`.

    The call follows by the parity C - P = S0 - K bond.  A call or put
    below -10 max(abs_tol, error) raises a :class:`PricingError`,
    ``error`` being the folded integral's error estimate (0 for the
    density route), and a price above that floor but below 0 is 0.
    """
    call = put + opt.s0 - opt.strike * bond
    floor = -10.0 * max(cfg.abs_tol, error)
    for kind, price in (("call", call), ("put", put)):
        if price < floor:
            raise PricingError("%s gives a negative %s %.6e"
                               % (what, kind, price))
    return max(call if opt.kind == "call" else put, 0.0)


def heston_call_price(opt: VanillaOption, p: HestonParams, r,
                      cfg: QuadratureConfig | None = None):
    """European vanilla price under Heston with constant rate r.

    ``p`` must carry risk-neutral (option-propagation) parameters with
    mu = r; apply :func:`hestoncir.models.risk_neutral_map` first if a
    volatility risk premium is in play.  Calls are priced via parity.

    ``r`` may also be a sequence of rates, giving an array of prices:
    the rates are the columns of one integral, which share its panels
    and its cores, while each column meets its own tolerance and its own
    checks; a failing column raises a :class:`PricingError` naming T and
    the rate range.  A NaN or infinite rate, or an empty array of rates,
    raises a ValueError.
    """
    price, _ = heston_price_with_diagnostics(opt, p, r, cfg)
    return price


def heston_price_with_diagnostics(opt: VanillaOption, p: HestonParams, r,
                                  cfg: QuadratureConfig | None = None):
    """Like :func:`heston_call_price`, also returning the QuadratureResult."""
    cfg = cfg or QuadratureConfig()
    T = opt.maturity
    if isinstance(r, (list, tuple, np.ndarray)) and np.ndim(r):
        r = np.asarray(r, dtype=float).reshape(-1)
        if r.size == 0:
            raise ValueError("rate r must not be an empty array")
        if not np.all(np.isfinite(r)):
            raise ValueError("rate r must be finite, got %r"
                             % (float(r[~np.isfinite(r)][0]),))
        bond = np.exp(-r * T)
        what = "price at T=%g, r in [%.6g, %.6g]" % (T, r.min(), r.max())
    elif not math.isfinite(r):
        raise ValueError("rate r must be finite, got %r" % (r,))
    else:
        bond, what = math.exp(-r * T), "price at T=%g" % T
    c = _contour_shift(p, T)
    _MEMO.admit(_heston_key(p, T, c))
    res = integrate_half_line(
        lambda l: 2.0 * price_integrand(l, opt, p, r, c).real, cfg,
        scale=-c)
    return _finish_price(res, opt, p, c, bond, cfg, what)


def marginal_density(x, T: float, p: HestonParams,
                     cfg: QuadratureConfig | None = None):
    """Density of the logreturn x_T = ln(S_T/S0) - mu T at x.

    ``x`` is a scalar, giving a float, or an array, giving an array of
    its shape from one adaptive integral whose integrand evaluates the
    kernel once per node for every x; the tolerance then binds the x
    whose integral is smallest.  The integrand is conjugate-symmetric
    over real l, so the density is 1/(2 pi) times the integral of 2 Re
    of it over l > 0; that integral is real by construction, and no
    imaginary residual is left to check.  The kernel decays
    exponentially in l across the start window [0, 2L] (L =
    ``cfg.truncation_bound``), so the window is cut into 4 panels an
    octave, where the pricers take 2: a window that ends where the
    kernel has decayed, as the density table's probe has, is resolved
    in its first integrand call.  An integral that does not converge
    raises a :class:`PricingError` naming T and the x range.  A
    non-finite x raises ValueError, and an empty array gives an empty
    array.
    """
    cfg = cfg or QuadratureConfig()
    xs = _finite_x(x, "marginal_density")
    if not xs.size:
        return np.empty(xs.shape)
    flat = xs.reshape(-1) if xs.ndim else xs

    def folded(l):      # 2 Re exp(i l x + core), in real arithmetic
        core = _strike_core(l, T, p).reshape(l.shape + (1,) * flat.ndim)
        return 2.0 * np.exp(core.real) * np.cos(
            core.imag + np.multiply.outer(l, flat))
    res = _half_line(folded, cfg, per_octave=4)
    if not res.converged:
        lo, hi = np.min(flat), np.max(flat)
        _check_result(res, "density at T=%g, %s" % (
            T, "x=%.6g" % lo if lo == hi else "x in [%.6g, %.6g]" % (lo, hi)))
    if not xs.ndim:
        return res.value.real / _TWO_PI
    return (res.value.real / _TWO_PI).reshape(xs.shape)


def _finite_x(x, what):
    """x as a float array; a non-finite x raises a ValueError naming it."""
    xs = np.asarray(x, dtype=float)
    bad = xs[~np.isfinite(xs)]
    if bad.size:
        raise ValueError("%s needs finite x, got %r" % (what, float(bad[0])))
    return xs


# Phase entries (points x table nodes) in one block of the matrix route:
# each of its angle, cosine and sine arrays stays within 8 MB.
_PHASE_BLOCK = 1 << 20


def _uniform_step(xs):
    """The step dx of an evenly spaced 1-D ``xs``, or None.

    Evenly spaced means at least two points, each within 4 ulps of
    xs[0] + j dx at the larger end, and dx != 0; descending grids count.
    """
    if xs.ndim != 1 or xs.size < 2:
        return None
    dx = (xs[-1] - xs[0]) / (xs.size - 1)
    if not dx or not math.isfinite(dx):
        return None
    off = np.abs(xs[0] + dx * np.arange(xs.size) - xs)
    if off.max() <= 4.0 * np.spacing(max(abs(xs[0]), abs(xs[-1]))):
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


# the 5-smooth numbers 2^a 3^b 5^c up to 2^36, sorted
_SMOOTH = np.multiply.outer(np.multiply.outer(
    2.0 ** np.arange(37), 3.0 ** np.arange(23)), 5.0 ** np.arange(16)).ravel()
_SMOOTH = np.sort(_SMOOTH[_SMOOTH <= 2.0 ** 36])


def _smooth_size(n):
    """The least 2^a 3^b 5^c >= n, for 1 <= n <= 2^36: an FFT length
    that ``numpy.fft`` factors into radix-2, 3 and 5 passes."""
    return int(_SMOOTH[np.searchsorted(_SMOOTH, n)])


def _fft_sum(kernel, h, x0, dx, m):
    """Re sum_k kernel_k exp(i x_j l_k) on x_j = x0 + j dx, j < m, l_k =
    k h, for a step with |dx| h = 2 pi/M, M an integer.

    exp(i x_j l_k) = exp(i x0 l_k) exp(+-2 pi i jk/M) repeats every M in
    k and in j, so the phased kernel folds modulo M onto M bins, one FFT
    of length M sums them at j < M, and the x_j from j = M on repeat
    those: O(N + M log M) for N nodes.
    """
    size = round(_TWO_PI / abs(dx * h))
    u = kernel * np.exp((1j * x0 * h) * np.arange(kernel.size))
    if u.size > size:
        u = np.concatenate([u, np.zeros(-u.size % size, dtype=complex)])
        u = u.reshape(-1, size).sum(axis=0)
    out = (np.fft.ifft(u, size, norm="forward") if dx > 0
           else np.fft.fft(u, size)).real
    return out[:m] if m <= size else np.resize(out, m)


def _payoff_strip_sum(kernel, h, lo, hi, a, k):
    """Re sum_k kernel_k int_lo^hi (a e^x - k) exp(i x l_k) dx, l_k = k h.

    Each mode integrates in closed form: the spot mode from its end
    points, the strike mode about the midpoint m with half-width s,

        int e^{(1+il)x} dx = (e^{(1+il)hi} - e^{(1+il)lo})/(1 + il),
        int e^{ilx} dx     = 2 s e^{ilm} sin(l s)/(l s),

    and neither cancels as l -> 0; the second is hi - lo at l = 0.  The
    end points keep the spot mode finite on any strip below x = 709;
    sinh((1 + il) s) about the midpoint would overflow past s = 710.
    """
    grid = np.arange(kernel.size) * h
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    z = 1.0 + 1j * grid
    spot = (np.exp(hi * z) - np.exp(lo * z)) / z
    strike = (2.0 * half) * np.exp(1j * mid * grid) \
        * np.sinc(half / math.pi * grid)
    return (kernel @ (a * spot - k * strike)).real


# Re strike core at which the density's l-table ends, its kernel below
# e^-45 of its value at l = 0 (and a grid's images lie where the law's
# mass is below e^-45), and the l that bracket that crossing
_DECAY_FLOOR = -45.0
_DECAY_BRACKET = 2.0 ** (0.25 * np.arange(-40, 69))  # 2^-10 .. 2^17


def _check_table_size(T, p: HestonParams, cfg: QuadratureConfig, nodes):
    """Raise a :class:`PricingError` if ``nodes`` exceeds max_evals."""
    if nodes > cfg.max_evals:
        w_minus, w_plus = critical_moments(p, T)
        raise PricingError(
            "density table at T=%g needs %d nodes, more than max_evals=%d "
            "(critical moments w- = %.6g, w+ = %.6g)"
            % (T, nodes, cfg.max_evals, w_minus, w_plus))


def _density_evaluator(T, p: HestonParams, cfg: QuadratureConfig,
                       period: float, dx=None):
    """Logreturn density from an l-table of aliasing period ``period``,
    and its payoff strips.

    Returns ``(density, payoff_strip)``: ``density(xs, step=None)`` is
    vectorized over a 1-D x, and ``payoff_strip(lo, hi, a, k)`` is the
    integral of (a e^x - k) times the density over [lo, hi].

    The table is the trapezoid rule on l = k h, h = 2 pi/period, which
    converges near-spectrally for an analytic, exponentially decaying
    kernel; by Poisson summation its density is sum_j f(x + j period)
    (Trefethen and Weideman, SIAM Review 2014), so the caller picks the
    period that keeps the images j != 0 off its x.  Given ``dx``, an
    even grid's step, the period is rounded up to M |dx|, M 5-smooth.
    One core call on ``_DECAY_BRACKET`` brackets where the kernel first
    falls below e^-45; the table is evaluated up to the bracket's upper
    end and ends at its own first node below e^-45.  More nodes than
    ``cfg.max_evals`` raise a :class:`PricingError` naming T, the
    critical moments and the count, before any table node is evaluated
    if the bracket's lower end already needs too many.  One
    :func:`marginal_density` call checks the table at three probes (0,
    0.9 sd and -1.7 sd, sd = sqrt((v0 + theta) T)), truncated at the
    table's last node l_max: its window [0, 2 l_max] holds the whole
    kernel and its outer octave tests the tail, and its 32 start panels,
    4 an octave, resolve the kernel's exponential decay in the first
    integrand call.  A probe missed by more than 1e-7 (peak + 1) raises
    a :class:`PricingError` naming T, the x and both values, and a probe
    integral that does not converge one that names the table's probe.

    The density is Re sum_k c_k exp(i l_k x) / 2 pi: given the ``step``
    of an even grid (``density(xs, step)``) that divides the period into
    M <= points x nodes, one FFT of length M (:func:`_fft_sum`);
    elsewhere (the probes, uneven grids, no step) cos/sin phase
    matrices in bounded blocks.  A payoff strip integrates each mode
    against a e^x - k in closed form, one O(N) dot product exact for the
    table (:func:`_payoff_strip_sum`).
    """
    if dx is not None and period <= 2.0 ** 36 * abs(dx):
        period = _smooth_size(math.ceil(period / abs(dx))) * abs(dx)
    h = _TWO_PI / period
    below = _strike_core(_DECAY_BRACKET, T, p).real < _DECAY_FLOOR
    k = int(np.argmax(below)) if below.any() else below.size - 1
    # the first node below the floor lies past the bracket's lower end
    _check_table_size(T, p, cfg,
                      math.ceil(_DECAY_BRACKET[k - 1] / h) + 1 if k else 2)
    core = _strike_core(np.arange(math.ceil(_DECAY_BRACKET[k] / h) + 1) * h,
                        T, p)
    below = core.real < _DECAY_FLOOR
    nodes = int(np.argmax(below)) + 1 if below.any() else core.size
    _check_table_size(T, p, cfg, nodes)
    # conjugate symmetry of the kernel folds the line onto l >= 0
    kernel = np.exp(core[:nodes]) * (2.0 * h)
    kernel[[0, -1]] *= 0.5

    def table_density(xs, step=None):
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        if step is not None:
            size = period / abs(step)
            if (abs(size - round(size)) <= 1e-9 * size
                    and size <= xs.size * nodes):
                return _fft_sum(kernel, h, xs[0], step, xs.size) / _TWO_PI
        return _phase_matrix_sum(kernel, h, xs) / _TWO_PI

    def table_strip(lo, hi, a, k):
        return _payoff_strip_sum(kernel, h, lo, hi, a, k) / _TWO_PI

    scale = math.sqrt((p.v0 + p.theta) * T)
    probes = np.array([0.0, 0.9 * scale, -1.7 * scale])
    got = table_density(probes)
    try:
        ref = marginal_density(probes, T, p, dataclasses.replace(
            cfg, truncation_bound=(nodes - 1) * h))
    except PricingError as err:
        raise PricingError("density table's probe failed: %s" % err,
                           err.result) from err
    miss = np.abs(got - ref)
    if np.max(miss) <= 1e-7 * (got[0] + 1.0):
        return table_density, table_strip
    i = int(np.argmax(miss))     # a NaN counts as the largest
    raise PricingError(
        "density table fails its probe at T=%g: at x=%.6g the table gives "
        "%.9e and the adaptive density %.9e" % (T, probes[i], got[i], ref[i]))


def marginal_density_grid(xs, T: float, p: HestonParams,
                          cfg: QuadratureConfig | None = None):
    """Density of the logreturn at each x in xs (vectorized).

    The variable is the drift-adjusted logreturn x_T = ln(S_T/S0) - mu T,
    as for :func:`marginal_density`.  The result has the shape of xs (a
    scalar gives one value in an array); the table is summed on the
    flattened points in [lo, hi].  With P(x_T < -d-) and P(x_T > d+)
    below e^-45 (:func:`_tail_depths`), its period max(d+ - lo, hi + d-)
    + 1 keeps every image x + j period, j != 0, beyond d+ or below -d-;
    an even grid rounds it to M |dx| for one FFT of length M
    (:func:`_density_evaluator`).  An empty xs gives an empty array of
    its shape and builds no table.  A non-finite x raises ValueError,
    and a table that fails its probe a :class:`PricingError`.
    """
    cfg = cfg or QuadratureConfig()
    xs = np.atleast_1d(_finite_x(xs, "marginal_density_grid"))
    if not xs.size:
        return np.empty(xs.shape)
    flat = xs.reshape(-1)
    d_minus, d_plus = _tail_depths(p, T, -_DECAY_FLOOR)
    period = max(d_plus - flat.min(), flat.max() + d_minus) + 1.0
    step = _uniform_step(flat)
    density, _ = _density_evaluator(T, p, cfg, period, step)
    return density(flat, step).reshape(xs.shape)


def price_via_density(opt: VanillaOption, p: HestonParams, r: float,
                      cfg: QuadratureConfig | None = None) -> float:
    """Price by discounted expectation over the logreturn density.

    Cross-check of :func:`heston_call_price`.  Under mu = r the terminal
    spot is S0 exp(x_T + rT), so the put payoff is K - a e^x with
    a = S0 e^{rT}, nonzero for x below x_lo = ln(K/S0) - rT.  The route
    reads the pricer's strike core on the real line, independent of it
    in the quadrature only: an l-table built as the density grid's,
    ending at its first node below e^-45 and checked at three probes
    (see :func:`_density_evaluator`); the 30-digit oracle of
    ``tests/mp_price_oracle.py`` checks both.

    The put is one integral of the bounded payoff against that table,
    in closed form for each mode, over [lo, x_lo].  Being bounded, the
    payoff does not magnify the table's rounding or aliasing on a fat
    right tail, where e^x f(x) barely decays.  Both lo and the table's
    period come from the moments M(s) = E[exp(s x_T)], finite between
    the critical moments -w- < s < w+ (:func:`critical_moments`), as
    the grid's period does, but at the log odds L = log(1 + 3
    K/abs_tol) that the payoff needs rather than 45: the Chernoff bound
    P(x_T < -d) <= M(-s) e^{-s d} puts mass under e^-L below -d- =
    -min_s (L + log M(-s))/s, and likewise above d+.  Then lo =
    min(x_lo, 0) - d- - 2, and the period max(d+ - lo, x_lo + d- + 2) + 1
    keeps the table's two nearest images of [lo, x_lo] (its density is
    sum_j f(x + j period), by Poisson summation) beyond d+ and below -d-.
    The payoff is under K there, so the three masses cut off cost at
    most 3 K e^-L < abs_tol.  The strip [lo, lo + 2], the 2 that lo has
    below -d-, checks that the integral has decayed at lo: unless it
    adds less than 10 max(abs_tol, 1e-9), a :class:`PricingError` names
    T and the strip.  Since E[e^x] = 1, the call follows by parity,
    put + S0 - K e^{-rT}.  The price is finished as the pricers' are
    (:func:`_column_price`): a put or call below -10 abs_tol raises a
    :class:`PricingError` naming it, and one above that floor is at
    least 0.  A NaN or infinite rate raises a ValueError.
    """
    if not math.isfinite(r):
        raise ValueError("rate r must be finite, got %r" % (r,))
    cfg = cfg or QuadratureConfig()
    s0, k, T = opt.s0, opt.strike, opt.maturity
    disc = math.exp(-r * T)
    x_lo = math.log(k / s0) - r * T
    d_minus, d_plus = _tail_depths(p, T, math.log1p(3.0 * k / cfg.abs_tol))
    lo = min(x_lo, 0.0) - d_minus - 2.0
    period = max(d_plus - lo, x_lo + d_minus + 2.0) + 1.0
    _, payoff_strip = _density_evaluator(T, p, cfg, period)
    a = s0 / disc
    edge = payoff_strip(lo, lo + 2.0, -a, -k)
    bound = 10.0 * max(cfg.abs_tol, 1e-9)
    if not abs(edge) < bound:
        raise PricingError(
            "put payoff integral failed to decay at T=%g: its edge strip "
            "[%.4g, %.4g] adds %.3e, not below %.1e"
            % (T, lo, lo + 2.0, edge, bound))
    put = disc * payoff_strip(lo, x_lo, -a, -k)
    return _column_price(put, 0.0, opt, disc, cfg,
                         "price via density at T=%g" % T)
