"""Closed-form Heston pricing via a single Fourier integral.

The marginal density of the drift-adjusted logreturn and the vanilla
price both come out as one integral over a real frequency variable l.
Both integrands are Fourier transforms of real laws, conjugate-symmetric
in l, so each is integrated over l > 0 only, as 2 Re or 2 Im of the
integrand (:func:`hestoncir.numerics.integrate_half_line`).
All hyperbolic expressions are evaluated in the cosh/sinh form through
exp(-w) factors: with the principal square root the argument w has
nonnegative real part, so nothing overflows at long maturity or large
|l|, and the complex logarithm stays on its principal branch without
manual rotation-counting.

The pricer, the density, the paper's N and M and the CIR rate side in
:mod:`hestoncir.hybrid` take them by one route, :func:`_core_half`,
as accurate at sigma -> 0 as at any other sigma.  Both pricers, here
and in :mod:`hestoncir.hybrid`, share one integrand body and one
post-processing; both broadcast over a trailing axis of rates, so a
contract's prices at many constant rates are one integral with one
column per rate (:func:`heston_call_price` with an array of rates).

The exponent cores depend on the parameters and the maturity but not on
the strike or the rate, which enter only through phases.  Quotes on one
(params, T) therefore share their cores through a bounded memo: the
pricer admits the kernel key once per quote, the key gets a table of
cores at its second quote, and the integrand computes only the nodes
the table lacks.  Parameter sets priced once store nothing.

The density is one Fourier integral over l as well, taken on a uniform
l-table of its kernel that ends where the kernel falls below e^-45 and
whose step an aliasing period sets, checked by one adaptive integral at
three probes; a table that fails its probe, or needs more nodes than the
evaluation budget, raises.  An evenly spaced x grid sums that table by
a chirp-z transform (Bluestein's algorithm on ``numpy.fft``); any other
x (single points, uneven grids) by cos/sin phase matrices in blocks of
bounded size; the grid's period clears its x-range and the density's
support.  The price-via-density cross-check integrates the bounded put
payoff against each mode of the same table in closed form, as one
integral from below the strike up to it, and prices the call by parity.
How far below, and the table's period, come from Chernoff bounds on the
moments E[exp(s x_T)], which are finite between the critical moments
(:func:`critical_moments`) and are the strike core at l = i s.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from collections import OrderedDict

import numpy as np

from .models import HestonParams, VanillaOption, risk_neutral_map
from .numerics import QuadratureConfig, QuadratureError, integrate_half_line
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
    "density_integrand",
    "marginal_density",
    "marginal_density_grid",
    "critical_moments",
    "heston_call_price",
    "heston_price_with_diagnostics",
    "price_via_density",
]

_TWO_PI = 2.0 * math.pi


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

    The one route for every exp(-w) quantity: the volatility cores
    (b = kappa + i l rho sigma, less rho sigma on the spot side, l2 =
    l(l -/+ i)), the rate cores (b = kappa_r, l2 = 2 i l or 2(i l + 1))
    and the paper's N, M, N_r and M_r.  Returns (core, 2f, log P).

    With 4 f^2 = b^2 + sig2 l2, s = 2f + b, d = 2f - b (s d = sig2 l2)
    and e = exp(-2fT), the exp(-w) form of the core is exactly

        v0 l2 (e - 1)/(s + d e) - kappa theta (l2 T/s + (2/sig2) log P),

    P = (s + d e)/(4f) = 1 + d (e - 1)/(4f) since s + d = 4f, and
    N = 1/(cosh fT + (b/2f) sinh fT) = exp(-fT - log P), with f on the
    principal square root, so Re fT >= 0 and log N is the principal one
    without rotation-counting.  P - 1 is O(sig2) and its log1p exact, so
    no 1/sig2 goes uncancelled.  b = b0 + i l rho sigma with b0 real; as
    Re 4f^2 > 0 for real l, s cancels only if b0 < 0 (kappa < rho sigma,
    spot side, near l = 0).  There d is formed directly, s = sig2 l2/d,
    and log P is taken of P itself, which may be near 0 rather than 1.
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
    core = (v0 * l2) * em1 / p \
        - kappa_theta * (T * l2 / s + (2.0 / sig2) * log_p)
    return core, two_f, log_p


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
                      p.sigma * p.sigma)[0]


def _log_moment(s, T, p: HestonParams):
    """(log M(s), sign(s)) at real s, with M(s) = E[exp(s x_T)].

    log M is the strike core at l = i s, where l2 = s(1 - s) and b =
    kappa - rho sigma s are real.  The core's P is exp(-fT) D with D =
    cosh fT + (b/2f) sinh fT real, and ``sign`` is the sign of D, 1 at
    s = 0, whose first zero along s is where the moment explodes; it is
    read off the phase of P, cos(arg P + Im fT).  P nears 0 only where
    b < 0 or f is imaginary (elsewhere P >= 1/2), and there
    :func:`_core_half` takes its branch that forms d = 2f - b directly
    and log P of P itself, so log M stays finite up to the explosion;
    l2 = 0 on that branch, at s = 1 with b < 0, gives a NaN log M,
    though M(1) = 1.  Past the explosion log M is meaningless, and no
    warning is raised for it.
    """
    kappa, theta = _pricing_kappa_theta(p)
    sig2 = p.sigma * p.sigma
    s = np.asarray(s, dtype=float)
    l2 = s * (1.0 - s)
    b = kappa - p.rho * p.sigma * s
    direct = (b < 0.0) | (b * b + sig2 * l2 < 0.0)
    log_m, sign = np.empty(s.shape), np.empty(s.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for branch, b0 in ((~direct, 1.0), (direct, -1.0)):
            if branch.any():
                core, two_f, log_p = _core_half(
                    l2[branch].astype(complex), b0,
                    b[branch].astype(complex), T, p.v0, kappa * theta, sig2)
                log_m[branch] = core.real
                sign[branch] = np.cos(log_p.imag + 0.5 * T * two_f.imag)
    return log_m, sign


# The explosion search: a first pass at s = 2^(-k/2) times the outer end
# of its bracket, k <= _OCTAVE_STEPS, then rounds of _BRACKET_POINTS
# evenly spaced points across the bracket left.
_OCTAVE_STEPS = 50
_BRACKET_POINTS = 64


def _moment_bracket(p: HestonParams, T, rel_width):
    """Each side's bracket of the moment explosion, and the log M samples.

    Returns ``(inner, outer, samples)``: on the negative side (row 0) and
    the positive side (row 1) the moment is finite at ``inner`` and has
    exploded at ``outer``, and ``|outer - inner| <= rel_width |outer|``;
    ``samples`` lists (s, log M) pairs of (2, n) arrays, log M = inf
    where the moment has exploded.  The explosion lies before the s at
    which f = i pi/T, a root of the quadratic 4 f^2 = -(2 pi/T)^2 in s,
    where P = -1.  The first pass samples the bracket from 0 to that
    root geometrically, and each further pass shrinks the bracket
    ``_BRACKET_POINTS`` times; a pass is one :func:`_log_moment` call.
    """
    kappa, _ = _pricing_kappa_theta(p)
    sig2 = p.sigma * p.sigma
    qa = sig2 * (p.rho * p.rho - 1.0)
    qb = sig2 - 2.0 * kappa * p.rho * p.sigma
    qc = kappa * kappa + (_TWO_PI / T) ** 2
    root = math.sqrt(qb * qb - 4.0 * qa * qc)
    inner = np.zeros(2)
    outer = np.array([qb - root, qb + root]) / (-2.0 * qa)
    s = outer[:, None] * 2.0 ** (-0.5 * np.arange(_OCTAVE_STEPS, -1, -1))
    t = np.linspace(0.0, 1.0, _BRACKET_POINTS + 1)[1:-1]
    rows = np.arange(2)
    samples = []
    while True:
        log_m, sign = _log_moment(s, T, p)
        alive = np.logical_and.accumulate(sign > 0.0, axis=1)
        samples.append((s, np.where(alive, log_m, np.inf)))
        # between the last point alive and the first exploded one
        j = alive.sum(axis=1)
        n = s.shape[1]
        inner = np.where(j > 0, s[rows, j - 1], inner)
        outer = np.where(j < n, s[rows, np.minimum(j, n - 1)], outer)
        if np.all(np.abs(outer - inner) <= rel_width * np.abs(outer)):
            return inner, outer, samples
        s = inner[:, None] + (outer - inner)[:, None] * t


def critical_moments(p: HestonParams, T: float):
    """(w-, w+): E[exp(s x_T)] is finite for s in (-w-, w+) at maturity T.

    The critical moments of the logreturn x_T (Lee 2004): the first zero
    of P along s on either side of s = 0, where P = 1, which is where the
    moment explodes at T (Andersen and Piterbarg 2007).  Each is
    bracketed to 1e-13 of its size, and the bracket's inner end is
    returned, so the moment is finite at each w returned.
    """
    inner, _, _ = _moment_bracket(p, T, 1e-13)
    return float(-inner[0]), float(inner[1])


def _tail_depths(p: HestonParams, T, log_odds):
    """(d-, d+): P(x_T < -d-) and P(x_T > d+) are below exp(-log_odds).

    Chernoff: P(x_T < -d) <= M(-s) e^{-s d} for 0 < s < w-, so d- is the
    least (log_odds + log M(-s))/s over the samples of log M on the way
    to the explosion, and d+ the same with M(s).  The search stops at a
    bracket of 1/_BRACKET_POINTS of the critical moment: one pass after
    the geometric one.
    """
    _, _, samples = _moment_bracket(p, T, 1.0 / _BRACKET_POINTS)
    s = np.concatenate([s for s, _ in samples], axis=1)
    log_m = np.concatenate([log_m for _, log_m in samples], axis=1)
    depth = np.nanmin((log_odds + log_m) / np.abs(s), axis=1)
    return float(depth[0]), float(depth[1])


def _spot_core(l, T, p: HestonParams):
    """Spot-side exponent core, on nu(l) as the strike core is on omega(l)."""
    kappa, theta = _pricing_kappa_theta(p)
    b0 = kappa - p.rho * p.sigma
    b = b0 + (1j * p.rho * p.sigma) * l
    return _core_half(l * (l + 1j), b0, b, T, p.v0, kappa * theta,
                      p.sigma * p.sigma)[0]


def _core_exponents(l, T, p: HestonParams):
    """Spot- and strike-side exponent cores of the price integrand.

    The full exponents are i*l*(x_e - rT) + spot_core for the spot term
    and i*l*(x_e - rT) - rT + strike_core for the strike term; the
    i*l*(rho/sigma)*a phase and the kappa*a/sigma^2 offset are folded in
    by :func:`_core_half`, the one route for every amplification
    2(kappa theta + v0)/sigma^2.  Returns the two rows as one 2 x n
    array.  Both rows go through one :func:`_core_half` call,
    elementwise the same arithmetic as :func:`_spot_core` and
    :func:`_strike_core`, unless the spot side's kappa - rho sigma is
    negative and takes the other branch: then each row has its own call.
    """
    l = np.asarray(l, dtype=float)
    kappa, theta = _pricing_kappa_theta(p)
    b0 = kappa - p.rho * p.sigma
    rs = (1j * p.rho * p.sigma) * l
    l2 = np.stack([l * (l + 1j), l * (l - 1j)])
    b = np.stack([b0 + rs, kappa + rs])
    rest = (T, p.v0, kappa * theta, p.sigma * p.sigma)
    if b0 >= 0.0:
        return _core_half(l2, b0, b, *rest)[0]
    return np.stack([_core_half(l2[0], b0, b[0], *rest)[0],
                     _core_half(l2[1], kappa, b[1], *rest)[0]])


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
        got = np.asarray(got)
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
    It broadcasts: l and the exponents as (n, 1) columns against x and
    bond of shape (m,) give an (n, m) integrand, one column per rate.
    """
    phase = 1j * l * x
    spot_term = opt.s0 * np.exp(phase + spot_exp)
    strike_term = opt.strike * np.exp(phase + strike_exp)
    return (spot_term - strike_term - opt.s0 + opt.strike * bond) / l


def price_integrand(l, opt: VanillaOption, p: HestonParams, r):
    """The braced l-integrand of the single-integral call price.

    Vectorized over l; finite in the limit l -> 0 (the constant
    subtraction cancels the 1/l pole), but l = 0 itself must not be an
    abscissa -- the adaptive rule splits the domain there.  It is
    f(-l) = -conj f(l), so the call is (S0 - K bond)/2 minus 1/(2 pi)
    times the integral of 2 Im f over l > 0, where the real constant
    (K bond - S0)/l drops out and what is left decays like the
    characteristic function.  A constant
    rate is the rate model with cores (-i l rT, -i l rT - rT) and log
    bond -rT; the -i l rT is folded into the phase.  The rate enters
    nowhere else, so for an array of m rates the integrand has shape
    l.shape + (m,), one column per rate on one evaluation of the cores.
    """
    l = np.asarray(l, dtype=float)
    T = opt.maturity
    spot_core, strike_core = _MEMO.cores(_heston_key(p, T), l,
                                         _core_exponents, T, p)
    if isinstance(r, np.ndarray) and r.ndim:
        l, spot_core, strike_core = (l[..., None], spot_core[..., None],
                                     strike_core[..., None])
        bond = np.exp(-r * T)
    else:
        bond = math.exp(-r * T)
    rt = r * T
    return _braced(l, opt, math.log(opt.strike / opt.s0) - rt, spot_core,
                   strike_core - rt, bond)


def _check_result(res, what):
    """Raise a :class:`PricingError` carrying ``res`` unless it converged."""
    if not res.converged:
        raise PricingError(
            "%s quadrature did not converge: error=%.3e after %d evaluations "
            "in %d integrand calls, window %g"
            % (what, np.max(res.error_estimate), res.evaluations,
               res.integrand_calls, res.window), res)


def _finish_price(res, opt: VanillaOption, bond, cfg: QuadratureConfig,
                  what):
    """(price, res) from the folded braced integral ``res``, for both
    pricers.

    ``res`` integrates 2 Im of the braced integrand over l > 0, which is
    real.  Checks convergence and the sign, and prices a put by the
    parity C - P = S0 - K bond.  With one integral column per rate,
    ``bond`` holds one discount per column, the price is an array, and
    the checks run column by column against each column's own error
    estimate.
    """
    _check_result(res, what)
    if not isinstance(res.value, np.ndarray):
        return _column_price(res.value.real, res.error_estimate, opt, bond,
                             cfg, what), res
    return np.array([
        _column_price(v, e, opt, b, cfg, what) for v, e, b in zip(
            res.value.real.tolist(), res.error_estimate.tolist(),
            bond.tolist())]), res


def _column_price(value, error, opt: VanillaOption, bond,
                  cfg: QuadratureConfig, what):
    """The price from one column of the folded braced integral, checked.

    The folded integral is real by construction, so there is no
    imaginary residual to check; a call below -10 max(abs_tol, error)
    raises.
    """
    s0, k = opt.s0, opt.strike
    call = 0.5 * (s0 - k * bond) - value / _TWO_PI
    if call < -10.0 * max(cfg.abs_tol, error):
        raise PricingError("%s gives a negative call %.6e" % (what, call))
    call = max(call, 0.0)
    if opt.kind == "put":
        return call - s0 + k * bond
    return call


def heston_call_price(opt: VanillaOption, p: HestonParams, r,
                      cfg: QuadratureConfig | None = None):
    """European vanilla price under Heston with constant rate r.

    ``p`` must carry risk-neutral (option-propagation) parameters with
    mu = r; apply :func:`hestoncir.models.risk_neutral_map` first if a
    volatility risk premium is in play.  Puts are priced via parity.

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
        bond, what = math.exp(-r * T), "price"
    _MEMO.admit(_heston_key(p, T))
    res = integrate_half_line(
        lambda l: 2.0 * price_integrand(l, opt, p, r).imag, cfg)
    return _finish_price(res, opt, bond, cfg, what)


def density_integrand(l, x, T, p: HestonParams):
    """Fourier integrand of the marginal logreturn density (vectorized).

    Shape l.shape for a scalar x; an array x adds its axes after l's,
    and every x shares one kernel evaluation per l.
    """
    l = np.asarray(l, dtype=float)
    x = np.asarray(x, dtype=float)
    core = _strike_core(l, T, p).reshape(l.shape + (1,) * x.ndim)
    return np.exp(1j * np.multiply.outer(l, x) + core)


def marginal_density(x, T: float, p: HestonParams,
                     cfg: QuadratureConfig | None = None):
    """Density of the logreturn x_T = ln(S_T/S0) - mu T at x.

    ``x`` is a scalar, giving a float, or an array, giving an array of
    its shape from one adaptive integral whose integrand evaluates the
    kernel once per node for every x; the tolerance then binds the x
    whose integral is smallest.  The integrand is conjugate-symmetric
    over real l, so the density is 1/(2 pi) times the integral of 2 Re
    of it over l > 0; that integral is real by construction, and no
    imaginary residual is left to check.
    """
    cfg = cfg or QuadratureConfig()
    xs = np.asarray(x, dtype=float)
    flat = xs.reshape(-1) if xs.ndim else xs
    res = integrate_half_line(
        lambda l: 2.0 * density_integrand(l, flat, T, p).real, cfg)
    _check_result(res, "density")
    if not xs.ndim:
        return res.value.real / _TWO_PI
    return (res.value.real / _TWO_PI).reshape(xs.shape)


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


# Re strike core at which the density's l-table ends: its kernel is then
# below e^-45 of its value at l = 0
_DECAY_FLOOR = -45.0


def _decay_limit(T, p: HestonParams):
    """The l-table's end: within 1% above the first l where the strike
    core's real part falls below ``_DECAY_FLOOR``.

    One call brackets the crossing on l = 2^(k/4), 2^-10 <= l <= 2^17,
    and a second places it on 20 even steps across that bracket, each
    under 1% of its lower end.  Past 2^17 the end is 2^17.
    """
    coarse = 2.0 ** (0.25 * np.arange(-40, 69))
    below = _strike_core(coarse, T, p).real < _DECAY_FLOOR
    if not below.any():
        return float(coarse[-1])
    k = int(np.argmax(below))
    if k == 0:
        return float(coarse[0])
    fine = np.linspace(coarse[k - 1], coarse[k], 21)[1:]
    return float(fine[np.argmax(_strike_core(fine, T, p).real
                                < _DECAY_FLOOR)])


def _density_evaluator(T, p: HestonParams, cfg: QuadratureConfig,
                       period: float):
    """Logreturn density from an l-table of aliasing period ``period``,
    and its payoff strips.

    Returns ``(density, payoff_strip)``: ``density(xs)`` is vectorized
    over x, and ``payoff_strip(lo, hi, a, k)`` is the integral of
    (a e^x - k) times the density over [lo, hi].

    Builds a uniform trapezoid table of the Fourier kernel in l; for an
    analytic integrand decaying exponentially at both ends the uniform
    rule converges near-spectrally, so a single table replaces one
    adaptive quadrature per x.  Its error is set by the aliasing period
    2 pi/h and the kernel's analyticity strip, not by an absolute step
    (Trefethen and Weideman, SIAM Review 2014): by Poisson summation the
    table's density is sum_j f(x + j period), so the caller chooses the
    period that keeps the images j != 0 off the x it reads, and the step
    is h = 2 pi/period.  The table ends within 1% past the l where the
    kernel falls below e^-45 (:func:`_decay_limit`).  A table of more
    nodes than ``cfg.max_evals`` raises a :class:`PricingError` naming T,
    the critical moments and the node count.  The table is verified
    against the adaptive :func:`marginal_density` at three probe points
    (0, 0.9 sd and -1.7 sd, sd = sqrt((v0 + theta) T)), all in one call
    whose integrand evaluates the kernel once per node for the three;
    when it disagrees with a probe, a :class:`PricingError` names T, the
    probe x and both values.  The probe's truncation bound is the
    table's end l_max, so its start window [0, 2 l_max] holds the whole
    kernel: the outer panel past l_max, where the kernel is below
    e^-45, still tests the tail, and the window need not grow.

    The table's density is f(x) = Re sum_k c_k exp(i l_k x) / 2 pi.  An
    evenly spaced x grid (the CLI's and :func:`marginal_density_grid`'s
    usual input) sums it by a chirp-z transform, O((N + M) log(N + M))
    in time and memory; every other x (the three probe points, uneven
    grids) by cos/sin phase matrices, O(N M) in time, in blocks of
    bounded size.  Both routes stay, because the transform needs evenly
    spaced x.  A payoff strip needs no x at all: every mode integrates
    against a e^x - k in closed form (:func:`_payoff_strip_sum`), so a
    strip is one O(N) dot product and exact for the table.
    """
    h = _TWO_PI / period
    l_max = _decay_limit(T, p)
    nodes = math.ceil(l_max / h) + 1
    if nodes > cfg.max_evals:
        w_minus, w_plus = critical_moments(p, T)
        raise PricingError(
            "density table at T=%g needs %d nodes, more than max_evals=%d "
            "(critical moments w- = %.6g, w+ = %.6g)"
            % (T, nodes, cfg.max_evals, w_minus, w_plus))
    # conjugate symmetry of the kernel folds the line onto l >= 0
    grid = np.arange(nodes) * h
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

    def table_strip(lo, hi, a, k):
        return _payoff_strip_sum(kernel, h, lo, hi, a, k) / _TWO_PI

    scale = math.sqrt((p.v0 + p.theta) * T)
    probes = np.array([0.0, 0.9 * scale, -1.7 * scale])
    got = table_density(probes)
    ref = marginal_density(probes, T, p,
                           dataclasses.replace(cfg, truncation_bound=l_max))
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
    as for :func:`marginal_density`.  A non-finite x raises ValueError,
    and a table that fails its probe a :class:`PricingError`.
    """
    cfg = cfg or QuadratureConfig()
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    bad = ~np.isfinite(xs)
    if bad.any():
        raise ValueError("marginal_density_grid needs finite x, got %r"
                         % float(xs[bad][0]))
    reach = float(np.max(np.abs(xs))) if xs.size else 1.0
    # the period clears twice the grid's reach plus the density's support
    sd = math.sqrt((p.v0 + p.theta) * T)
    density, _ = _density_evaluator(T, p, cfg,
                                    2.0 * (reach + 12.0 * sd + 1.0))
    return density(xs)


def price_via_density(opt: VanillaOption, p: HestonParams, r: float,
                      cfg: QuadratureConfig | None = None) -> float:
    """Price by discounted expectation over the logreturn density.

    Cross-check of :func:`heston_call_price`.  Under mu = r the terminal
    spot is S0 exp(x_T + rT), so the put payoff is K - a e^x with
    a = S0 e^{rT}, nonzero for x below x_lo = ln(K/S0) - rT.  The route
    shares nothing with the pricer's spot core or its l-quadrature: it
    reads the strike core alone, on the uniform l-table of
    :func:`marginal_density_grid`, checked against the adaptive density
    at three probes (see :func:`_density_evaluator`).

    The put is one integral of the bounded payoff against that table,
    in closed form for each mode, over [lo, x_lo].  Being bounded, the
    payoff does not magnify the table's rounding or aliasing on a fat
    right tail, where e^x f(x) barely decays.  Both lo and the table's
    period come from the moments M(s) = E[exp(s x_T)], finite between
    the critical moments -w- < s < w+ (:func:`critical_moments`):
    with L = log(1 + 3 K/abs_tol), the Chernoff bound
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
    put + S0 - K e^{-rT}.  A NaN or infinite rate raises a ValueError.
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
    if opt.kind == "put":
        return put
    return put + s0 - k * disc
