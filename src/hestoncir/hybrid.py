"""Vanilla pricing with Heston volatility and a CIR stochastic rate.

The rate enters through a second family of kernel quantities, built on
the same radial-oscillator pattern as the volatility side but with
frequencies nu_r(l) and omega_r(l) from the discount-weighted CIR
kernel.  The l = 0 value of the strike-side exponent is exactly the log
of the CIR zero-coupon bond price, which replaces exp(-rT) in put-call
parity.

The put is the constant-rate pricer's contour integral with the strike
rate core at z = l + i c added to the volatility's: the rate is
independent of the variance and its core finite for every c < 1, so the
volatility side sets the contour.  The rate core takes the volatility
side's one cancellation-free route, :func:`heston._core_half` with b =
kappa_r, through :func:`rate_kernel` at every sigma_r > 0, so the price
stays exact as sigma_r -> 0.  The pricer and the bond read the strike
side only, and :func:`rate_kernel` evaluates nothing else unless asked:
a hybrid integrand node costs one rate core, as a Heston node costs one
volatility core.  At sigma_r = 0 the printed formulas are singular and
the pricer delegates to the constant-rate one at the deterministic
average rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .heston import _MEMO, _contour_shift, _core_half, _finish_price, \
    _heston_key, _put_integrand, _strike_core, \
    heston_price_with_diagnostics
from .models import CirRateParams, HestonParams, VanillaOption
from .numerics import QuadratureConfig, integrate_half_line
# nothing here calls it: bench/tracing.py wraps hybrid.integrate_real_line
from .numerics import integrate_real_line  # noqa: F401

__all__ = [
    "RateKernelTerms",
    "rate_kernel",
    "cir_bond_price",
    "deterministic_average_rate",
    "hybrid_price_integrand",
    "hybrid_call_price",
    "hybrid_price_with_diagnostics",
]


def _require_maturity(T):
    """Raise ValueError naming T unless it is finite and positive."""
    if not 0.0 < T < math.inf:
        raise ValueError("T must be finite and positive, got %r" % (T,))


def _rate_side(l2, T, rp: CirRateParams):
    """One rate side, :func:`heston._core_half` with b = kappa_r.

    Returns its frequency (nu_r or omega_r), its core, the core less the
    kappa_r a_r/sigma_r^2 offset (theta or upsilon) and the log of its
    amplitude (M_r or N_r).
    """
    sig2 = rp.sigma_r * rp.sigma_r
    kt = rp.kappa_r * rp.theta_r
    offset = rp.kappa_r * (rp.r0 + kt * T) / sig2
    core, two_f, log_p = _core_half(l2, rp.kappa_r, rp.kappa_r, T, rp.r0,
                                    kt, sig2)
    return 0.5 * two_f, core, core - offset, -0.5 * T * two_f - log_p


@dataclass
class RateKernelTerms:
    """Rate-side kernel quantities evaluated at one l (or an l-array).

    ``spot_core`` and ``strike_core`` are the rate exponents with the
    kappa_r a_r/sigma_r^2 offset folded in, as :func:`heston._core_half`
    returns them; the strike core at l = 0 is the log bond price.  The
    paper's ``theta_exp`` and ``upsilon_exp`` are those cores minus the
    offset.  Never rebuild a core from them: adding the offset back
    brings its 1/sigma_r^2 cancellation back.  M_r and N_r are formed
    on access from their stored logs.

    The strike side (``omega_r``, ``strike_core``, ``upsilon_exp``,
    ``log_n_r``) is evaluated with the record.  The spot side
    (``nu_r``, ``spot_core``, ``theta_exp``, ``log_m_r``) is one more
    core evaluation, made the first time one of them is read; no pricer
    reads it.
    """

    a_r: float
    omega_r: complex
    strike_core: complex
    upsilon_exp: complex
    log_n_r: complex
    _l: np.ndarray = field(repr=False)
    _T: float = field(repr=False)
    _rp: CirRateParams = field(repr=False)

    @cached_property
    def _spot(self):
        return _rate_side(2j * self._l, self._T, self._rp)

    nu_r = property(lambda self: self._spot[0])
    spot_core = property(lambda self: self._spot[1])
    theta_exp = property(lambda self: self._spot[2])
    log_m_r = property(lambda self: self._spot[3])

    @property
    def big_m_r(self):
        return np.exp(self.log_m_r)

    @property
    def big_n_r(self):
        return np.exp(self.log_n_r)


def rate_kernel(l, T: float, rp: CirRateParams) -> RateKernelTerms:
    """Evaluate the rate-side kernel quantities at l.

    Each side is one :func:`heston._core_half` call with b = kappa_r:
    the strike side on omega_r(l) with l2 = 2(i l + 1), evaluated here,
    and the spot side on nu_r(l) with l2 = 2 i l, evaluated when one of
    its fields is first read.  No 1/sigma_r^2 cancellation is left at
    any sigma_r > 0.  N_r(l) mirrors M_r with nu_r replaced by
    omega_r(l); at l = 0 the strike core reduces to the log CIR bond
    price, which the tests pin against the textbook A exp(-B r0)
    formula.  At a complex l = z the strike core is
    log E[exp(-(1 + i z) int r)], finite for Im z < 1.  T must be finite
    and positive.
    """
    _require_maturity(T)
    if rp.sigma_r <= 0:
        raise ValueError("rate_kernel requires sigma_r > 0; use the "
                         "deterministic-rate branch for sigma_r = 0")
    l = np.asarray(l)
    omega_r, strike, upsilon, log_n_r = _rate_side(2.0 * (1j * l + 1.0),
                                                   T, rp)
    return RateKernelTerms(rp.r0 + rp.kappa_r * rp.theta_r * T, omega_r,
                           strike, upsilon, log_n_r, l, T, rp)


def cir_bond_price(rp: CirRateParams, T: float) -> float:
    """Zero-coupon bond price E[exp(-integral of r)] under CIR.

    Requires sigma_r > 0 and a finite T > 0; the sigma_r = 0 limit is
    served by exp(-T * deterministic_average_rate(rp, T)).
    """
    _require_maturity(T)
    if rp.sigma_r <= 0:
        raise ValueError("cir_bond_price requires sigma_r > 0; use "
                         "exp(-T * deterministic_average_rate(rp, T))")
    return math.exp(rate_kernel(0.0, T, rp).strike_core.real)


def deterministic_average_rate(rp: CirRateParams, T: float) -> float:
    """Time average of the sigma_r = 0 rate path (mean-reversion ODE).

    T must be finite and positive.
    """
    _require_maturity(T)
    decay = -math.expm1(-rp.kappa_r * T) / rp.kappa_r
    return rp.theta_r + (rp.r0 - rp.theta_r) * decay / T


def _rate_core(l, T: float, rp: CirRateParams, c):
    """The strike rate core of :func:`rate_kernel` at z = l + i c."""
    return rate_kernel(l + 1j * c, T, rp).strike_core


def hybrid_price_integrand(l, opt: VanillaOption, p: HestonParams,
                           rp: CirRateParams, c=None):
    """The l-integrand of the stochastic-rate put price, on Im z = c.

    :func:`heston.price_integrand` with x = ln(K/S0) and the strike rate
    core at z in place of -rT; ``c`` defaults to the pricer's contour.
    """
    l = np.asarray(l, dtype=float)
    T = opt.maturity
    if c is None:
        c = _contour_shift(p, T)
    core = _MEMO.cores(_heston_key(p, T, c), l, _strike_core, T, p, c)
    rate = _MEMO.cores((rp, T, c), l, _rate_core, T, rp, c)
    return _put_integrand(l, c, math.log(opt.strike / opt.s0),
                          core + (rate + math.log(opt.strike)))


def hybrid_call_price(opt: VanillaOption, p: HestonParams,
                      rp: CirRateParams,
                      cfg: QuadratureConfig | None = None) -> float:
    """European vanilla price with stochastic volatility and rate.

    ``p`` must carry option-propagation parameters (mu unused here; the
    discounting lives entirely in the rate kernel).  For sigma_r = 0 the
    printed formulas are singular and the price reduces exactly to the
    constant-rate pricer at the deterministic average rate.  Calls come
    from the generalized parity C - P = S0 - K * bond.
    """
    price, _ = hybrid_price_with_diagnostics(opt, p, rp, cfg)
    return price


def hybrid_price_with_diagnostics(opt: VanillaOption, p: HestonParams,
                                  rp: CirRateParams,
                                  cfg: QuadratureConfig | None = None):
    """Like :func:`hybrid_call_price`, also returning the QuadratureResult."""
    cfg = cfg or QuadratureConfig()
    T = opt.maturity
    if rp.sigma_r == 0.0:
        rbar = deterministic_average_rate(rp, T)
        return heston_price_with_diagnostics(opt, p, rbar, cfg)

    c = _contour_shift(p, T)
    _MEMO.admit(_heston_key(p, T, c))
    _MEMO.admit((rp, T, c))
    res = integrate_half_line(
        lambda l: 2.0 * hybrid_price_integrand(l, opt, p, rp, c).real, cfg,
        scale=-c)
    return _finish_price(res, opt, p, c, cir_bond_price(rp, T), cfg,
                         "hybrid price at T=%g" % T)
