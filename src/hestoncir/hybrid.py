"""Vanilla pricing with Heston volatility and a CIR stochastic rate.

The rate enters through a second family of kernel quantities, built on
the same radial-oscillator pattern as the volatility side but with
frequencies nu_r(l) and omega_r(l) from the discount-weighted CIR
kernel.  The l = 0 value of the strike-side exponent is exactly the log
of the CIR zero-coupon bond price, which is what replaces exp(-rT) in
the at-the-money constant and in put-call parity.

Both rate exponents take the volatility side's one cancellation-free
route, :func:`heston._core_half` with b = kappa_r, through
:func:`rate_kernel` at every sigma_r > 0, so the price stays exact as
sigma_r -> 0.  At sigma_r = 0 the printed formulas are singular and the
pricer delegates to the constant-rate one at the deterministic average
rate.  As in :mod:`hestoncir.heston`, the braced integrand is
conjugate-antisymmetric in l, so the price integrates 2 Im of it over
l > 0 only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .heston import _MEMO, _braced, _core_exponents, _core_half, \
    _finish_price, _heston_key, heston_price_with_diagnostics
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
    """

    a_r: float
    nu_r: complex
    omega_r: complex
    spot_core: complex
    strike_core: complex
    theta_exp: complex
    upsilon_exp: complex
    log_m_r: complex
    log_n_r: complex

    @property
    def big_m_r(self):
        return np.exp(self.log_m_r)

    @property
    def big_n_r(self):
        return np.exp(self.log_n_r)


def rate_kernel(l, T: float, rp: CirRateParams) -> RateKernelTerms:
    """Evaluate the rate-side kernel quantities at l.

    Both sides go through one :func:`heston._core_half` call with b =
    kappa_r, stacked as two rows: the spot side on nu_r(l) with l2 =
    2 i l, the strike side on omega_r(l) with l2 = 2(i l + 1), so no
    1/sigma_r^2 cancellation is left at any sigma_r > 0.  N_r(l)
    mirrors M_r with nu_r replaced by omega_r(l); at l = 0 the strike
    core reduces to the log CIR bond price, which the tests pin against
    the textbook A exp(-B r0) formula.
    """
    if rp.sigma_r <= 0:
        raise ValueError("rate_kernel requires sigma_r > 0; use the "
                         "deterministic-rate branch for sigma_r = 0")
    l = np.asarray(l, dtype=float)
    sig2 = rp.sigma_r * rp.sigma_r
    kt = rp.kappa_r * rp.theta_r
    a_r = rp.r0 + kt * T
    offset = rp.kappa_r * a_r / sig2
    (spot, strike), (two_nu, two_om), (log_pm, log_pn) = _core_half(
        np.stack([2j * l, 2.0 * (1j * l + 1.0)]), rp.kappa_r, rp.kappa_r,
        T, rp.r0, kt, sig2)
    return RateKernelTerms(
        a_r=a_r, nu_r=0.5 * two_nu, omega_r=0.5 * two_om,
        spot_core=spot, strike_core=strike,
        theta_exp=spot - offset, upsilon_exp=strike - offset,
        log_m_r=-0.5 * T * two_nu - log_pm,
        log_n_r=-0.5 * T * two_om - log_pn)


def cir_bond_price(rp: CirRateParams, T: float) -> float:
    """Zero-coupon bond price E[exp(-integral of r)] under CIR.

    Requires sigma_r > 0; the sigma_r = 0 limit is served by
    exp(-T * deterministic_average_rate(rp, T)).
    """
    if not T > 0:
        raise ValueError("T must be positive")
    if rp.sigma_r <= 0:
        raise ValueError("cir_bond_price requires sigma_r > 0; use "
                         "exp(-T * deterministic_average_rate(rp, T))")
    # every hybrid integrand call stores l = 0 in the rate-core memo
    log_bond = _MEMO.cores((rp, T), 0.0, _rate_cores, T, rp)[1]
    return float(np.exp(np.real(log_bond)))


def deterministic_average_rate(rp: CirRateParams, T: float) -> float:
    """Time average of the sigma_r = 0 rate path (mean-reversion ODE)."""
    decay = -math.expm1(-rp.kappa_r * T) / rp.kappa_r
    return rp.theta_r + (rp.r0 - rp.theta_r) * decay / T


def _rate_cores(l, T: float, rp: CirRateParams):
    """Rate-side exponents with the kappa_r a_r / sigma_r^2 offset folded in.

    Returns (spot_rate_core, strike_rate_core) of :func:`rate_kernel`,
    the one rate route at every sigma_r > 0; the strike core at l = 0 is
    the log bond price.
    """
    rk = rate_kernel(l, T, rp)
    return rk.spot_core, rk.strike_core


def hybrid_price_integrand(l, opt: VanillaOption, p: HestonParams,
                           rp: CirRateParams):
    """The braced l-integrand of the stochastic-rate call price.

    Vectorized over l; finite as l -> 0 by the same cancellation as in
    the constant-rate integrand, with exp(-rT) replaced by the bond
    price factor.
    """
    l = np.asarray(l, dtype=float)
    T = opt.maturity
    spot_core, strike_core = _MEMO.cores(_heston_key(p, T), l,
                                         _core_exponents, T, p)
    # one rate-core lookup serves the nodes and, at an appended l = 0,
    # the log bond price
    rate_spot, rate_strike = _MEMO.cores((rp, T), np.append(l, 0.0),
                                         _rate_cores, T, rp)
    bond = math.exp(rate_strike[-1].real)
    return _braced(l, opt, math.log(opt.strike / opt.s0),
                   spot_core + rate_spot[:-1].reshape(l.shape),
                   strike_core + rate_strike[:-1].reshape(l.shape), bond)


def hybrid_call_price(opt: VanillaOption, p: HestonParams,
                      rp: CirRateParams,
                      cfg: QuadratureConfig | None = None) -> float:
    """European vanilla price with stochastic volatility and rate.

    ``p`` must carry option-propagation parameters (mu unused here; the
    discounting lives entirely in the rate kernel).  For sigma_r = 0 the
    printed formulas are singular and the price reduces exactly to the
    constant-rate pricer at the deterministic average rate.  Puts come
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

    _MEMO.admit(_heston_key(p, T))
    _MEMO.admit((rp, T))
    bond = cir_bond_price(rp, T)
    res = integrate_half_line(
        lambda l: 2.0 * hybrid_price_integrand(l, opt, p, rp).imag, cfg)
    return _finish_price(res, opt, bond, cfg, "hybrid price")
