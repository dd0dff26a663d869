"""Vanilla pricing with Heston volatility and a CIR stochastic rate.

The rate enters through a second family of kernel quantities, built on
the same radial-oscillator pattern as the volatility side but with
frequencies nu_r(l) and omega_r(l) from the discount-weighted CIR
kernel.  The l = 0 value of the strike-side exponent is exactly the log
of the CIR zero-coupon bond price, which is what replaces exp(-rT) in
the at-the-money constant and in put-call parity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .heston import _MEMO, PricingError, _core_exponents, _core_half, \
    _heston_key, _stable_nsh, heston_price_with_diagnostics
from .models import CirRateParams, HestonParams, VanillaOption
from .numerics import QuadratureConfig, integrate_real_line

__all__ = [
    "RateKernelTerms",
    "rate_kernel",
    "cir_bond_price",
    "deterministic_average_rate",
    "hybrid_price_integrand",
    "hybrid_call_price",
    "hybrid_price_with_diagnostics",
]

_TWO_PI = 2.0 * math.pi


@dataclass
class RateKernelTerms:
    """Rate-side kernel quantities evaluated at one l (or an l-array)."""

    a_r: float
    nu_r: complex
    omega_r: complex
    big_m_r: complex
    big_n_r: complex
    theta_exp: complex
    upsilon_exp: complex


def rate_kernel(l, T: float, rp: CirRateParams) -> RateKernelTerms:
    """Evaluate the six rate-side kernel quantities at l.

    N_r(l) mirrors M_r with nu_r replaced by omega_r(l); at l = 0 the
    strike-side exponent (kappa_r/sigma_r^2) a_r + upsilon_exp reduces
    to the log CIR bond price, which the tests pin against the textbook
    A exp(-B r0) formula.
    """
    if rp.sigma_r <= 0:
        raise ValueError("rate_kernel requires sigma_r > 0; use the "
                         "deterministic-rate branch for sigma_r = 0")
    l = np.asarray(l, dtype=float)
    sig2 = rp.sigma_r * rp.sigma_r
    ratio = rp.kappa_r * rp.kappa_r / sig2
    q_r = 2.0 * rp.kappa_r * rp.theta_r / sig2
    a_r = rp.r0 + rp.kappa_r * rp.theta_r * T

    nu_r = 0.5 * rp.sigma_r * np.sqrt(ratio + 2j * l)
    omega_r = 0.5 * rp.sigma_r * np.sqrt(ratio + 2.0 * (1j * l + 1.0))

    m_r, log_m, g_nu = _stable_nsh(nu_r * T, rp.kappa_r / (2.0 * nu_r))
    n_r, log_n, g_om = _stable_nsh(omega_r * T, rp.kappa_r / (2.0 * omega_r))

    theta_exp = -(2.0 * nu_r * rp.r0 / sig2) * g_nu + q_r * log_m
    upsilon_exp = -(2.0 * omega_r * rp.r0 / sig2) * g_om + q_r * log_n
    return RateKernelTerms(a_r=a_r, nu_r=nu_r, omega_r=omega_r,
                           big_m_r=m_r, big_n_r=n_r,
                           theta_exp=theta_exp, upsilon_exp=upsilon_exp)


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

    Returns (spot_rate_core, strike_rate_core); the strike core at l = 0
    is the log bond price.  Mirrors the volatility side: direct
    cosh/sinh evaluation normally, exact cancellation-free rearrangement
    when sigma_r is small enough that the 1/sigma_r^2 terms would
    swallow the precision (4 nu_r^2 = kappa_r^2 + 2 i l sigma_r^2 plays
    the role of the Heston frequency identity).
    """
    l = np.asarray(l, dtype=float)
    sig2 = rp.sigma_r * rp.sigma_r
    amplification = 2.0 * (rp.kappa_r * rp.theta_r + rp.r0) / sig2
    if amplification < 1e8:
        rk = rate_kernel(l, T, rp)
        kap_a_r = rp.kappa_r / sig2 * rk.a_r
        return kap_a_r + rk.theta_exp, kap_a_r + rk.upsilon_exp
    kt = rp.kappa_r * rp.theta_r
    nu_r = 0.5 * rp.sigma_r * np.sqrt(rp.kappa_r ** 2 / sig2 + 2j * l)
    omega_r = 0.5 * rp.sigma_r * np.sqrt(
        rp.kappa_r ** 2 / sig2 + 2.0 * (1j * l + 1.0))
    spot = _core_half(2j * l, rp.kappa_r + 0j * l, nu_r, T, rp.r0, kt, sig2)
    strike = _core_half(2.0 * (1j * l + 1.0), rp.kappa_r + 0j * l, omega_r,
                        T, rp.r0, kt, sig2)
    return spot, strike


def hybrid_price_integrand(l, opt: VanillaOption, p: HestonParams,
                           rp: CirRateParams):
    """The braced l-integrand of the stochastic-rate call price.

    Vectorized over l; finite as l -> 0 by the same cancellation as in
    the constant-rate integrand, with exp(-rT) replaced by the bond
    price factor.
    """
    l = np.asarray(l, dtype=float)
    s0, k, T = opt.s0, opt.strike, opt.maturity
    x_e = math.log(k / s0)

    spot_core, strike_core = _MEMO.cores(_heston_key(p, T), l,
                                         _core_exponents, T, p)
    # one rate-core lookup serves the nodes and, at an appended l = 0,
    # the log bond price
    rate_spot, rate_strike = _MEMO.cores((rp, T), np.append(l, 0.0),
                                         _rate_cores, T, rp)
    log_bond = rate_strike[-1]
    rate_spot = rate_spot[:-1].reshape(l.shape)
    rate_strike = rate_strike[:-1].reshape(l.shape)

    phase = 1j * l * x_e
    spot_term = s0 * np.exp(phase + spot_core + rate_spot)
    strike_term = k * np.exp(phase + strike_core + rate_strike)
    const = k * np.exp(log_bond) - s0
    return (const + spot_term - strike_term) / l


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
    s0, k, T = opt.s0, opt.strike, opt.maturity

    if rp.sigma_r == 0.0:
        rbar = deterministic_average_rate(rp, T)
        return heston_price_with_diagnostics(opt, p, rbar, cfg)

    _MEMO.admit(_heston_key(p, T))
    _MEMO.admit((rp, T))
    bond = cir_bond_price(rp, T)
    res = integrate_real_line(
        lambda l: hybrid_price_integrand(l, opt, p, rp), cfg)
    if not res.converged:
        raise PricingError(
            "hybrid price quadrature did not converge: error=%.3e after "
            "%d evaluations" % (res.error_estimate, res.evaluations))
    price_c = 0.5 * (s0 - k * bond) + 1j * res.value / _TWO_PI
    imag = abs(price_c.imag)
    if imag > 10.0 * res.error_estimate + 1e-10 * s0:
        raise PricingError(
            "hybrid imaginary residual %.3e exceeds 10x quadrature error "
            "%.3e" % (imag, res.error_estimate))
    call = price_c.real
    if call < -10.0 * max(cfg.abs_tol, res.error_estimate):
        raise PricingError("negative hybrid call price %.6e" % call)
    call = max(call, 0.0)
    if opt.kind == "put":
        return call - s0 + k * bond, res
    return call, res
