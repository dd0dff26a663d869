"""Parameter records, validation, and the Black-Scholes baseline."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

__all__ = [
    "HestonParams",
    "CirRateParams",
    "VanillaOption",
    "FellerReport",
    "risk_neutral_map",
    "feller_check",
    "bs_price",
]


def _require_finite(record, names=None):
    """Raise ValueError naming the first of ``names`` that is NaN or inf.

    ``names`` defaults to every field of the dataclass ``record``.
    """
    for name in names or [f.name for f in fields(record)]:
        value = getattr(record, name)
        if not math.isfinite(value):
            raise ValueError("%s must be finite, got %r" % (name, value))


def _require_int(record, names):
    """Raise ValueError naming the first of ``names`` that is not an
    integer: a float is not one, even if integral, and neither is a bool.
    """
    for name in names:
        value = getattr(record, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError("%s must be an integer, got %r" % (name, value))


@dataclass(frozen=True)
class HestonParams:
    """Heston variance-process parameters plus asset drift.

    ``mu`` is the asset drift; under risk-neutral (option propagation)
    pricing it equals the risk-free rate.  ``lam`` is the market price
    of volatility risk, consumed only through :func:`risk_neutral_map`.
    """

    mu: float
    kappa: float
    theta: float
    sigma: float
    rho: float
    v0: float
    lam: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")
        if not self.theta > 0:
            raise ValueError("theta must be positive")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if not -1.0 < self.rho < 1.0:
            raise ValueError("rho must lie strictly inside (-1, 1)")
        if self.v0 < 0:
            raise ValueError("v0 must be nonnegative")


@dataclass(frozen=True)
class CirRateParams:
    """CIR short-rate parameters.

    ``sigma_r = 0`` is allowed and means a deterministic
    (mean-reverting ODE) rate; the closed-form bond price rejects it
    and a dedicated deterministic branch takes over.
    """

    kappa_r: float
    theta_r: float
    sigma_r: float
    r0: float

    def __post_init__(self):
        _require_finite(self)
        if not self.kappa_r > 0:
            raise ValueError("kappa_r must be positive")
        if not self.theta_r > 0:
            raise ValueError("theta_r must be positive")
        if self.sigma_r < 0:
            raise ValueError("sigma_r must be nonnegative")
        if self.r0 < 0:
            raise ValueError("r0 must be nonnegative")


@dataclass(frozen=True)
class VanillaOption:
    s0: float
    strike: float
    maturity: float
    kind: str = "call"

    def __post_init__(self):
        _require_finite(self, ("s0", "strike", "maturity"))
        if not self.s0 > 0:
            raise ValueError("s0 must be positive")
        if not self.strike > 0:
            raise ValueError("strike must be positive")
        if not self.maturity > 0:
            raise ValueError("maturity must be positive")
        if self.kind not in ("call", "put"):
            raise ValueError("kind must be 'call' or 'put'")


@dataclass(frozen=True)
class FellerReport:
    """2*kappa*theta vs sigma^2 positivity diagnostic for a CIR process."""

    satisfied: bool
    lhs: float
    rhs: float


def risk_neutral_map(kappa0, theta0, lam):
    """Map real-world (kappa0, theta0) to risk-neutral (kappa, theta).

    Returns (kappa0 + lam, kappa0 * theta0 / (kappa0 + lam)); the
    product kappa * theta is preserved exactly.
    """
    if not math.isfinite(lam):
        raise ValueError("lam must be finite, got %r" % (lam,))
    if not kappa0 > 0 or not theta0 > 0:
        raise ValueError("kappa0 and theta0 must be positive")
    if kappa0 + lam <= 0:
        raise ValueError("kappa0 + lam must be positive")
    kappa = kappa0 + lam
    return kappa, kappa0 * theta0 / kappa


def feller_check(p) -> FellerReport:
    """Feller condition report for either a variance or a rate process.

    Violation is a warning-level diagnostic, not an error: the pricing
    formulas and the noncentral chi-square sampler remain valid.
    """
    if isinstance(p, CirRateParams):
        kappa, theta, sigma = p.kappa_r, p.theta_r, p.sigma_r
    else:
        kappa, theta, sigma = p.kappa, p.theta, p.sigma
    lhs = 2.0 * kappa * theta
    rhs = sigma * sigma
    return FellerReport(satisfied=lhs >= rhs, lhs=lhs, rhs=rhs)


def _norm_cdf(x: float) -> float:
    """Standard normal distribution function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def bs_price(opt: VanillaOption, r: float, vol: float) -> float:
    """Black-Scholes price of a European vanilla option.

    The put value is obtained from the call through put-call parity.
    """
    if not math.isfinite(r):
        raise ValueError("r must be finite, got %r" % (r,))
    if not 0.0 <= vol < math.inf:
        raise ValueError("vol must be finite and nonnegative, got %r"
                         % (vol,))
    s0, k, t = opt.s0, opt.strike, opt.maturity
    disc = math.exp(-r * t)
    if vol * math.sqrt(t) < 1e-14:
        call = max(s0 - k * disc, 0.0)
    else:
        sd = vol * math.sqrt(t)
        d1 = (math.log(s0 / k) + (r + 0.5 * vol * vol) * t) / sd
        d2 = d1 - sd
        call = s0 * _norm_cdf(d1) - k * disc * _norm_cdf(d2)
    if opt.kind == "call":
        return call
    return call - s0 + k * disc
