"""Monte Carlo verification engine.

Three independent routes check the closed forms:

* an averaged-rate scheme for the stochastic-rate price -- exact CIR
  transitions, one noncentral chi-square draw per path and step, build
  paths of the time-averaged rate, and the constant-rate closed form is
  evaluated at each draw and averaged; the closed form's whole curve in
  the rate comes from one multi-column integral;
* a full-truncation Euler simulator of the variance/log-spot system,
  used as a formula-free oracle for the constant-rate price.  Each step
  draws the variance's normal only; the spot's noise orthogonal to it
  is summed exactly given the variance path, in one more normal per
  path (Willard 1997, Romano & Touzi 1997), so a path costs steps + 1
  normals.  Antithetic sampling applies to this route only;
* exact lognormal terminal sampling for the Black-Scholes price, one
  normal per path.

All three share one block and stream rule (:func:`_blocks`): paths are
partitioned into blocks of 65536; block i draws from its own SFC64
stream, the i-th ``SeedSequence`` child of the seed (see
:class:`~hestoncir.numerics.RngStream`), so estimates are
bit-reproducible for a given seed regardless of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .heston import heston_call_price
from .hybrid import hybrid_call_price
from .models import CirRateParams, HestonParams, VanillaOption, \
    _require_int
from .numerics import QuadratureConfig, RngStream, sample_noncentral_chisq

__all__ = [
    "McConfig",
    "McEstimate",
    "cir_exact_step",
    "simulate_average_rates",
    "simulate_heston_terminal",
    "mc_price_hybrid",
    "mc_price_heston_euler",
    "mc_price_bs",
]

_BLOCK = 1 << 16

# Most rates priced in one integral when the curve falls back to exact
# prices at every draw: an (n, m) integrand call then holds at most
# 3840 x 64 complex values per array.
_RATE_BLOCK = 64


@dataclass(frozen=True)
class McConfig:
    """Path count, steps per path, seed, and antithetic sampling.

    ``antithetic`` mirrors the Euler route's normals
    (:func:`simulate_heston_terminal`, :func:`mc_price_heston_euler`);
    the averaged-rate and lognormal routes (:func:`mc_price_hybrid`,
    :func:`simulate_average_rates`, :func:`mc_price_bs`) reject it.
    """
    paths: int
    steps: int
    seed: int = 0
    antithetic: bool = False

    def __post_init__(self):
        _require_int(self, ("paths", "steps", "seed"))
        # a truthy string such as "false" would turn antithetic sampling on
        if not isinstance(self.antithetic, (bool, np.bool_)):
            raise ValueError("antithetic must be a bool, got %r"
                             % (self.antithetic,))
        if self.paths < 2:
            raise ValueError("paths must be at least 2")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    paths: int
    seed: int


def _blocks(mc: McConfig):
    """Yield (n, RngStream) for each block of ``mc.paths``.

    Blocks hold ``_BLOCK`` paths, the last one the remainder; block i
    draws from ``RngStream(mc.seed, i)``.  Under antithetic sampling a
    block holds mirrored halves, so an odd last block drops its last
    path.
    """
    for i, start in enumerate(range(0, mc.paths, _BLOCK)):
        n = min(_BLOCK, mc.paths - start)
        if mc.antithetic:
            n -= n % 2
            if n == 0:
                return
        yield n, RngStream(mc.seed, i)


def _no_antithetic(mc: McConfig, route):
    if mc.antithetic:
        raise ValueError("antithetic has no effect on the %s route; use the "
                         "Euler route or antithetic=False" % route)


def _estimate(samples, paths, seed) -> McEstimate:
    """Mean of the concatenated ``samples`` with its ddof-1 standard error."""
    x = np.concatenate(samples)
    return McEstimate(float(np.mean(x)),
                      float(np.std(x, ddof=1) / math.sqrt(len(x))),
                      paths, seed)


def _discounted_payoff(opt: VanillaOption, r, x):
    """exp(-r T) times the vanilla payoff at S_T = S0 exp(x)."""
    st = opt.s0 * np.exp(x)
    pay = np.maximum(st - opt.strike, 0.0) if opt.kind == "call" \
        else np.maximum(opt.strike - st, 0.0)
    pay *= math.exp(-r * opt.maturity)
    return pay


def cir_exact_step(current, dt, kappa, theta, sigma, rng: RngStream):
    """Exact CIR transition over dt from the noncentral chi-square law.

    Scalar or vectorized over ``current``.  sigma = 0 degenerates to the
    deterministic mean-reversion ODE step.
    """
    for name, value in (("dt", dt), ("kappa", kappa), ("theta", theta)):
        if not value > 0:
            raise ValueError("%s must be positive, got %r" % (name, value))
    if not sigma >= 0:
        raise ValueError("sigma must be nonnegative, got %r" % (sigma,))
    decay = math.exp(-kappa * dt)
    if sigma == 0.0:
        return theta + (current - theta) * decay
    c = sigma * sigma * (1.0 - decay) / (4.0 * kappa)
    df = 4.0 * kappa * theta / (sigma * sigma)
    noncentrality = np.asarray(current) * decay / c
    return c * sample_noncentral_chisq(df, noncentrality, rng)


def _rbar_block(rp: CirRateParams, T, steps, ndraws, rng: RngStream):
    """ndraws draws of the time-averaged rate, trapezoid rule on the path."""
    dt = T / steps
    r = np.full(ndraws, rp.r0, dtype=float)
    acc = 0.5 * r.copy()
    for i in range(steps):
        r = cir_exact_step(r, dt, rp.kappa_r, rp.theta_r, rp.sigma_r, rng)
        acc += r if i < steps - 1 else 0.5 * r
    return acc * dt / T


def simulate_average_rates(rp: CirRateParams, T: float,
                           mc: McConfig) -> np.ndarray:
    """mc.paths draws of the averaged rate, block-deterministic in seed.

    The draws take no normals to mirror, so ``mc.antithetic`` raises
    ValueError.
    """
    _no_antithetic(mc, "averaged-rate")
    return np.concatenate([_rbar_block(rp, T, mc.steps, n, rng)
                           for n, rng in _blocks(mc)])


def _price_curve_in_rate(opt, p, rates, cfg):
    """Closed-form price evaluated at every rate in ``rates``.

    The price is an analytic function of the rate over the narrow range
    the CIR average visits, so a Chebyshev interpolant through 17 exact
    evaluations reproduces it to well below quadrature tolerance.  The
    17 nodes and 4 spot-check probes (quantiles of ``rates``) are priced
    together, by one :func:`heston_call_price` call on the array of 21
    rates: one integral with a column per rate.  Should the interpolant
    miss a probe by more than 1e-8 S0, every rate is priced exactly by
    the same route, in blocks of ``_RATE_BLOCK`` columns.
    """
    rates = np.asarray(rates, dtype=float)
    lo, hi = float(np.min(rates)), float(np.max(rates))
    if hi - lo < 1e-12:
        return np.full(len(rates), heston_call_price(opt, p, lo, cfg))
    deg = 16
    k = np.arange(deg + 1)
    nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(np.pi * k / deg)
    probes = np.quantile(rates, [0.05, 0.35, 0.65, 0.95])
    exact = heston_call_price(opt, p, np.concatenate([nodes, probes]), cfg)
    poly = np.polynomial.chebyshev.Chebyshev.fit(nodes, exact[:deg + 1],
                                                 deg)
    if np.max(np.abs(poly(probes) - exact[deg + 1:])) > 1e-8 * opt.s0:
        return np.concatenate([
            heston_call_price(opt, p, rates[i:i + _RATE_BLOCK], cfg)
            for i in range(0, rates.size, _RATE_BLOCK)])
    return poly(rates)


def mc_price_hybrid(opt: VanillaOption, p: HestonParams, rp: CirRateParams,
                    mc: McConfig,
                    cfg: QuadratureConfig | None = None) -> McEstimate:
    """Averaged-rate Monte Carlo price for the stochastic-rate model.

    Draws paths of the averaged rate rbar, prices with the constant-rate
    closed form at each draw (through :func:`_price_curve_in_rate`, one
    multi-column integral for the whole curve), and averages.  The rate
    paths take one exact noncentral chi-square draw per path and step.
    With sigma_r = 0 the rate is deterministic and the estimate
    degenerates to a single closed-form evaluation with zero standard
    error.  Antithetic sampling applies to the Euler route only, so
    ``mc.antithetic`` raises ValueError here.
    """
    _no_antithetic(mc, "averaged-rate")
    if rp.sigma_r == 0.0:
        return McEstimate(hybrid_call_price(opt, p, rp, cfg), 0.0, mc.paths,
                          mc.seed)
    rbars = simulate_average_rates(rp, opt.maturity, mc)
    return _estimate([_price_curve_in_rate(opt, p, rbars, cfg)], mc.paths,
                     mc.seed)


def _normals(gen, out, half):
    """Fill ``out`` with standard normals; given ``half``, draw that many
    and mirror them: out = concatenate([wb, -wb])."""
    if half is None:
        return gen.standard_normal(out=out)
    gen.standard_normal(out=out[:half])
    np.negative(out[:half], out=out[half:])
    return out


def _euler_blocks(p: HestonParams, mu, T, mc: McConfig):
    """Yield per-block arrays of terminal ln(S_T/S0) from full-truncation Euler.

    The variance steps on one standard normal W per path:
    v += kappa (theta - v+) dt + sigma sqrt(v+ dt) W, with v+ = max(v, 0).
    The spot's Brownian increment is rho W + rho_c U, U independent of
    W, so given the variance path the sum of its U terms,
    sum sqrt(v+ dt) U, is exactly normal with variance dt sum v+.  Each
    path therefore draws steps + 1 normals, one W per step and one Z at
    the end, and

        x = mu T - dt/2 sum v+ + rho sum sqrt(v+ dt) W
            + rho_c sqrt(dt sum v+) Z

    has the same joint law with the variance path as the two-normal
    scheme's sum of its increments (mu - v+/2) dt + sqrt(v+ dt) Z_s.

    The samples include the drift mu T; :func:`marginal_density` is
    defined on the drift-adjusted x - mu T.  With antithetic sampling
    each block is two mirrored halves laid out contiguously, in W and
    in Z, so path i pairs with path i + len/2 within the block.
    """
    dt = T / mc.steps
    sqdt = math.sqrt(dt)
    kdt = p.kappa * dt
    ssdt = p.sigma * sqdt
    rho_c = math.sqrt(1.0 - p.rho * p.rho)
    for n, rng in _blocks(mc):
        gen = rng.generator
        half = n // 2 if mc.antithetic else None
        v = np.full(n, p.v0)
        sv = np.zeros(n)            # sum of v+
        sw = np.zeros(n)            # sum of sqrt(v+) W
        # The step works in buffers allocated once per block: fresh
        # block-sized temporaries on every step cost page faults whenever
        # the allocator hands their memory back to the system.  Each
        # update keeps the operation order of the plain expression in
        # its comment, so the paths are bit-identical to it.
        w, vp, dw = (np.empty(n) for _ in range(3))
        for _ in range(mc.steps):
            _normals(gen, w, half)
            np.maximum(v, 0.0, out=vp)
            sv += vp
            # dw = sqrt(vp) * w; sw += dw
            np.sqrt(vp, out=dw)
            dw *= w
            sw += dw
            # v = v + kdt * (theta - vp) + ssdt * dw
            np.subtract(p.theta, vp, out=vp)
            vp *= kdt
            v += vp
            dw *= ssdt
            v += dw
        z = _normals(gen, w, half)
        yield (mu * T - 0.5 * dt * sv + p.rho * sqdt * sw
               + rho_c * np.sqrt(dt * sv) * z)


def simulate_heston_terminal(p: HestonParams, mu: float, T: float,
                             mc: McConfig) -> np.ndarray:
    """Terminal ln(S_T/S0) samples under the generalized Heston dynamics.

    Full-truncation Euler on steps + 1 normals per path: one a step for
    the variance and one for the spot's orthogonal noise, summed exactly
    given the variance path (see :func:`_euler_blocks`).  Each path has
    the law of the scheme that draws two normals a step.  With
    ``mc.antithetic`` both normals are mirrored, and path i pairs with
    path i + len/2 within each block of up to 65536 paths.

    The samples include the drift mu T, so E[exp(x)] = exp(mu T).
    :func:`marginal_density` is the density of x - mu T, the paper's
    drift-adjusted logreturn x_T.
    """
    return np.concatenate(list(_euler_blocks(p, mu, T, mc)))


def mc_price_heston_euler(opt: VanillaOption, p: HestonParams, r: float,
                          mc: McConfig) -> McEstimate:
    """Full-truncation Euler Monte Carlo price with constant rate r.

    Independent of every closed-form ingredient: simulates the SDE
    system directly with drift mu = r, on the steps + 1 normals a path
    of :func:`simulate_heston_terminal`, and averages discounted
    payoffs.  Antithetic pairs, whose variance and
    orthogonal normals are both mirrored, are averaged before the
    standard error is formed.
    """
    samples = []
    npaths = 0
    for x in _euler_blocks(p, r, opt.maturity, mc):
        pay = _discounted_payoff(opt, r, x)
        npaths += len(pay)
        if mc.antithetic:
            half = len(pay) // 2
            pay = 0.5 * (pay[:half] + pay[half:])
        samples.append(pay)
    return _estimate(samples, npaths, mc.seed)


def mc_price_bs(opt: VanillaOption, r: float, vol: float,
                mc: McConfig) -> McEstimate:
    """Black-Scholes Monte Carlo price from exact lognormal sampling.

    Each path draws one normal z, from its block's stream (see
    :func:`_blocks`), for ln(S_T/S0) = (r - vol^2/2) T + vol sqrt(T) z,
    and the discounted payoffs are averaged; ``mc.steps`` is not read.
    There are no Euler normals to mirror, so ``mc.antithetic`` raises
    ValueError.
    """
    _no_antithetic(mc, "lognormal")
    drift = (r - 0.5 * vol * vol) * opt.maturity
    sd = vol * math.sqrt(opt.maturity)
    pays = [_discounted_payoff(opt, r,
                               drift + sd * rng.generator.standard_normal(n))
            for n, rng in _blocks(mc)]
    return _estimate(pays, mc.paths, mc.seed)
