"""Seeded inputs, op execution and output checks for the four workloads.

Inputs are plain frozen dataclasses of floats, built only from the
workload seed, so the library receives nothing but generated contracts
and parameters.  Every op is priced at one stated accuracy,
``QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9, max_evals=20_000)``;
references for the pricing checks are the same quote at ``REF_TOL``
with the library's default evaluation budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import hestoncir as hc

QUOTE_TOL = 1e-9
# Evaluation budget of a quote.  Of 13200 scatter quotes (seeds 0, 1 and
# 101-110) the converging ones took at most 14850 evaluations, and only
# one took more than 8000; a quote that cannot converge fails after about
# 0.25 s instead of after the default 500000 evaluations (about 6 s).
QUOTE_MAX_EVALS = 20_000
REF_TOL = 1e-10          # 1e-11 fails to converge on ~2% of scatter quotes
PRICE_ABS_TOL = 1e-8     # |price - reference| limit, times S0
MC_Z_LIMIT = 4.0
MASS_TOL = 1e-6
CROSS_REL_TOL = 1e-5

WORKLOADS = ("chain", "scatter", "mc_verify", "density")
_WORKLOAD_ID = {name: i for i, name in enumerate(WORKLOADS)}

CHAIN_MATURITIES = (1 / 52, 2 / 52, 1 / 12, 1 / 6, 0.25, 0.5, 0.75, 1.0,
                    1.5, 2.0, 3.0, 5.0, 7.0, 10.0, 20.0, 30.0)
CHAIN_STRIKES = 25            # per maturity, spaced in standard deviations
# Quotes in a scatter schedule.  A run prices all of them, in whole
# passes, so the quotes it checks, and those that fail, depend only on
# the seed; one pass takes about 7 s on the reference machine.
SCATTER_OPS = 512
SCATTER_CATEGORIES = (
    "heston_wild",      # |rho| up to 0.95, Feller-violating sigma
    "heston_neardet",   # sigma 1e-6 to 1e-4, near-deterministic variance
    "heston_lambda",    # nonzero volatility risk premium
    "heston_plain",
    "hybrid_det",       # sigma_r = 0: deterministic-rate branch
    "hybrid_tiny",      # sigma_r 1e-6 to 3e-5, near-deterministic rate
    "hybrid_plain",
    "hybrid_wild",      # Feller-violating sigma, |rho| large, lambda != 0
)


def quote_config():
    return hc.QuadratureConfig(abs_tol=QUOTE_TOL, rel_tol=QUOTE_TOL,
                               max_evals=QUOTE_MAX_EVALS)


def reference_config():
    return hc.QuadratureConfig(abs_tol=REF_TOL, rel_tol=REF_TOL)


@dataclass(frozen=True)
class Quote:
    """One vanilla price under ``heston_call_price`` or ``hybrid_call_price``.

    ``heston`` is (mu, kappa, theta, sigma, rho, v0, lam); ``rate`` is
    (kappa_r, theta_r, sigma_r, r0) for the hybrid model, and for the
    Heston model the constant rate is ``heston[0]``.
    """

    model: str
    heston: tuple
    rate: tuple | None
    s0: float
    strike: float
    maturity: float
    kind: str
    tag: str = ""


@dataclass(frozen=True)
class McCheck:
    """A Monte Carlo estimate z-tested against the closed form."""

    scheme: str          # "euler", "euler_anti" or "hybrid"
    heston: tuple
    rate: tuple | None
    s0: float
    strike: float
    maturity: float
    paths: int
    steps: int
    mc_seed: int

    @property
    def path_steps(self):
        return self.paths * self.steps


@dataclass(frozen=True)
class DensityGrid:
    heston: tuple
    maturity: float
    lo: float
    hi: float
    n: int


@dataclass(frozen=True)
class DensityPrice:
    """``price_via_density`` against ``heston_call_price`` on one call."""

    heston: tuple
    s0: float
    strike: float
    maturity: float


# ---------------------------------------------------------------- inputs

def _rng(seed, workload):
    ss = np.random.SeedSequence([int(seed), _WORKLOAD_ID[workload]])
    return np.random.Generator(np.random.PCG64(ss))


def _f(x):
    return float(x)


def _market(g):
    """One Heston + CIR market (chain, mc_verify, density).

    Drawn from a narrow band around a typical equity-index calibration:
    quote cost depends on the market, so a wide band would make runs
    with different seeds measure different amounts of work.
    """
    r0 = _f(g.uniform(0.0275, 0.0325))
    heston = (r0, _f(g.uniform(1.6, 1.9)), _f(g.uniform(0.0425, 0.0475)),
              _f(g.uniform(0.425, 0.475)), _f(g.uniform(-0.675, -0.625)),
              _f(g.uniform(0.0375, 0.0425)), 0.0)
    rate = (_f(g.uniform(1.15, 1.35)), _f(g.uniform(0.0275, 0.0325)),
            _f(g.uniform(0.09, 0.11)), r0)
    return heston, rate


def chain_ops(seed, smoke=False):
    """One market; a strike x maturity surface under both models, calls
    and puts, in seeded shuffled order."""
    g = _rng(seed, "chain")
    heston, rate = _market(g)
    r0, theta = heston[0], heston[2]
    mats = CHAIN_MATURITIES[::5] if smoke else CHAIN_MATURITIES
    zs = np.linspace(-2.5, 2.5, 5 if smoke else CHAIN_STRIKES)
    ops = []
    for T in mats:
        for z in zs:
            k = round(100.0 * math.exp(r0 * T + z * math.sqrt(theta * T)), 2)
            for model in ("heston", "hybrid"):
                for kind in ("call", "put"):
                    ops.append(Quote(model, heston,
                                     rate if model == "hybrid" else None,
                                     100.0, k, T, kind, "chain"))
    order = g.permutation(len(ops))
    return [ops[i] for i in order]


def _scatter_quote(g, category):
    kappa = _f(g.uniform(0.5, 5.0))
    theta = _f(g.uniform(0.01, 0.12))
    v0 = _f(g.uniform(0.005, 0.15))
    sigma = _f(g.uniform(0.1, 0.8))
    rho = _f(g.uniform(-0.9, 0.5))
    lam = 0.0
    r0 = _f(g.uniform(0.0, 0.08))
    rate = (_f(g.uniform(0.2, 3.0)), _f(g.uniform(0.01, 0.08)),
            _f(g.uniform(0.02, 0.3)), r0)
    if category.endswith("wild"):
        rho = _f(g.choice((-1.0, 1.0)) * g.uniform(0.7, 0.95))
        sigma = _f(math.sqrt(2.0 * kappa * theta * g.uniform(1.5, 6.0)))
    # Near-deterministic draws, log-uniform.  Where the amplification
    # 2 (kappa theta + v0) / sigma^2 (or its rate-side analogue) is below
    # 1e8 the direct exponent branch is taken; see README.md for the
    # quotes that fail there.
    if category == "heston_neardet":
        sigma = _f(10.0 ** g.uniform(-6.0, -4.0))
    if category in ("heston_lambda", "hybrid_wild"):
        lam = _f(g.uniform(max(-0.5, 0.2 - kappa), 1.5))
    if category == "hybrid_det":
        rate = rate[:2] + (0.0,) + rate[3:]
    if category == "hybrid_tiny":
        rate = rate[:2] + (_f(10.0 ** g.uniform(-6.0, math.log10(3e-5))),) \
            + rate[3:]
    T = _f(math.exp(g.uniform(math.log(0.02), math.log(30.0))))
    z = _f(g.uniform(-4.0, 4.0))
    log_m = z * math.sqrt(max(v0, theta) * T)
    k = round(100.0 * math.exp(r0 * T + max(-3.0, min(3.0, log_m))), 4)
    kind = "call" if g.random() < 0.5 else "put"
    model = "hybrid" if category.startswith("hybrid") else "heston"
    return Quote(model, (r0, kappa, theta, sigma, rho, v0, lam),
                 rate if model == "hybrid" else None, 100.0, k, T, kind,
                 category)


def scatter_ops(seed, smoke=False, n=None):
    """Every quote draws its own parameters and contract.

    Categories are stratified: each block of eight quotes holds one of
    each, in seeded order, so every seed gives the same branch mix.
    The first ``n`` quotes do not depend on ``n``.
    """
    g = _rng(seed, "scatter")
    n = n or (64 if smoke else SCATTER_OPS)
    ops = []
    while len(ops) < n:
        for c in g.permutation(len(SCATTER_CATEGORIES)):
            ops.append(_scatter_quote(g, SCATTER_CATEGORIES[c]))
    return ops[:n]


def mc_ops(seed, smoke=False):
    """Cycles of (Euler, antithetic Euler, averaged-rate) checks, each on
    its own market and near-the-money contract."""
    g = _rng(seed, "mc_verify")
    paths, steps = (2_000, 20) if smoke else (20_000, 100)
    ops = []
    for i in range(3 if smoke else 300):
        scheme = ("euler", "euler_anti", "hybrid")[i % 3]
        heston, rate = _market(g)
        T = _f(g.uniform(0.25, 2.0))
        k = round(100.0 * _f(g.uniform(0.85, 1.2)), 2)
        ops.append(McCheck(scheme, heston,
                           rate if scheme == "hybrid" else None, 100.0, k,
                           T, paths, steps // 2 if scheme == "hybrid"
                           else steps, int(g.integers(2**31))))
    return ops


DENSITY_GRIDS = ((0.25, 501), (1.0, 1001), (5.0, 2001), (10.0, 1001))
DENSITY_CROSS = ((1.0, 1.0), (0.5, 1.1), (2.0, 0.9))   # (T, moneyness)


def density_ops(seed, smoke=False):
    """Cycles of four density grids of different sizes and maturities and
    three price-via-density cross-checks, one market per cycle.

    The grid spans the bulk of the density, wider on the left where
    negative correlation fattens the tail, so its trapezoid mass tests
    normalization rather than truncation.
    """
    g = _rng(seed, "density")
    grids = ((0.25, 201), (1.0, 201)) if smoke else DENSITY_GRIDS
    ops = []
    for _ in range(1 if smoke else 100):
        heston, _rate = _market(g)
        theta, v0 = heston[2], heston[5]
        for T, n in grids:
            sd = math.sqrt(max(theta, v0) * T)
            mean = -0.5 * theta * T
            ops.append(DensityGrid(heston, T, round(mean - 24.0 * sd, 6),
                                   round(mean + 14.0 * sd, 6), n))
        for T, m in DENSITY_CROSS:
            k = round(100.0 * m * math.exp(heston[0] * T), 2)
            ops.append(DensityPrice(heston, 100.0, k, T))
    return ops


GENERATORS = {"chain": chain_ops, "scatter": scatter_ops,
              "mc_verify": mc_ops, "density": density_ops}

# Ops that make one indivisible unit: a timed run stops only at a block
# boundary, so every run measures whole cycles of a mixed schedule.
# scatter's unit is its whole schedule (see SCATTER_OPS).
BLOCK = {"chain": 1, "mc_verify": 3,
         "density": len(DENSITY_GRIDS) + len(DENSITY_CROSS)}


def block(workload, ops):
    return len(ops) if workload == "scatter" else BLOCK[workload]


def make_ops(workload, seed, smoke=False):
    return GENERATORS[workload](seed, smoke)


def first_op(workload, seed, smoke=False):
    if workload == "scatter":
        return scatter_ops(seed, smoke, n=1)[0]
    return make_ops(workload, seed, smoke)[0]


def cli_config(seed):
    """``hestoncir price`` config for the chain market of this seed."""
    heston, rate = _market(_rng(seed, "chain"))
    keys = ("mu", "kappa", "theta", "sigma", "rho", "v0", "lambda")
    return {
        "model": "heston_cir",
        "heston": dict(zip(keys, heston)),
        "rate": dict(zip(("kappa_r", "theta_r", "sigma_r", "r0"), rate)),
        "option": {"s0": 100.0, "strike": 100.0, "maturity": 1.0,
                   "kind": "call"},
        "quadrature": {"abs_tol": QUOTE_TOL, "rel_tol": QUOTE_TOL,
                       "max_evals": QUOTE_MAX_EVALS},
    }


# ------------------------------------------------------------- execution

def _heston(t):
    return hc.HestonParams(mu=t[0], kappa=t[1], theta=t[2], sigma=t[3],
                           rho=t[4], v0=t[5], lam=t[6])


def _rate(t):
    return hc.CirRateParams(kappa_r=t[0], theta_r=t[1], sigma_r=t[2],
                            r0=t[3])


def price_quote(op: Quote, cfg):
    opt = hc.VanillaOption(op.s0, op.strike, op.maturity, op.kind)
    p = _heston(op.heston)
    if op.model == "heston":
        return hc.heston_call_price(opt, p, op.heston[0], cfg)
    return hc.hybrid_call_price(opt, p, _rate(op.rate), cfg)


def _mc_check(op: McCheck, cfg):
    opt = hc.VanillaOption(op.s0, op.strike, op.maturity)
    p = _heston(op.heston)
    mc = hc.McConfig(op.paths, op.steps, op.mc_seed,
                     antithetic=op.scheme == "euler_anti")
    if op.scheme == "hybrid":
        rp = _rate(op.rate)
        est = hc.mc_price_hybrid(opt, p, rp, mc, cfg)
        closed = hc.hybrid_call_price(opt, p, rp, cfg)
    else:
        est = hc.mc_price_heston_euler(opt, p, op.heston[0], mc)
        closed = hc.heston_call_price(opt, p, op.heston[0], cfg)
    return closed, est.mean, est.std_error


def _density_grid(op: DensityGrid, cfg):
    xs = np.linspace(op.lo, op.hi, op.n)
    dens = hc.marginal_density_grid(xs, op.maturity, _heston(op.heston), cfg)
    return float(np.trapezoid(dens, xs))


def _density_price(op: DensityPrice, cfg):
    opt = hc.VanillaOption(op.s0, op.strike, op.maturity)
    p = _heston(op.heston)
    return (hc.price_via_density(opt, p, op.heston[0], cfg),
            hc.heston_call_price(opt, p, op.heston[0], cfg))


def run_op(op, cfg):
    """Execute one op; the return value is what the checks inspect."""
    if isinstance(op, Quote):
        return price_quote(op, cfg)
    if isinstance(op, McCheck):
        return _mc_check(op, cfg)
    if isinstance(op, DensityGrid):
        return _density_grid(op, cfg)
    return _density_price(op, cfg)


# ---------------------------------------------------------------- checks

def discount(op: Quote):
    """Discount factor (bond price) that enters the no-arbitrage bounds."""
    T = op.maturity
    if op.model == "heston":
        return math.exp(-op.heston[0] * T)
    rp = _rate(op.rate)
    if rp.sigma_r == 0.0:
        return math.exp(-T * hc.deterministic_average_rate(rp, T))
    return hc.cir_bond_price(rp, T)


def check_quote(op: Quote, price, reference, disc):
    """None if the quote passes, else the reason it failed."""
    tol = PRICE_ABS_TOL * op.s0
    if not math.isfinite(price):
        return "non-finite price %r" % price
    if abs(price - reference) > tol:
        return "price %.12g differs from reference %.12g by %.3e" % (
            price, reference, price - reference)
    kd = op.strike * disc
    if op.kind == "call":
        lo, hi = max(op.s0 - kd, 0.0), op.s0
    else:
        lo, hi = max(kd - op.s0, 0.0), kd
    if not lo - tol <= price <= hi + tol:
        return "price %.12g outside no-arbitrage bounds [%.12g, %.12g]" % (
            price, lo, hi)
    return None


def check_other(op, result):
    """Checks that need no reference: MC z-test and density checks."""
    if isinstance(op, McCheck):
        closed, mean, se = result
        z = (closed - mean) / se if se > 0 else math.inf
        if not abs(z) <= MC_Z_LIMIT:
            return "z = %.3f (closed %.10g, mc %.10g +- %.3g)" % (
                z, closed, mean, se)
        return None
    if isinstance(op, DensityGrid):
        if not abs(result - 1.0) <= MASS_TOL:
            return "grid mass %.12g is off 1 by %.3e" % (result, result - 1)
        return None
    via, closed = result
    if not abs(via - closed) <= CROSS_REL_TOL * abs(closed):
        return "price_via_density %.12g vs heston_call_price %.12g" % (
            via, closed)
    return None
