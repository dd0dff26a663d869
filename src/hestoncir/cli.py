"""Command-line surface: price, curve, density, verify.

Configuration is a single JSON document; see the README for the schema.
Exit codes: 0 success, 2 malformed config, 3 numerical failure,
4 unwritable output path, 5 verification failure (|z| > 3).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from .heston import PricingError, heston_price_with_diagnostics, \
    marginal_density_grid
from .hybrid import hybrid_price_with_diagnostics
from .mc import McConfig, McEstimate, RngStream, mc_price_heston_euler, \
    mc_price_hybrid
from .models import CirRateParams, HestonParams, VanillaOption, bs_price
from .numerics import QuadratureConfig, QuadratureError, QuadratureResult

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_UNWRITABLE = 4
EXIT_VERIFY = 5

_MODELS = ("bs", "heston", "heston_cir")


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    model: str
    heston: HestonParams
    option: VanillaOption
    quadrature: QuadratureConfig
    rate: CirRateParams | None = None
    mc: McConfig | None = None
    output_path: str | None = None


def _require(block, name):
    if block is None:
        raise ConfigError("config is missing required block %r" % name)
    if not isinstance(block, dict):
        raise ConfigError("config block %r must be an object" % name)
    return block


def parse_run_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config: %s" % exc)
    except json.JSONDecodeError as exc:
        raise ConfigError("config is not valid JSON: %s" % exc)
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")

    model = raw.get("model")
    if model not in _MODELS:
        raise ConfigError("model must be one of %s, got %r" % (_MODELS, model))

    try:
        h = _require(raw.get("heston"), "heston")
        heston = HestonParams(
            mu=h["mu"], kappa=h["kappa"], theta=h["theta"],
            sigma=h["sigma"], rho=h["rho"], v0=h["v0"],
            lam=h.get("lambda", 0.0))
        o = _require(raw.get("option"), "option")
        option = VanillaOption(
            s0=o["s0"], strike=o["strike"], maturity=o["maturity"],
            kind=o.get("kind", "call"))
        rate = None
        if raw.get("rate") is not None:
            rb = _require(raw.get("rate"), "rate")
            rate = CirRateParams(
                kappa_r=rb["kappa_r"], theta_r=rb["theta_r"],
                sigma_r=rb["sigma_r"], r0=rb["r0"])
        q = raw.get("quadrature") or {}
        quadrature = QuadratureConfig(
            abs_tol=q.get("abs_tol", 1e-9),
            rel_tol=q.get("rel_tol", 1e-9),
            max_evals=q.get("max_evals", 500_000),
            truncation_bound=q.get("truncation_bound", 100.0))
        mc = None
        if raw.get("mc") is not None:
            mb = _require(raw.get("mc"), "mc")
            mc = McConfig(paths=mb["paths"], steps=mb["steps"],
                          seed=mb.get("seed", 0),
                          antithetic=mb.get("antithetic", False))
    except KeyError as exc:
        raise ConfigError("config is missing field %s" % exc)
    except (TypeError, ValueError) as exc:
        raise ConfigError("invalid config value: %s" % exc)

    if model == "heston_cir" and rate is None:
        raise ConfigError("model 'heston_cir' requires a 'rate' block")

    return RunConfig(model=model, heston=heston, option=option,
                     quadrature=quadrature, rate=rate, mc=mc,
                     output_path=raw.get("output_path"))


def _fmt(x: float) -> str:
    return "%.12g" % x


def _analytic_price(cfg: RunConfig):
    """(price, QuadratureResult) for the configured model; Black-Scholes
    reports an exact result with no evaluations."""
    if cfg.model == "bs":
        price = bs_price(cfg.option, cfg.heston.mu, math.sqrt(cfg.heston.v0))
        return price, QuadratureResult(0j, 0.0, 0, True)
    if cfg.model == "heston":
        return heston_price_with_diagnostics(
            cfg.option, cfg.heston, cfg.heston.mu, cfg.quadrature)
    return hybrid_price_with_diagnostics(
        cfg.option, cfg.heston, cfg.rate, cfg.quadrature)


def _mc_price(cfg: RunConfig) -> McEstimate:
    if cfg.model == "heston":
        return mc_price_heston_euler(
            cfg.option, cfg.heston, cfg.heston.mu, cfg.mc)
    if cfg.model == "heston_cir":
        return mc_price_hybrid(
            cfg.option, cfg.heston, cfg.rate, cfg.mc, cfg.quadrature)
    # bs: exact lognormal terminal sampling
    opt, r = cfg.option, cfg.heston.mu
    vol = math.sqrt(cfg.heston.v0)
    gen = RngStream(cfg.mc.seed, 0).generator
    z = gen.standard_normal(cfg.mc.paths)
    st = opt.s0 * np.exp((r - 0.5 * vol * vol) * opt.maturity
                         + vol * math.sqrt(opt.maturity) * z)
    pay = np.maximum(st - opt.strike, 0.0) if opt.kind == "call" \
        else np.maximum(opt.strike - st, 0.0)
    pay *= math.exp(-r * opt.maturity)
    return McEstimate(float(np.mean(pay)),
                      float(np.std(pay, ddof=1) / math.sqrt(len(pay))),
                      cfg.mc.paths, cfg.mc.seed)


def _parse_range(spec: str, what: str):
    try:
        lo_s, hi_s, n_s = spec.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError:
        raise ConfigError("%s must look like lo:hi:n, got %r" % (what, spec))
    if not (math.isfinite(lo) and math.isfinite(hi)) or n < 1 or hi < lo \
            or (n > 1 and not hi > lo):
        raise ConfigError("%s needs finite hi >= lo and n >= 1, got %r"
                          % (what, spec))
    return lo, hi, n


class _OutputError(Exception):
    pass


def _open_out(path):
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise _OutputError("cannot write %s: %s" % (path, exc))


def cmd_price(args) -> int:
    cfg = parse_run_config(args.config)
    t0 = time.perf_counter()
    price, res = _analytic_price(cfg)
    record = {
        "model": cfg.model,
        "price": price,
        "error_estimate": res.error_estimate,
        "evaluations": res.evaluations,
        "integrand_calls": res.integrand_calls,
        "window": res.window,
        "wall_time": time.perf_counter() - t0,
    }
    print(json.dumps(record))
    return 0


def cmd_curve(args) -> int:
    cfg = parse_run_config(args.config)
    if cfg.rate is None:
        raise ConfigError("curve requires a 'rate' block (the reference "
                          "columns use r0 and theta_r)")
    lo, hi, n = _parse_range(args.strikes, "--strikes")
    if not lo > 0:
        raise ConfigError("--strikes needs positive strikes, got %r"
                          % args.strikes)
    p, rp, opt0 = cfg.heston, cfg.rate, cfg.option
    vol = math.sqrt(p.v0)
    out = _open_out(args.out or cfg.output_path or "curve.csv")
    with out:
        out.write("strike,bs_r0,bs_theta_r,heston_r0,heston_theta_r,hybrid\n")
        for strike in np.linspace(lo, hi, n):
            opt = VanillaOption(opt0.s0, float(strike), opt0.maturity,
                                opt0.kind)
            # the two constant-rate columns are one integral, a column each
            heston_r0, heston_theta_r = heston_price_with_diagnostics(
                opt, p, [rp.r0, rp.theta_r], cfg.quadrature)[0]
            row = [
                float(strike),
                bs_price(opt, rp.r0, vol),
                bs_price(opt, rp.theta_r, vol),
                heston_r0,
                heston_theta_r,
                hybrid_price_with_diagnostics(opt, p, rp,
                                              cfg.quadrature)[0],
            ]
            out.write(",".join(_fmt(v) for v in row) + "\n")
    return 0


def cmd_density(args) -> int:
    cfg = parse_run_config(args.config)
    lo, hi, n = _parse_range(args.xrange, "--xrange")
    xs = np.linspace(lo, hi, n)
    dens = marginal_density_grid(xs, cfg.option.maturity, cfg.heston,
                                 cfg.quadrature)
    out = _open_out(args.out or cfg.output_path or "density.csv")
    with out:
        out.write("x,density\n")
        for x, d in zip(xs, dens):
            out.write("%s,%s\n" % (_fmt(float(x)), _fmt(float(d))))
        # explicit trapezoid sum: np.trapezoid needs numpy >= 2.0
        mass = 0.5 * (dens[1:] + dens[:-1]) @ np.diff(xs)
        out.write("# normalization,%s\n" % _fmt(float(mass)))
    return 0


def cmd_verify(args) -> int:
    cfg = parse_run_config(args.config)
    if cfg.mc is None:
        raise ConfigError("verify requires an 'mc' block")
    if cfg.mc.antithetic and cfg.model != "heston":
        # the averaged-rate and exact lognormal routes draw no Euler paths
        raise ConfigError("mc.antithetic has no effect for model %r; only "
                          "the Euler route of model 'heston' reads it"
                          % cfg.model)
    if args.seed is not None:
        cfg.mc = McConfig(cfg.mc.paths, cfg.mc.steps, args.seed,
                          cfg.mc.antithetic)
    analytic, _ = _analytic_price(cfg)
    est = _mc_price(cfg)
    if est.std_error == 0.0:
        z = 0.0 if abs(analytic - est.mean) <= 1e-12 * cfg.option.s0 \
            else math.inf
    else:
        z = (analytic - est.mean) / est.std_error
    report = {
        "model": cfg.model,
        "analytic": analytic,
        "mc_mean": est.mean,
        "mc_std_error": est.std_error,
        "paths": est.paths,
        "z_score": z,
    }
    print(json.dumps(report))
    return 0 if abs(z) <= 3.0 else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hestoncir",
        description="Vanilla option pricing under Heston and Heston+CIR "
                    "stochastic rates, with Monte Carlo verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="JSON config path")

    sp = sub.add_parser("price", help="print one price record")
    common(sp)
    sp.set_defaults(func=cmd_price)

    sp = sub.add_parser("curve", help="CSV of prices across strikes")
    common(sp)
    sp.add_argument("--strikes", required=True, metavar="lo:hi:n")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_curve)

    sp = sub.add_parser("density", help="CSV of the logreturn density")
    common(sp)
    sp.add_argument("--xrange", required=True, metavar="lo:hi:n")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_density)

    sp = sub.add_parser("verify", help="analytic vs Monte Carlo z-test")
    common(sp)
    sp.add_argument("--seed", type=int, default=None,
                    help="override mc.seed")
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except (PricingError, QuadratureError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL
    except _OutputError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_UNWRITABLE


if __name__ == "__main__":
    sys.exit(main())
