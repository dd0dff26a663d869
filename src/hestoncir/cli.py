"""Command-line surface: price, curve, density, verify.

Configuration is a single JSON document; see the README for the schema.
Each block's keys are its record's field names (heston's ``lambda`` is
``HestonParams.lam``), so the records own the names, the defaults and
the validation.  ``verify`` dispatches to :mod:`hestoncir.mc`, whose
three routes share one block and stream rule.
Exit codes: 0 success, 2 malformed config, 3 numerical failure,
4 unwritable output path, 5 verification failure (|z| > 3).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from .heston import PricingError, heston_price_with_diagnostics, \
    marginal_density_grid
from .hybrid import hybrid_price_with_diagnostics
from .mc import McConfig, McEstimate, mc_price_bs, mc_price_heston_euler, \
    mc_price_hybrid
from .models import CirRateParams, HestonParams, VanillaOption, bs_price
from .numerics import QuadratureConfig, QuadratureError, QuadratureResult

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_UNWRITABLE = 4
EXIT_VERIFY = 5

_MODELS = ("bs", "heston", "heston_cir")
_RECORDS = {"heston": HestonParams, "option": VanillaOption,
            "rate": CirRateParams, "quadrature": QuadratureConfig,
            "mc": McConfig}
_KEYS = {"model", "output_path", *_RECORDS}


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


def _record(raw, name, required=False):
    """The record of config block ``name``, or None if it is absent."""
    block = raw.get(name)
    if block is None:
        if required:
            raise ConfigError("config is missing required block %r" % name)
        return None
    if not isinstance(block, dict):
        raise ConfigError("config block %r must be an object" % name)
    if name == "heston":
        block = {"lam" if k == "lambda" else k: v for k, v in block.items()}
        if len(block) < len(raw[name]):
            raise ConfigError("config block 'heston' sets lam twice, as "
                              "'lambda' and as 'lam'")
    try:
        return _RECORDS[name](**block)
    except (TypeError, ValueError) as exc:
        raise ConfigError("invalid config block %r: %s" % (name, exc))


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
    unknown = sorted(set(raw) - _KEYS)
    if unknown:
        raise ConfigError("unknown config key(s) %s; expected %s"
                          % (unknown, sorted(_KEYS)))

    model = raw.get("model")
    if model not in _MODELS:
        raise ConfigError("model must be one of %s, got %r" % (_MODELS, model))
    output_path = raw.get("output_path")
    if output_path is not None and not isinstance(output_path, str):
        raise ConfigError("output_path must be a string, got %r"
                          % (output_path,))
    rate = _record(raw, "rate")
    if model == "heston_cir" and rate is None:
        raise ConfigError("model 'heston_cir' requires a 'rate' block")

    return RunConfig(model=model,
                     heston=_record(raw, "heston", required=True),
                     option=_record(raw, "option", required=True),
                     quadrature=_record(raw, "quadrature")
                     or QuadratureConfig(),
                     rate=rate, mc=_record(raw, "mc"),
                     output_path=output_path)


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
    if cfg.model == "bs":
        return mc_price_bs(cfg.option, cfg.heston.mu,
                           math.sqrt(cfg.heston.v0), cfg.mc)
    if cfg.model == "heston":
        return mc_price_heston_euler(
            cfg.option, cfg.heston, cfg.heston.mu, cfg.mc)
    return mc_price_hybrid(
        cfg.option, cfg.heston, cfg.rate, cfg.mc, cfg.quadrature)


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
        cfg.mc = replace(cfg.mc, seed=args.seed)
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
