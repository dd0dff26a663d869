import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import trapezoid

import hestoncir
from hestoncir import (
    CirRateParams,
    HestonParams,
    VanillaOption,
    deterministic_average_rate,
    heston_call_price,
    hybrid_call_price,
    hybrid_price_with_diagnostics,
    marginal_density_grid,
)
from hestoncir.cli import ConfigError, main, parse_run_config

FIG1 = {
    "model": "heston_cir",
    "heston": {"mu": 0.03, "kappa": 1.0, "theta": 0.04, "sigma": 0.2,
               "rho": -0.5, "v0": 0.04},
    "rate": {"kappa_r": 1.8, "theta_r": 0.03, "sigma_r": 0.1,
             "r0": 0.035},
    "option": {"s0": 100.0, "strike": 100.0, "maturity": 1.0},
}


def write_config(tmp_path, overrides=None, name="cfg.json"):
    cfg = json.loads(json.dumps(FIG1))
    for key, val in (overrides or {}).items():
        if isinstance(val, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        cfg = parse_run_config(write_config(tmp_path))
        assert cfg.model == "heston_cir"
        assert cfg.heston == HestonParams(mu=0.03, kappa=1.0, theta=0.04,
                                          sigma=0.2, rho=-0.5, v0=0.04)
        assert cfg.rate == CirRateParams(kappa_r=1.8, theta_r=0.03,
                                         sigma_r=0.1, r0=0.035)
        assert cfg.option == VanillaOption(100.0, 100.0, 1.0)

    def test_lambda_key_maps_to_risk_premium(self, tmp_path):
        path = write_config(tmp_path, {"heston": {"lambda": 0.5}})
        assert parse_run_config(path).heston.lam == 0.5

    def test_rate_block_required_for_hybrid_model(self, tmp_path):
        cfg = json.loads(json.dumps(FIG1))
        del cfg["rate"]
        path = tmp_path / "norate.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError):
            parse_run_config(str(path))

    def test_invalid_parameter_value(self, tmp_path):
        path = write_config(tmp_path, {"heston": {"theta": -0.04}})
        with pytest.raises(ConfigError):
            parse_run_config(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            parse_run_config(str(path))


class TestExitCodes:
    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"heston": {"theta": -0.04}})
        assert main(["price", "--config", path]) == 2

    def test_nan_parameter_exits_2(self, tmp_path, capsys):
        # Python's json reads NaN; the parameter check must reject it
        # before any pricing is attempted
        path = write_config(tmp_path, {"heston": {"v0": math.nan}})
        assert main(["price", "--config", path]) == 2
        assert "v0 must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["abs_tol", "rel_tol",
                                       "truncation_bound"])
    def test_nan_quadrature_setting_exits_2(self, tmp_path, capsys, field):
        # Python's json reads NaN; a NaN tolerance fails every comparison,
        # so an unconverged integral would read as converged
        path = write_config(tmp_path, {"quadrature": {field: math.nan}})
        assert main(["price", "--config", path]) == 2
        assert "%s must be finite" % field in capsys.readouterr().err

    @pytest.mark.parametrize("block, field, value", [
        ("quadrature", "max_evals", 600.0),
        ("mc", "paths", 1e3),
        ("mc", "steps", 1e1),
        ("mc", "seed", 1.0),
        ("mc", "paths", True),
    ])
    def test_non_integer_count_exits_2(self, tmp_path, capsys, block, field,
                                       value):
        # JSON reads 1e3 as a float; a count that is not an integer is a
        # malformed config, not a traceback
        overrides = {"mc": {"paths": 100, "steps": 10}}
        overrides.setdefault(block, {})[field] = value
        path = write_config(tmp_path, overrides)
        assert main(["verify", "--config", path]) == 2
        assert "%s must be an integer" % field in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["false", 0])
    def test_non_bool_antithetic_exits_2(self, tmp_path, capsys, value):
        # JSON's "false" is a string, and a truthy one
        path = write_config(tmp_path, {"mc": {"paths": 100, "steps": 10,
                                              "antithetic": value}})
        assert main(["verify", "--config", path]) == 2
        assert "antithetic must be a bool" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--threads", "2"], ["--seed", "1"]])
    def test_flags_of_no_effect_exit_2(self, tmp_path, capsys, flag):
        # price reads neither; only verify takes --seed
        path = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["price", "--config", path] + flag)
        assert exc.value.code == 2

    @pytest.mark.parametrize("model", ["bs", "heston_cir"])
    def test_antithetic_of_no_effect_exits_2(self, tmp_path, capsys, model):
        # only the Euler route of model heston mirrors its paths
        path = write_config(tmp_path, {"model": model,
                                       "mc": {"paths": 100, "steps": 10,
                                              "antithetic": True}})
        assert main(["verify", "--config", path]) == 2
        assert "mc.antithetic has no effect for model %r" % model \
            in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, key", [
        ({"heston": {"lamda": 0.5}}, "lamda"),
        ({"quadrature": {"abs_tl": 1e-6}}, "abs_tl"),
        ({"quadrture": {"abs_tol": 1e-6}}, "quadrture"),
    ], ids=["heston", "quadrature", "top-level"])
    def test_misspelled_key_exits_2_naming_it(self, tmp_path, capsys,
                                              overrides, key):
        # each was ignored: the price ran at the defaults and exited 0
        path = write_config(tmp_path, overrides)
        assert main(["price", "--config", path]) == 2
        assert repr(key) in capsys.readouterr().err

    def test_lambda_and_lam_together_exit_2(self, tmp_path, capsys):
        # the renamed key and the field name would overwrite each other
        path = write_config(tmp_path, {"heston": {"lambda": 0.5, "lam": 0.1}})
        assert main(["price", "--config", path]) == 2
        assert "sets lam twice" in capsys.readouterr().err

    def test_block_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"quadrature": [1]})
        assert main(["price", "--config", path]) == 2
        assert "'quadrature' must be an object" in capsys.readouterr().err

    def test_non_string_output_path_exits_2_writing_nothing(self, tmp_path):
        # open(2, "w") wrote the CSV to standard error and exited 0; a
        # child process keeps that from closing this one's stderr
        path = write_config(tmp_path, {"output_path": 2})
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(hestoncir.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "hestoncir.cli", "curve", "--config", path,
             "--strikes", "90:110:3"],
            capture_output=True, text=True, cwd=tmp_path, env=env)
        assert proc.returncode == 2
        assert "output_path must be a string" in proc.stderr
        assert "strike," not in proc.stdout + proc.stderr
        assert [f.name for f in tmp_path.iterdir()] == ["cfg.json"]

    def test_missing_rate_exits_2(self, tmp_path):
        cfg = json.loads(json.dumps(FIG1))
        del cfg["rate"]
        path = tmp_path / "norate.json"
        path.write_text(json.dumps(cfg))
        assert main(["price", "--config", str(path)]) == 2

    def test_unwritable_output_exits_4(self, tmp_path):
        path = write_config(tmp_path)
        code = main(["curve", "--config", path,
                     "--strikes", "90:110:3",
                     "--out", "/nonexistent-dir/curve.csv"])
        assert code == 4

    def test_entry_point_runs(self, tmp_path):
        path = write_config(tmp_path, {"model": "heston"})
        proc = subprocess.run(
            [sys.executable, "-m", "hestoncir.cli", "price",
             "--config", path],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["model"] == "heston"


class TestPriceCommand:
    def test_hybrid_price_matches_library(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["price", "--config", path]) == 0
        record = json.loads(capsys.readouterr().out)
        p = HestonParams(**{k if k != "lambda" else "lam": v
                            for k, v in FIG1["heston"].items()})
        rp = CirRateParams(**FIG1["rate"])
        ref = hybrid_call_price(VanillaOption(100.0, 100.0, 1.0), p, rp)
        assert record["price"] == ref
        assert record["error_estimate"] > 0
        assert record["evaluations"] > 0
        _, res = hybrid_price_with_diagnostics(
            VanillaOption(100.0, 100.0, 1.0), p, rp)
        assert record["integrand_calls"] == res.integrand_calls > 0
        assert record["window"] == res.window >= 100.0

    def test_deep_strike_collapses_to_spot(self, tmp_path, capsys):
        path = write_config(tmp_path,
                            {"model": "heston",
                             "option": {"strike": 1e-8}})
        assert main(["price", "--config", path]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["price"] == pytest.approx(100.0, abs=1e-6)


class TestCurveCommand:
    def test_header_and_reruns_are_identical(self, tmp_path):
        path = write_config(tmp_path)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            assert main(["curve", "--config", path,
                         "--strikes", "80:120:5", "--out", str(out)]) == 0
        text = out1.read_text()
        lines = text.splitlines()
        assert lines[0] == "strike,bs_r0,bs_theta_r,heston_r0," \
                           "heston_theta_r,hybrid"
        assert len(lines) == 6
        assert text == out2.read_text()

    def test_column_values(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "c.csv"
        assert main(["curve", "--config", path,
                     "--strikes", "100:100:1", "--out", str(out)]) == 0
        row = out.read_text().splitlines()[1].split(",")
        p = HestonParams(mu=0.03, kappa=1.0, theta=0.04, sigma=0.2,
                         rho=-0.5, v0=0.04)
        rp = CirRateParams(**FIG1["rate"])
        opt = VanillaOption(100.0, 100.0, 1.0)
        assert float(row[0]) == 100.0
        assert float(row[3]) == pytest.approx(
            heston_call_price(opt, p, rp.r0), rel=1e-12)
        assert float(row[4]) == pytest.approx(
            heston_call_price(opt, p, rp.theta_r), rel=1e-12)
        assert float(row[5]) == pytest.approx(
            hybrid_call_price(opt, p, rp), rel=1e-12)

    @pytest.mark.parametrize("spec", ["90:inf:3", "-10:100:3", "0:100:3",
                                      "nan:100:3"])
    def test_bad_strikes_exit_2_before_writing(self, tmp_path, capsys, spec):
        path = write_config(tmp_path)
        out = tmp_path / "bad.csv"
        assert main(["curve", "--config", path, "--strikes=" + spec,
                     "--out", str(out)]) == 2
        assert "--strikes" in capsys.readouterr().err
        assert not out.exists()

    def test_twelve_significant_digits(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "d.csv"
        main(["curve", "--config", path, "--strikes", "95:105:2",
              "--out", str(out)])
        for line in out.read_text().splitlines()[1:]:
            for cell in line.split(","):
                assert float(cell) == float("%.12g" % float(cell))
                mantissa = cell.lstrip("-0.").replace(".", "")
                assert len(mantissa.split("e")[0]) <= 12


class TestDensityCommand:
    def test_normalization_footer(self, tmp_path):
        path = write_config(tmp_path, {"model": "heston"})
        out = tmp_path / "dens.csv"
        assert main(["density", "--config", path,
                     "--xrange=-3:3:2001", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,density"
        assert len(lines) == 2003
        tag, norm = lines[-1].split(",")
        assert tag == "# normalization"
        assert abs(float(norm) - 1.0) <= 1e-4
        dens = np.array([float(l.split(",")[1]) for l in lines[1:-1]])
        assert np.all(dens >= -1e-12)

    def test_normalization_without_np_trapezoid(self, tmp_path,
                                                monkeypatch):
        # numpy < 2.0 has no np.trapezoid; the footer must not need it
        path = write_config(tmp_path, {"model": "heston"})
        cfg = parse_run_config(path)
        xs = np.linspace(-3.0, 3.0, 2001)
        dens = marginal_density_grid(xs, 1.0, cfg.heston, cfg.quadrature)
        footer = "# normalization,%.12g" % trapezoid(dens, xs)
        monkeypatch.delattr(np, "trapezoid", raising=False)
        out = tmp_path / "dens.csv"
        assert main(["density", "--config", path,
                     "--xrange=-3:3:2001", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[-1] == footer

    @pytest.mark.parametrize("spec", ["-inf:1:10", "-1:inf:10",
                                      "nan:1:10"])
    def test_non_finite_range_exits_2(self, tmp_path, capsys, spec):
        path = write_config(tmp_path, {"model": "heston"})
        out = tmp_path / "bad.csv"
        assert main(["density", "--config", path, "--xrange=" + spec,
                     "--out", str(out)]) == 2
        assert "--xrange" in capsys.readouterr().err
        assert not out.exists()

    def test_correlation_flips_the_skew(self, tmp_path):
        def third_moment(rho):
            path = write_config(tmp_path, {"model": "heston",
                                           "heston": {"rho": rho}},
                                name="cfg_%s.json" % rho)
            out = tmp_path / ("skew_%s.csv" % rho)
            main(["density", "--config", path,
                  "--xrange=-2:2:801", "--out", str(out)])
            rows = [l.split(",") for l
                    in out.read_text().splitlines()[1:-1]]
            xs = np.array([float(r[0]) for r in rows])
            ds = np.array([float(r[1]) for r in rows])
            mean = trapezoid(xs * ds, xs)
            return trapezoid((xs - mean) ** 3 * ds, xs)

        assert third_moment(-0.5) < 0.0 < third_moment(0.5)


class TestVerifyCommand:
    def test_degenerate_rate_gives_zero_z(self, tmp_path, capsys):
        path = write_config(tmp_path,
                            {"rate": {"sigma_r": 0.0},
                             "mc": {"paths": 100, "steps": 10, "seed": 1}})
        assert main(["verify", "--config", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["z_score"] == 0.0
        assert report["mc_std_error"] == 0.0

    def test_hybrid_agreement(self, tmp_path, capsys):
        path = write_config(tmp_path,
                            {"mc": {"paths": 4000, "steps": 500,
                                    "seed": 3}})
        assert main(["verify", "--config", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["z_score"]) <= 3.0
        assert report["mc_std_error"] > 0.0

    @pytest.mark.parametrize("kind", ["call", "put"])
    def test_black_scholes_agreement(self, tmp_path, capsys, kind):
        path = write_config(tmp_path,
                            {"model": "bs", "option": {"kind": kind},
                             "mc": {"paths": 20_000, "steps": 1, "seed": 5}})
        assert main(["verify", "--config", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["z_score"]) <= 3.0
        assert report["mc_std_error"] > 0.0
        assert report["paths"] == 20_000

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        path = write_config(tmp_path,
                            {"mc": {"paths": 2000, "steps": 100,
                                    "seed": 3}})
        main(["verify", "--config", path, "--seed", "99"])
        first = json.loads(capsys.readouterr().out)
        main(["verify", "--config", path, "--seed", "99"])
        second = json.loads(capsys.readouterr().out)
        assert first == second
