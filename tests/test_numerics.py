import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import trapezoid

from hestoncir import (
    CirRateParams,
    HestonParams,
    QuadratureConfig,
    QuadratureResult,
    RngStream,
    VanillaOption,
    heston_price_with_diagnostics,
    hybrid_price_with_diagnostics,
    integrate_half_line,
    integrate_interval,
    integrate_real_line,
    price_integrand,
    sample_noncentral_chisq,
)
from hestoncir.numerics import _gk_panels, _half_line, _Panels


class TestIntegrateRealLine:
    def test_gaussian(self):
        res = integrate_real_line(lambda l: np.exp(-l * l), QuadratureConfig())
        assert res.converged
        assert abs(res.value - np.sqrt(np.pi)) <= 1e-9

    def test_lorentzian(self):
        res = integrate_real_line(lambda l: 1.0 / (1.0 + l * l),
                                  QuadratureConfig())
        assert res.converged
        assert abs(res.value - np.pi) <= 1e-9

    def test_pricing_integrand_vs_trapezoid_oracle(self, fig1_heston,
                                                   atm_option):
        # Independent check of the adaptive result: brute-force trapezoid
        # sum over [-200, 200] with 10^6 points.  The node count is even so
        # l = 0 is never sampled (the integrand there is a removable 0/0).
        f = lambda l: price_integrand(l, atm_option, fig1_heston, 0.03)
        res = integrate_real_line(f, QuadratureConfig())
        grid = np.linspace(-200.0, 200.0, 1_000_000)
        oracle = trapezoid(f(grid), grid)
        assert res.converged
        assert abs(res.value - oracle) <= 1e-8 * (1.0 + abs(oracle))

    def test_columns_match_their_own_integrals(self):
        gauss = lambda l: np.exp(-l * l)
        lorentz = lambda l: 1.0 / (1.0 + l * l)
        both = integrate_real_line(
            lambda l: np.stack([gauss(l), lorentz(l)], axis=1),
            QuadratureConfig())
        assert both.converged and both.value.shape == (2,)
        for j, f in enumerate((gauss, lorentz)):
            alone = integrate_real_line(f, QuadratureConfig())
            assert abs(both.value[j] - alone.value) <= 1e-9
        assert abs(both.value[0] - np.sqrt(np.pi)) <= 1e-9
        assert abs(both.value[1] - np.pi) <= 1e-9

    def test_a_column_short_of_budget_fails_the_integral(self):
        # 600 evaluations converge the Gaussian alone, not the Lorentzian
        cfg = QuadratureConfig(max_evals=600)
        assert integrate_real_line(lambda l: np.exp(-l * l), cfg).converged
        both = integrate_real_line(
            lambda l: np.stack([np.exp(-l * l), 1.0 / (1.0 + l * l)],
                               axis=1), cfg)
        assert both.evaluations <= 600
        assert both.converged is False

    def test_panel_errors_are_per_column(self):
        cols = (lambda l: np.exp(-l * l), lambda l: 1.0 / (1.0 + l * l))
        a, b = np.array([-3.0, 0.0, 1.0]), np.array([0.0, 1.0, 7.0])
        vals, errs = _gk_panels(
            lambda l: np.stack([f(l) for f in cols], axis=1), a, b)
        alone = [_gk_panels(f, a, b) for f in cols]
        for j, (val, err) in enumerate(alone):
            np.testing.assert_allclose(vals[:, j], val, rtol=1e-14)
            # |kronrod - gauss| of values near 1 differs by rounding
            np.testing.assert_allclose(errs[:, j], err, rtol=1e-12,
                                       atol=1e-15)
        # the columns' worst panels differ, so no column's errors stand
        # for the other's
        assert not np.allclose(errs[:, 0], errs[:, 1], rtol=1e-12)

    def test_tolerance_binds_the_smallest_column(self):
        # rel_tol applies to min_j |value_j|: a column a thousand times
        # smaller is held to its own relative tolerance
        cfg = QuadratureConfig(abs_tol=1e-20, rel_tol=1e-9)
        res = integrate_real_line(
            lambda l: np.exp(-l * l)[:, None] * np.array([1e3, 1.0]), cfg)
        assert res.converged
        assert res.error_estimate[1] <= 1e-9 * abs(res.value[1])

    def test_columns_of_very_different_size_converge_as_alone(self):
        # each column meets its own max(abs_tol, rel_tol |value_j|), so
        # the small column no longer holds the large one to an absolute
        # 1e-9 it cannot reach; that spent the whole 500,000 budget
        cfg = QuadratureConfig(abs_tol=1e-20)
        scales = np.array([1e6, 1.0])
        both = integrate_real_line(
            lambda l: np.exp(-l * l)[:, None] * scales, cfg)
        alone = [integrate_real_line(lambda l, s=s: s * np.exp(-l * l), cfg)
                 for s in scales]
        assert both.converged
        assert both.evaluations <= max(a.evaluations for a in alone)
        for j, s in enumerate(scales):
            assert abs(both.value[j] - s * np.sqrt(np.pi)) \
                <= 1e-9 * s * np.sqrt(np.pi)
            assert both.error_estimate[j] <= 1e-9 * abs(both.value[j])

    @pytest.mark.parametrize("which", ["gauss", "lorentz", "price"])
    def test_one_column_takes_the_single_column_panels(self, which,
                                                       fig1_heston,
                                                       atm_option):
        f = {"gauss": lambda l: np.exp(-l * l),
             "lorentz": lambda l: 1.0 / (1.0 + l * l),
             "price": lambda l: price_integrand(l, atm_option, fig1_heston,
                                                0.03)}[which]
        for cfg in (QuadratureConfig(),
                    QuadratureConfig(abs_tol=1e-12, rel_tol=1e-13)):
            single = integrate_real_line(f, cfg)
            column = integrate_real_line(lambda l: f(l)[:, None], cfg)
            assert column.evaluations == single.evaluations
            assert column.integrand_calls == single.integrand_calls
            assert abs(column.value[0] - single.value) \
                <= 1e-14 * abs(single.value)

    def test_polynomial_exactness_on_interval(self):
        # A single Gauss-Kronrod panel is exact for polynomials well past
        # degree 7; integrate x^6 over [0, 2] and compare the closed form.
        res = integrate_interval(lambda x: x ** 6, 0.0, 2.0,
                                 QuadratureConfig())
        assert abs(res.value - 2.0 ** 7 / 7.0) <= 1e-12

    def test_domain_growth_is_benign(self):
        # Starting truncation bound must not matter once converged.
        f = lambda l: np.exp(-0.5 * l * l)
        r1 = integrate_real_line(f, QuadratureConfig(truncation_bound=1.0))
        r2 = integrate_real_line(f, QuadratureConfig(truncation_bound=100.0))
        assert r1.converged and r2.converged
        assert abs(r1.value - r2.value) <= 2e-9

    def test_symmetric_imaginary_part_cancels(self, fig1_heston, atm_option):
        # f(-l) = conj(f(l)) for the pricing integrand, so the imaginary
        # part of the full-line integral must vanish to quadrature accuracy
        # (the put is 1 / (2 pi) times this purely real integral).
        f = lambda l: price_integrand(l, atm_option, fig1_heston, 0.03)
        res = integrate_real_line(f, QuadratureConfig())
        assert abs(res.value.imag) <= 10.0 * res.error_estimate + 1e-12
        put = res.value.real / (2.0 * np.pi)
        call = put + atm_option.s0 - atm_option.strike * np.exp(-0.03)
        assert abs(call - 9.290246306287323672) <= 1e-9 * atm_option.s0

    @pytest.mark.parametrize("max_evals", [20, 60])
    def test_budget_stops_a_lorentzian_short(self, max_evals):
        # 60 evaluations pay for four start panels and no refinement; 20
        # cannot pay for the two halves of the window
        res = integrate_real_line(lambda l: 1.0 / (1.0 + l * l),
                                  QuadratureConfig(max_evals=max_evals))
        assert res.evaluations <= max_evals
        assert res.converged is False

    @pytest.mark.parametrize("whole_line", [False, True])
    def test_noise_never_converges_within_budget_and_call_cap(self,
                                                              whole_line):
        # The sign noise keeps every panel's error estimate near
        # 1e-6 * width, so refinement runs until the default budget is
        # spent; no integrand call may exceed 3840 nodes, 128 bisected
        # panels, or 64 on the whole line, which evaluates each at both
        # signs.  The noise is even in l: the whole line's f(l) + f(-l)
        # would cancel odd noise exactly.
        sizes = []

        def f(l):
            sizes.append(l.size)
            return np.exp(-l * l) + 1e-6 * np.sign(np.cos(1e6 * l))

        integrate = integrate_real_line if whole_line \
            else integrate_half_line
        res = integrate(f, QuadratureConfig())
        assert res.converged is False
        assert res.evaluations <= 500_000
        assert res.evaluations == sum(sizes)
        assert max(sizes) <= 3840

    @pytest.mark.parametrize("T, calls", [(1.0 / 52.0, 3), (1.0, 1),
                                          (30.0, 2)],
                             ids=["T=1/52", "T=1", "T=30"])
    def test_price_refines_in_few_integrand_calls(self, fig1_heston, T,
                                                  calls):
        # Refinement is batched (a bisection round is one integrand call)
        # and the geometric start panels resolve the integrand's scale in
        # the first call; the bounds are the measured counts.
        opt = VanillaOption(s0=100.0, strike=100.0, maturity=T)
        sizes = []

        def f(l):
            sizes.append(l.size)
            return price_integrand(l, opt, fig1_heston, 0.03)

        res = integrate_real_line(f, QuadratureConfig())
        assert res.converged
        assert len(sizes) <= calls

    @pytest.mark.parametrize("s, calls", [(0.05, 5), (0.5, 2), (5.0, 1),
                                          (50.0, 4)])
    def test_gaussian_of_any_width_resolves_from_the_start(self, s, calls):
        # The start panels reach from L/90 to 2L, so each width meets
        # panels near its own size in the first call; the bounds are the
        # measured counts.
        sizes = []

        def f(l):
            sizes.append(l.size)
            return np.exp(-(l / s) ** 2)

        res = integrate_real_line(f, QuadratureConfig())
        assert res.converged
        assert abs(res.value - s * np.sqrt(np.pi)) <= 1e-9
        assert len(sizes) <= calls

    @pytest.mark.parametrize("max_evals", [30, 60, 120, 450, 500_000])
    def test_zero_is_never_an_abscissa(self, max_evals):
        # 0 is a panel edge however many start panels the budget pays
        # for; the pricing integrands are a removable 0/0 there
        def f(l):
            assert not np.any(l == 0.0)
            return np.exp(-(l / 0.05) ** 2) + 1.0 / (1.0 + l * l)

        res = integrate_real_line(f, QuadratureConfig(max_evals=max_evals))
        assert res.evaluations <= max_evals

    @pytest.mark.parametrize("bound", [1.0, 100.0])
    @pytest.mark.parametrize("which", ["gauss", "lorentz"])
    def test_result_counts_its_calls_nodes_and_window(self, which, bound):
        f = {"gauss": lambda l: np.exp(-l * l),
             "lorentz": lambda l: 1.0 / (1.0 + l * l)}[which]
        sizes = []

        def counted(l):
            sizes.append(l.size)
            return f(l)

        res = integrate_real_line(counted,
                                  QuadratureConfig(truncation_bound=bound))
        assert res.converged
        assert res.integrand_calls == len(sizes)
        assert res.evaluations == sum(sizes)
        # the start window is twice the configured bound, and it doubles
        # once per strip
        strips = np.log2(res.window / bound)
        assert strips == int(strips) and strips >= 1

    def test_gaussian_window_is_where_the_strips_fall_below_abs_tol(self):
        # the start window's outer pair [1, 2] and strips [2, 4] and
        # [4, 8] contribute 0.14, 4e-3 and 1e-8; [8, 16] contributes
        # nothing, so growth stops at L = 16
        res = integrate_real_line(lambda l: np.exp(-l * l),
                                  QuadratureConfig(truncation_bound=1.0))
        assert res.window == 16.0

    def test_lorentzian_grows_by_strips_past_the_start_window(self):
        # 1/(1 + l^2) adds about 1/L on a pair [L, 2L], [-2L, -L], so the
        # start window's outer pair fails the tail test and one strip
        # follows per doubling, until the pair [2^30, 2^31] adds 9.3e-10
        # < abs_tol
        sizes = []

        def f(l):
            sizes.append(l.size)
            return 1.0 / (1.0 + l * l)

        res = integrate_real_line(f, QuadratureConfig(truncation_bound=1.0))
        assert res.converged and abs(res.value - np.pi) <= 1e-9
        assert res.window == 2.0 ** 31
        assert res.integrand_calls == len(sizes) == 31

    def test_gaussian_converges_in_the_first_call(self):
        # e^{-l^2} underflows to 0 on the outer pair [100, 200], so the
        # first call of 16 panels prices it and the window stays 2L
        res = integrate_real_line(lambda l: np.exp(-l * l),
                                  QuadratureConfig())
        assert res.converged and abs(res.value - np.sqrt(np.pi)) <= 1e-9
        assert res.integrand_calls == 1 and res.window == 200.0

    @pytest.mark.parametrize("max_evals", [30, 45, 59])
    def test_one_panel_a_side_tests_no_tail(self, max_evals):
        # below 60 evaluations the start window is [-2L, 0] and [0, 2L]:
        # no panel lies outside [-L, L], so nothing says the tail is
        # negligible, and the integral of 1 (400 here) is not converged
        res = integrate_real_line(lambda l: np.ones_like(l),
                                  QuadratureConfig(max_evals=max_evals))
        assert res.evaluations <= max_evals
        assert res.converged is False

    def test_result_fields_have_defaults(self):
        res = QuadratureResult(1j, 0.0, 15, True)
        assert res.integrand_calls == 0 and res.window == 0.0
        one = integrate_interval(lambda x: x * x, 0.0, 1.0)
        assert one.integrand_calls == 1 and one.window == 0.0

    def test_nonfinite_integrand_raises(self):
        from hestoncir import QuadratureError
        with pytest.raises(QuadratureError):
            integrate_interval(lambda x: 1.0 / (x * 0.0), 0.0, 1.0,
                               QuadratureConfig())

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            QuadratureConfig(abs_tol=-1.0)
        with pytest.raises(ValueError):
            QuadratureConfig(max_evals=0)

    @pytest.mark.parametrize("value", [600.0, 6e5, True])
    def test_non_integer_budget_names_the_field(self, value):
        # the budget slices panel arrays once it binds, so a float or a
        # bool is rejected where it is set
        with pytest.raises(ValueError, match="max_evals must be an integer"):
            QuadratureConfig(max_evals=value)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["abs_tol", "rel_tol",
                                      "truncation_bound"])
    def test_nonfinite_config_names_the_field(self, name, value):
        # a NaN tolerance fails every comparison, so an unconverged
        # integral would read as converged; an infinite window has no
        # finite abscissae
        with pytest.raises(ValueError, match="%s must be finite" % name):
            QuadratureConfig(**{name: value})

    @pytest.mark.parametrize("value", [1e308, 6e307])
    def test_window_that_overflows_names_the_field(self, value):
        # 2L = inf used to end in "integrand returned a non-finite value
        # at l=nan", blaming the integrand; at L = 6e307 the outer start
        # panel [sqrt(2) L, 2L] overflowed its midpoint (a + b)/2
        with pytest.raises(ValueError, match="truncation_bound"):
            QuadratureConfig(truncation_bound=value)
        # the largest start window at a power of ten
        res = integrate_half_line(lambda l: 1e-300 / (1e300 + l),
                                  QuadratureConfig(truncation_bound=4e307))
        assert res.converged and res.window == 8e307

    @pytest.mark.parametrize("integrate", [integrate_half_line,
                                           integrate_real_line])
    def test_growth_stops_at_the_last_finite_window(self, integrate):
        # 1/(L + |l|) adds about log 2 an octave, so the window grows
        # until the next octave would end past the largest float
        res = integrate(lambda l: 1.0 / (1e300 + np.abs(l)),
                        QuadratureConfig(truncation_bound=1e300))
        # the last window whose panel midpoints (a + b)/2 are finite
        assert not res.converged
        assert math.isfinite(2.0 * res.window)
        assert not math.isfinite(4.0 * res.window)
        assert np.isfinite(res.value) and res.evaluations < 5000


class TestIntegrateHalfLine:
    def test_gaussian_converges_in_the_first_call(self):
        # e^{-l^2} underflows to 0 on the outer region [100, 200], so the
        # first call of 16 panels prices it and the window stays 2L
        res = integrate_half_line(lambda l: np.exp(-l * l),
                                  QuadratureConfig())
        assert res.converged
        assert abs(res.value - 0.5 * np.sqrt(np.pi)) <= 1e-9
        assert res.integrand_calls == 1 and res.window == 200.0
        assert res.evaluations == 16 * 15

    @pytest.mark.parametrize("s", [100.0 / 90.0, 20.0],
                             ids=["L/90", "L/5"])
    def test_gaussian_of_any_start_scale_converges_in_the_first_call(self,
                                                                    s):
        # the half-octave start panels reach from L/90.5 to 2L, so a
        # Gaussian of width L/90 meets panels of its own size in the
        # first call; L/5 is the widest whose part on [L, 2L] (about
        # 3e-11) passes the tail test at L = 100
        res = integrate_half_line(lambda l: np.exp(-(l / s) ** 2),
                                  QuadratureConfig())
        assert res.converged
        assert abs(res.value - 0.5 * s * np.sqrt(np.pi)) <= 1e-9
        assert res.integrand_calls == 1 and res.window == 200.0

    @pytest.mark.parametrize("max_evals", [15, 29, 30, 44, 45, 239, 240,
                                           241])
    def test_first_call_has_the_start_panels_the_budget_pays_for(
            self, max_evals):
        # 16 start panels, the innermost dropped when the budget cannot
        # pay for them all
        sizes = []

        def f(l):
            sizes.append(l.size)
            return np.exp(-l * l)

        res = integrate_half_line(f, QuadratureConfig(max_evals=max_evals))
        assert sizes[0] == 15 * min(16, max_evals // 15)
        assert res.evaluations <= max_evals

    @pytest.mark.parametrize("max_evals", [15, 29, 30, 239, 240, 479, 480,
                                           500_000])
    def test_quarter_octave_window_drops_its_innermost_panels_first(
            self, max_evals):
        # 4 panels an octave: 32 start panels with edges 0 and 2L
        # 2^(-k/4), k = 31, ..., 0, and a short budget keeps the outermost
        def first_call(cfg):
            nodes = []

            def f(l):
                nodes.append(l.copy())
                return np.exp(-l / 4.0) * np.cos(l)

            res = _half_line(f, cfg, per_octave=4)
            assert res.evaluations == sum(map(np.size, nodes)) <= \
                cfg.max_evals
            return res, nodes[0].reshape(-1, 15)

        res, full = first_call(QuadratureConfig())
        # e^{-l/4} cos l, whose integral is 4/17: the half-octave window
        # takes 2 calls
        assert res.converged and abs(res.value - 4.0 / 17.0) <= 1e-9
        assert res.integrand_calls == 1 and res.window == 200.0
        assert integrate_half_line(
            lambda l: np.exp(-l / 4.0) * np.cos(l)).integrand_calls == 2
        mid = full[:, 7]        # the Kronrod centre node
        half = (full[:, 14] - full[:, 0]) / (2.0 * 0.991455371120813)
        edges = np.concatenate([[0.0], 200.0 * 2.0 ** (-np.arange(31, -1,
                                                                  -1) / 4)])
        assert full.shape == (32, 15)
        np.testing.assert_allclose(mid - half, edges[:-1], rtol=1e-12,
                                   atol=1e-12)
        np.testing.assert_allclose(mid + half, edges[1:], rtol=1e-12)
        _, short = first_call(QuadratureConfig(max_evals=max_evals))
        n = min(32, max_evals // 15)
        assert short.shape == (n, 15)
        if n > 1:       # but for the first, from 0, the outermost ones
            assert short[1:].tobytes() == full[33 - n:].tobytes()
        assert np.all(short > 0.0)

    def test_quarter_octave_window_grows_by_its_outer_octave_count(self):
        # e^{-l/40} from L = 100: the outer octave [100, 200] meets the
        # tolerance on its 4 start panels, so each new octave starts as 4
        sizes = []

        def f(l):
            sizes.append(l.size // 15)
            return np.exp(-l / 40.0)

        res = _half_line(f, QuadratureConfig(), per_octave=4)
        assert res.converged and abs(res.value - 40.0) <= 1e-9 * 40.0
        assert sizes == [32, 4, 4, 4, 4] and res.window == 3200.0

    # d e^{-l^2}/(l^2 + d^2) has poles at l = +-i d; with scale = d the
    # half-octave edges reach below 0.78 d: 18, 22 and 28 start panels
    # at L = 100, 2 more a halving of d; without it the innermost start
    # panel [0, L/90.5] is bisected one level a call down to d, in the
    # measured 2, 4 and 7 calls
    POLES = [(1.0, 18, 2), (0.25, 22, 4), (1.0 / 32.0, 28, 7)]

    @pytest.mark.parametrize("d, panels, plain_calls", POLES,
                             ids=["1", "1/4", "1/32"])
    def test_a_pole_at_the_scale_converges_in_the_first_call(
            self, d, panels, plain_calls):
        exact = 0.5 * np.pi * np.exp(d * d) * math.erfc(d)
        results = {}
        for scale in (d, None):
            sizes = []

            def f(l):
                sizes.append(l.size)
                return d * np.exp(-l * l) / (l * l + d * d)

            res = integrate_half_line(f, QuadratureConfig(), scale=scale)
            assert res.converged and abs(res.value - exact) <= 1e-9
            assert res.window == 200.0
            results[scale] = res, sizes[0]
        graded, first = results[d]
        assert first == 15 * panels
        assert graded.integrand_calls == 1 and graded.evaluations == first
        plain, first = results[None]
        assert first == 15 * 16
        assert plain.integrand_calls == plain_calls
        assert plain.evaluations == graded.evaluations

    @pytest.mark.parametrize("max_evals", [15, 29, 30, 240, 269, 270, 420,
                                           500_000])
    @pytest.mark.parametrize("d, panels, plain_calls", POLES,
                             ids=["1", "1/4", "1/32"])
    def test_a_graded_window_drops_its_innermost_panels_first(
            self, d, panels, plain_calls, max_evals):
        # the graded window on a short budget is its outermost panels, so
        # up to 16 it is the plain window's first call, node for node
        def calls(scale):
            nodes = []

            def f(l):
                nodes.append(l.copy())
                return d * np.exp(-l * l) / (l * l + d * d)

            res = integrate_half_line(f, QuadratureConfig(max_evals=max_evals),
                                      scale=scale)
            assert res.evaluations == sum(map(np.size, nodes)) <= max_evals
            return nodes

        graded = calls(d)
        n = min(panels, max_evals // 15)
        assert graded[0].size == 15 * n
        assert np.all(graded[0] > 0.0)
        if n <= 16:
            assert graded[0].tobytes() == calls(None)[0].tobytes()

    @pytest.mark.parametrize("scale", [4.0, 8.0, 100.0])
    def test_a_scale_past_the_plain_window_adds_no_panel(self, scale):
        # at L = 100 the plain innermost edge 1.105 is already at most
        # 0.78 scale for scale >= 1.42, so the result is the plain one
        f = lambda l: np.exp(-(l - 0.3) ** 2) + 1.0 / (1.0 + l * l)
        cfg = QuadratureConfig(truncation_bound=100.0)
        assert integrate_half_line(f, cfg, scale=scale) == \
            integrate_half_line(f, cfg)

    @pytest.mark.parametrize("scale", [0.0, -0.5, math.nan, math.inf,
                                       -math.inf])
    def test_a_bad_scale_raises(self, scale):
        with pytest.raises(ValueError, match="scale must be positive"):
            integrate_half_line(lambda l: np.exp(-l * l), scale=scale)

    def test_a_tiny_scale_stays_within_one_call_of_3840_nodes(self):
        # the graded window stops at 256 panels, as a new octave does
        sizes = []

        def f(l):
            sizes.append(l.size)
            return np.exp(-l * l)

        integrate_half_line(f, QuadratureConfig(), scale=5e-324)
        assert sizes[0] == 3840

    def test_lorentzian_grows_by_strips_past_the_start_window(self):
        # 1/(1 + l^2) adds about 1/(2L) on a strip [L, 2L], so the outer
        # panel [1, 2] fails the tail test and one strip follows per
        # doubling, until [2^29, 2^30] adds 9.3e-10 < abs_tol; the window
        # and the calls are the measured ones
        sizes = []

        def f(l):
            sizes.append(l.size)
            return 1.0 / (1.0 + l * l)

        res = integrate_half_line(f, QuadratureConfig(truncation_bound=1.0))
        assert res.converged and abs(res.value - 0.5 * np.pi) <= 1e-9
        assert res.window == 2.0 ** 30
        assert res.integrand_calls == len(sizes) == 30
        assert res.evaluations == sum(sizes)

    @pytest.mark.parametrize("max_evals", [15, 20, 29])
    def test_one_panel_tests_no_tail(self, max_evals):
        # below 30 evaluations the start window is the one panel [0, 2L]:
        # no edge at L, so nothing says the tail is negligible
        res = integrate_half_line(lambda l: np.exp(-l * l),
                                  QuadratureConfig(max_evals=max_evals))
        assert res.evaluations == 15
        assert res.converged is False

    @pytest.mark.parametrize("max_evals", [15, 29])
    def test_whole_line_under_fifteen_a_side_evaluates_nothing(self,
                                                               max_evals):
        # the whole line pays two evaluations a node, so its half-line
        # budget is under one panel
        calls = []
        res = integrate_real_line(lambda l: calls.append(l) or np.ones_like(l),
                                  QuadratureConfig(max_evals=max_evals))
        assert calls == [] and res.evaluations == 0
        assert res.converged is False

    @pytest.mark.parametrize("max_evals", [15, 30, 60, 120, 450, 500_000])
    def test_zero_is_never_an_abscissa(self, max_evals):
        def f(l):
            assert np.all(l > 0.0)
            return np.exp(-(l / 0.05) ** 2) + 1.0 / (1.0 + l * l)

        res = integrate_half_line(f, QuadratureConfig(max_evals=max_evals))
        assert res.evaluations <= max_evals

    @pytest.mark.parametrize("max_evals", [15, 29, 30, 59, 60, 119, 120,
                                           449, 450, 500])
    @pytest.mark.parametrize("whole_line", [False, True])
    def test_evaluations_stay_within_the_budget(self, max_evals, whole_line):
        # a Lorentzian from L = 1 needs 555 evaluations on the half line
        # and 1140 on the whole line, more than any of these budgets
        nodes = []

        def f(l):
            nodes.append(l.size)
            return 1.0 / (1.0 + l * l)

        integrate = integrate_real_line if whole_line \
            else integrate_half_line
        res = integrate(f, QuadratureConfig(max_evals=max_evals,
                                            truncation_bound=1.0))
        assert res.evaluations == sum(nodes) <= max_evals
        assert res.converged is False

    def test_whole_line_is_the_fold_of_the_half_line(self):
        # f(l) + f(-l) on one call at both signs: the same panels, calls
        # and window, and twice the evaluations
        f = lambda l: np.exp(-(l - 0.3) ** 2) + 1.0 / (1.0 + l * l)
        whole = integrate_real_line(f, QuadratureConfig())
        half = integrate_half_line(lambda l: f(l) + f(-l),
                                   QuadratureConfig(max_evals=250_000))
        assert whole.value == half.value
        assert whole.evaluations == 2 * half.evaluations
        assert (whole.integrand_calls, whole.window) == \
            (half.integrand_calls, half.window)

    @pytest.mark.parametrize("whole_line", [False, True])
    def test_an_outer_octave_that_cancels_is_not_a_negligible_tail(
            self, whole_line):
        # sin(pi l/50) e^{-((l - 150)/15)^2} is odd about l = 150, so its
        # panels on the outer octave [100, 200] cancel in sign, while a
        # bump of 1.77e-2 lies at l = 300; the tail test sums the octave's
        # |panel values|, so the window grows past the bump, to 800
        def f(l):
            return (np.sin(0.02 * np.pi * l)
                    * np.exp(-((l - 150.0) / 15.0) ** 2)
                    + 1e-3 * np.exp(-((l - 300.0) / 10.0) ** 2))

        integrate = integrate_real_line if whole_line \
            else integrate_half_line
        res = integrate(f, QuadratureConfig())
        assert res.converged and res.window == 800.0
        assert abs(res.value - 1e-2 * np.sqrt(np.pi)) <= 1e-9

    @pytest.mark.parametrize("columns", [1, 2])
    def test_a_grown_window_meets_one_tolerance(self, columns):
        # |cos l| e^{-l/20} has a kink at every odd multiple of pi/2, so
        # panels there stop just below their share of the tolerance; from
        # L = 1 the window grows by nine octaves, to 1024, and all of its
        # panels share each column's tolerance max(abs_tol, rel_tol
        # |value_j|), however many octaves it has.
        a = 1.0 / 20.0
        # the period [0, pi] in closed form, times 1/(1 - e^{-a pi})
        exact = (2.0 * np.exp(-0.5 * a * np.pi) + a - a * np.exp(-a * np.pi)) \
            / ((1.0 + a * a) * -np.expm1(-a * np.pi))
        f = lambda l: np.abs(np.cos(l)) * np.exp(-a * l)
        g = f if columns == 1 \
            else lambda l: np.stack([f(l), np.exp(-l * l)], axis=1)
        cfg = QuadratureConfig(abs_tol=1e-6, rel_tol=1e-12,
                               truncation_bound=1.0)
        res = integrate_half_line(g, cfg)
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(res.value))
        assert res.converged and res.window == 1024.0
        assert np.all(res.error_estimate <= tol)
        assert abs(np.atleast_1d(res.value)[0] - exact) <= cfg.abs_tol

    def test_strips_start_at_the_resolution_their_predecessor_needed(self):
        # e^{-(l/10)^2} cos(0.8 l) from L = 1 grows its window to 128 by
        # strips [2^k, 2^(k+1)], each starting with the panels the region
        # before it ended with, twice as many if any was bisected: the
        # outer region [1, 2] converges on its 2 panels, so [2, 4] starts
        # as 2; [16, 32] is bisected to 4, so [32, 64] starts as 8 and
        # passes that on, converging on first sight
        res, strips = _cosine_strips(1.0)
        assert (res.integrand_calls, res.window) == (8, 128.0)
        assert strips == {1: [2], 2: [2], 3: [2], 4: [2, 4], 5: [8],
                          6: [8]}

    def test_first_strip_doubles_a_bisected_outer_region(self):
        # from L = 16 the outer region [16, 32] is bisected from 2 panels
        # to 4, so the first strip [32, 64] starts as 8
        res, strips = _cosine_strips(16.0)
        assert (res.integrand_calls, res.window) == (4, 128.0)
        assert strips == {5: [8], 6: [8]}

    # scatter seed 0 quotes #91 (heston_wild) and #19 (hybrid_wild): at
    # T = 0.039 and 0.022 the put integrand reaches far past the start
    # window, whose strips took 16 and 14 calls one bisection at a time;
    # heston is (mu, kappa, theta, sigma, rho, v0, lam), rate (kappa_r,
    # theta_r, sigma_r, r0)
    SHORT_QUOTES = (
        ((0.01500168647476153, 1.0540463148601762, 0.049242531353876975,
          0.7472922560712258, -0.7443686337002502, 0.013811250697478242,
          0.0), None, 84.9368, 0.03863217086336519, "call"),
        ((0.04671228248922401, 2.9435824418604764, 0.03522680879430185,
          1.0651219801284064, -0.7062139676564413, 0.011650392154050528,
          -0.3537381064839211),
         (2.637586555327834, 0.0569754351252984, 0.09979017758122688,
          0.04671228248922401), 91.4227, 0.022210617382218703, "put"),
    )

    @pytest.mark.parametrize("quote", SHORT_QUOTES, ids=["91", "19"])
    def test_short_maturity_quotes_grow_in_few_calls(self, quote):
        heston, rate, strike, T, kind = quote
        p = HestonParams(*heston)
        opt = VanillaOption(100.0, strike, T, kind)

        def price(cfg):
            if rate is None:
                return heston_price_with_diagnostics(opt, p, p.mu, cfg)
            return hybrid_price_with_diagnostics(opt, p,
                                                 CirRateParams(*rate), cfg)

        got, res = price(QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9,
                                          max_evals=20_000))
        ref, _ = price(QuadratureConfig(abs_tol=1e-10, rel_tol=1e-10))
        assert res.converged and res.integrand_calls <= 8, res
        assert abs(got - ref) <= 1e-9 * opt.s0


def _cosine_strips(L):
    """e^{-(l/10)^2} cos(0.8 l) over l > 0 from truncation bound L: the
    result, checked against its closed form, and the panels of every
    call on each strip [2^k, 2^(k+1)] past the start window, by k."""
    strips = {}

    def f(l):
        if l.min() >= 2.0 * L:
            strips.setdefault(int(np.log2(l.min())), []).append(
                l.size // 15)
        return np.exp(-(l / 10.0) ** 2) * np.cos(0.8 * l)

    res = integrate_half_line(f, QuadratureConfig(truncation_bound=L))
    exact = 5.0 * np.sqrt(np.pi) * np.exp(-16.0)
    assert res.converged and abs(res.value - exact) <= 1e-9
    return res, strips


def _panels_with(err, value):
    """Four panels, the last frozen (1e-15 wide), carrying the given
    per-panel errors, shape (4,) or (4, m), and column values."""
    a = np.array([-4.0, -1.0, 0.0, 1.0])
    b = np.array([-1.0, 0.0, 1.0, 1.0 + 1e-15])
    err = np.asarray(err, dtype=float)
    panels = _Panels(lambda l: np.zeros((l.size,) + err.shape[1:]), a, b)
    panels.err = err
    panels.val = np.zeros(err.shape, dtype=complex)
    panels.val[0] = value
    return panels


class TestToSplit:
    # abs_tol 1e-3 and rel_tol 1e-3 at values (0.5, 2) give the columns
    # tolerances 1e-3 and 2e-3; a panel's share of a short column's
    # tolerance is tol_j/(2 * 4 panels)
    SHORT = [4e-4, 1e-4, 2e-4, 5e-4]   # 1.2e-3 > 1e-3; share 1.25e-4
    WITHIN = [0.0, 1.5e-3, 0.0, 0.0]   # 1.5e-3 <= 2e-3, though one panel
                                       # is above its share 2.5e-4

    def test_single_column_takes_the_open_panels_above_their_share(self):
        panels = _panels_with(self.SHORT, 0.5)
        # panel 1 is below its share, panel 3 is above it but frozen
        np.testing.assert_array_equal(panels._to_split(1e-3, 1e-3), [0, 2])

    def test_columns_within_tolerance_pick_nothing(self):
        panels = _panels_with(np.column_stack([self.SHORT, self.WITHIN]),
                              [0.5, 2.0])
        np.testing.assert_array_equal(panels._to_split(1e-3, 1e-3), [0, 2])
        # at value 2 the first column's tolerance is 2e-3 too
        panels = _panels_with(np.column_stack([self.SHORT, self.WITHIN]),
                              [2.0, 2.0])
        assert panels._to_split(1e-3, 1e-3) is None

    def test_a_frozen_panel_alone_over_its_share_is_not_split(self):
        panels = _panels_with([1e-4, 1e-4, 1e-4, 2e-3], 0.5)
        assert panels._to_split(1e-3, 1e-3).size == 0

    @pytest.mark.parametrize("err, value", [
        ([2.5e-4] * 4, 0.5),
        (np.column_stack([[2.5e-4] * 4, WITHIN]), [0.5, 2.0])],
        ids=["one-column", "two-columns"])
    def test_at_tolerance_returns_none(self, err, value):
        assert _panels_with(err, value)._to_split(1e-3, 1e-3) is None


class TestNormalSampler:
    """The oracles' normals: ``RngStream(seed, stream).generator``."""

    def test_moments(self):
        z = RngStream(7, 0).generator.standard_normal(1_000_000)
        assert abs(z.mean()) <= 0.005
        assert abs(z.var() - 1.0) <= 0.01

    @pytest.mark.parametrize("seed", [42, -1])
    def test_deterministic_given_seed_and_stream(self, seed):
        # a negative master seed is valid: it is taken mod 2**64
        a = RngStream(seed, 3).generator.standard_normal(128)
        b = RngStream(seed, 3).generator.standard_normal(128)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [42, -1])
    def test_streams_are_distinct(self, seed):
        a = RngStream(seed, 0).generator.standard_normal(128)
        b = RngStream(seed, 1).generator.standard_normal(128)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed,stream", [(0, 0), (42, 3), (11, 17)])
    def test_stream_is_the_spawned_child(self, seed, stream):
        # stream i of a seed is SeedSequence(seed)'s i-th spawned child
        child = np.random.SeedSequence(seed).spawn(stream + 1)[stream]
        expected = np.random.Generator(np.random.SFC64(child))
        a = RngStream(seed, stream).generator.standard_normal(64)
        assert np.array_equal(a, expected.standard_normal(64))


class TestNoncentralChisqSampler:
    def test_central_case_mean(self):
        s = sample_noncentral_chisq(df=4.0, noncentrality=0.0,
                                    rng=RngStream(master_seed=1, stream_id=0),
                                    size=1_000_000)
        assert abs(s.mean() - 4.0) <= 0.02

    # df 15, nc 593 is one rate step of the mc_verify market
    @pytest.mark.parametrize("df,nc,seed", [(2.0, 3.0, 2), (15.0, 593.0, 3)])
    def test_mean_and_variance(self, df, nc, seed):
        # E = df + nc, Var = 2 df + 4 nc; allow 5 standard errors.
        n = 1_000_000
        s = sample_noncentral_chisq(df, nc, RngStream(master_seed=seed,
                                                      stream_id=0), size=n)
        mean, var = df + nc, 2.0 * df + 4.0 * nc
        se_mean = np.sqrt(var / n)
        assert abs(s.mean() - mean) <= 5.0 * se_mean
        # standard error of the sample variance via the fourth moment
        m4 = ((s - s.mean()) ** 4).mean()
        se_var = np.sqrt((m4 - var ** 2) / n)
        assert abs(s.var() - var) <= 5.0 * se_var

    def test_fractional_df_distribution(self):
        # df < 1 exercises the Poisson-mixture path (a plain chi-square plus
        # shifted normal construction would be invalid here).  Oracle: CDF of
        # the mixture sum_j Pois(j; nc/2) chi2(df + 2j), computed by numeric
        # integration of the density with an x = u^4 substitution to absorb
        # the x^(df/2 - 1) endpoint singularity.
        df, nc = 0.5, 1.0
        n = 100_000
        s = sample_noncentral_chisq(df, nc, RngStream(master_seed=3, stream_id=0),
                                    size=n)

        weights = stats.poisson.pmf(np.arange(60), nc / 2.0)

        def density(x):
            out = np.zeros_like(x)
            for j, w in enumerate(weights):
                out += w * stats.chi2.pdf(x, df + 2 * j)
            return out

        xmax = max(s.max() * 1.01, 40.0)
        u = np.linspace(0.0, xmax ** 0.25, 40_001)[1:]
        x = u ** 4
        integrand = density(x) * 4.0 * u ** 3
        cdf_vals = np.concatenate(
            [[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1])
                              * np.diff(u))])

        def cdf(q):
            return np.interp(q, x, cdf_vals)

        stat = stats.kstest(s, cdf).statistic
        crit = 1.628 / np.sqrt(n)  # 1% Kolmogorov-Smirnov critical value
        assert stat <= crit

    @pytest.mark.parametrize("df,nc,seed", [(15.0, 593.0, 4),
                                            (3.0, 0.5, 5),
                                            (1.05, 2.0, 6)])
    def test_df_above_one_distribution(self, df, nc, seed):
        # df > 1 is drawn as whole arrays of chi2(df - 1) + (Z + sqrt(nc))^2;
        # df 15, nc 593 is one rate step of the mc_verify market, and
        # df 1.05 puts a gamma shape of 0.025 on chi2(df - 1)
        n = 100_000
        s = sample_noncentral_chisq(df, nc, RngStream(master_seed=seed,
                                                      stream_id=0), size=n)
        stat = stats.kstest(s, stats.ncx2(df, nc).cdf).statistic
        crit = 1.628 / np.sqrt(n)  # 1% Kolmogorov-Smirnov critical value
        assert stat <= crit

    @pytest.mark.parametrize("df,nc", [
        (0.0, 1.0),
        (1.0, -1.0),
        (3.0, -1.0),
        (3.0, np.array([1.0, -1.0, 2.0, 0.5]))],
        ids=["df-zero", "df-one-negative-nc", "df-above-one-negative-nc",
             "df-above-one-negative-nc-array"])
    def test_invalid_arguments(self, df, nc):
        # df <= 1 is checked by the Generator's Poisson-mixture call, df > 1
        # by the whole-array route; sqrt must not turn nc < 0 into NaN
        stream = RngStream(master_seed=0, stream_id=0)
        with pytest.raises(ValueError):
            sample_noncentral_chisq(df, nc, stream, size=4)

    @pytest.mark.parametrize("nc", [1.0, 0.0])
    def test_nan_df_names_it(self, nc):
        # NaN fails "df > 1", and the Generator's mixture drew NaN for it
        with pytest.raises(ValueError, match="^df must be positive"):
            sample_noncentral_chisq(math.nan, nc, RngStream(0))

    def test_nan_noncentrality_gives_nan(self):
        stream = RngStream(master_seed=0, stream_id=0)
        for df in (0.5, 3.0):
            assert np.isnan(sample_noncentral_chisq(df, np.nan, stream))
