"""Prices against 30-digit literals that share no code with the library.

The literals come from ``tests/mp_price_oracle.py``, which takes the
paper's braced integral with mpmath on its own exp(-w) cores.  Every
route is held to 1e-9 S0: the constant-rate pricer, the stochastic-rate
pricer, the price-via-density cross-check and the vector route that
prices one contract at many rates in one integral.
"""

import math
import warnings

import numpy as np
import pytest

from hestoncir import (
    CirRateParams,
    HestonParams,
    VanillaOption,
    cir_bond_price,
    critical_moments,
    deterministic_average_rate,
    heston_call_price,
    hybrid_call_price,
    price_via_density,
)
from hestoncir import heston

S0 = 100.0
TOL = 1e-9 * S0

# ((kappa, theta, sigma, rho, v0, lam), r or (kappa_r, theta_r, sigma_r,
# r0), T, K, call price) at 30 digits, printed by tests/mp_price_oracle.py;
# the last five are scatter quotes that a fixed contour misprices
MP_PRICES = (
    ((1.0, 0.04, 0.2, -0.5, 0.04, 0.0),
     0.03, 0.02, 100.0, 1.1575192428550780273),
    ((1.0, 0.04, 0.2, -0.5, 0.04, 0.0),
     0.03, 0.02, 95.0, 5.099918441107438109),
    ((1.0, 0.04, 0.2, -0.5, 0.04, 0.0),
     0.03, 0.25, 100.0, 4.3307658313348171117),
    ((1.0, 0.04, 0.2, -0.5, 0.04, 0.0),
     0.03, 0.25, 130.0, 0.0062136274208730865822),
    ((1.0, 0.04, 0.2, -0.5, 0.04, 0.0),
     0.0, 1.0, 100.0, 7.7266928486958962172),
    ((1.0, 0.04, 0.2, -0.5, 0.04, 0.0),
     0.03, 1.0, 100.0, 9.290246306287323672),
    ((1.0, 0.04, 0.2, -0.5, 0.04, 0.0),
     0.08, 1.0, 100.0, 12.164706133226834053),
    ((1.0, 0.04, 0.2, -0.5, 0.04, 0.0),
     0.03, 1.0, 60.0, 41.865365862567082242),
    ((1.0, 0.04, 0.2, -0.5, 0.04, 0.0),
     0.03, 1.0, 160.0, 0.038179476335590570394),
    ((1.0, 0.04, 0.2, -0.5, 0.04, 0.0),
     0.03, 5.0, 100.0, 24.187269036512606941),
    ((1.0, 0.04, 0.2, -0.5, 0.04, 0.0),
     0.03, 30.0, 100.0, 66.868743984272785584),
    ((1.0, 0.04, 0.2, -0.5, 0.04, 0.0),
     0.03, 30.0, 400.0, 25.949875262366234393),
    ((2.0, 0.05, 1e-06, -0.7, 0.03, 0.0),
     0.03, 1.0, 105.0, 7.2619145722538445535),
    ((2.0, 0.05, 0.0001, -0.7, 0.03, 0.0),
     0.03, 10.0, 100.0, 38.827774542460025941),
    ((2.0, 0.05, 0.01, -0.7, 0.03, 0.0),
     0.03, 0.5, 95.0, 9.0964634983971322073),
    ((4.0, 0.09, 0.25, -0.2, 0.12, 0.0),
     0.03, 0.25, 100.0, 6.9089225043734334095),
    ((0.3, 0.1, 1.5, 0.95, 0.5, 0.0),
     0.03, 0.5, 100.0, 19.617222729418772286),
    ((0.3, 0.1, 1.5, 0.95, 0.5, 0.0),
     0.03, 5.0, 120.0, 44.975984244474079995),
    ((0.3, 0.1, 1.5, 0.95, 0.5, 0.0),
     0.03, 30.0, 100.0, 75.478053293238235426),
    ((0.8, 0.12, 1.0, -0.95, 0.15, 0.0),
     0.03, 2.0, 90.0, 24.696346806357499175),
    ((2.0, 0.05, 0.3, -0.7, 0.03, 0.8),
     0.03, 3.0, 100.0, 17.05247998492627674),
    ((0.7, 0.1, 0.8, 0.95, 0.08, -0.4),
     0.03, 1.0, 110.0, 9.8980449629812911824),
    ((1.5, 0.05, 0.5, 0.9, 0.04, 0.0),
     0.03, 5.0, 100.0, 24.481783466294194312),
    ((1.5, 0.05, 0.5, 0.9, 0.04, 0.0),
     0.03, 30.0, 100.0, 68.078235575868318035),
    ((1.5, 0.05, 0.5, 0.9, 0.04, 0.0),
     0.03, 30.0, 150.0, 59.292068300024710079),
    ((1.75, 0.045, 0.45, -0.65, 0.04, 0.0),
     0.02, 1.2, 103.0, 7.9711457597720600523),
    ((1.75, 0.045, 0.45, -0.65, 0.04, 0.0),
     0.03, 1.2, 103.0, 8.6163769608837148623),
    ((1.75, 0.045, 0.45, -0.65, 0.04, 0.0),
     0.04, 1.2, 103.0, 9.2812613883097945019),
    ((1.0, 0.04, 0.2, -0.5, 0.04, 0.0),
     (1.8, 0.03, 0.1, 0.035), 0.1, 120.0, 0.0016309303312163645358),
    ((1.0, 0.04, 0.2, -0.5, 0.04, 0.0),
     (1.8, 0.03, 0.1, 0.035), 1.0, 100.0, 9.4189351071367178969),
    ((1.0, 0.04, 0.2, -0.5, 0.04, 0.0),
     (1.8, 0.03, 0.1, 0.035), 10.0, 100.0, 36.951097504278728101),
    ((1.0, 0.04, 0.2, -0.5, 0.04, 0.0),
     (1.8, 0.03, 0.1, 0.035), 30.0, 150.0, 55.792549271749678302),
    ((1.0, 0.04, 0.2, -0.5, 0.04, 0.0),
     (0.5, 0.03, 0.3, 0.035), 1.0, 100.0, 9.5504429183222588823),
    ((1.0, 0.04, 0.2, -0.5, 0.04, 0.0),
     (0.5, 0.03, 0.3, 0.035), 5.0, 80.0, 35.890947354318973342),
    ((1.0, 0.04, 0.2, -0.5, 0.04, 0.0),
     (1.8, 0.03, 0.001, 0.035), 2.0, 100.0, 14.039864635690996033),
    ((1.0, 0.04, 0.2, -0.5, 0.04, 0.0),
     (1.8, 0.03, 0.0001, 0.035), 10.0, 100.0, 36.951441449928724827),
    ((1.0, 0.04, 0.2, -0.5, 0.04, 0.0),
     (1.8, 0.03, 1e-05, 0.035), 1.0, 110.0, 4.9240880889615718655),
    ((1.0, 0.04, 0.2, -0.5, 0.04, 0.0),
     (1.8, 0.03, 1e-06, 0.035), 0.5, 100.0, 6.3972783807460819015),
    ((1.0, 0.04, 0.2, -0.5, 0.04, 0.0),
     (1.8, 0.03, 0.0, 0.035), 2.0, 100.0, 14.039864187699028509),
    ((1.0, 0.04, 0.2, -0.5, 0.04, 0.0),
     (1.8, 0.03, 0.0, 0.035), 30.0, 100.0, 66.938871122765058328),
    ((1.75, 0.045, 0.45, -0.65, 0.04, 0.0),
     (1.25, 0.03, 0.1, 0.03), 1.2, 103.0, 8.6207528142444337265),
    ((0.8, 0.12, 1.0, -0.95, 0.15, 0.0),
     (0.5, 0.03, 0.3, 0.035), 2.0, 100.0, 18.526607494366082124),
    ((2.0, 0.05, 0.3, -0.7, 0.03, 0.8),
     (1.8, 0.03, 0.1, 0.035), 3.0, 90.0, 23.084611713439574209),
    ((0.6470645420202017, 0.014540848845123928, 0.7330601633422388,
      -0.7927392148281927, 0.006515486184457602, -0.28741184555730115),
     0.011784955351616855, 25.4261447721671, 99.9078,
     35.096886620448650224),
    ((1.099123689706229, 0.09029500644497898, 0.98247984351886,
      -0.8362093292917634, 0.053421903063802394, -0.0725018780096609),
     (2.3529550572988596, 0.06683312704439343, 0.10326265170392034,
      0.04263628944564945), 8.998288661544272, 1927.7733,
     1.0850420772895216097e-6),
    ((0.5496844680447409, 0.04559584091328193, 0.5999573649963715,
      -0.360716323855241, 0.0176647440007135, -0.019175316550248123),
     0.07956604925261797, 28.760344506773265, 2577.6268,
     9.9247842931158726163),
    ((0.6677958538971216, 0.08135949538494495, 0.7974041177215703,
      -0.23245179410947792, 0.1313450058022297, 0.0),
     (1.3462561824306447, 0.07841017883351567, 1.3907582123942162e-05,
      0.04688373278236806), 18.59499893165206, 19.3803,
     95.596909614131893567),
    ((1.8306434054955893, 0.08386574024813853, 0.9041231923863087,
      -0.7062447704153142, 0.028821524484741866, 0.0),
     0.03056075298793272, 14.567515074878482, 1619.1444,
     0.041244014851040040633),
)

HESTON_ROWS = [row for row in MP_PRICES if not isinstance(row[1], tuple)]
HYBRID_ROWS = [row for row in MP_PRICES if isinstance(row[1], tuple)]

def _params(row):
    return HestonParams(mu=0.03, kappa=row[0][0], theta=row[0][1],
                        sigma=row[0][2], rho=row[0][3], v0=row[0][4],
                        lam=row[0][5])


def _id(row):
    params, rate, T, K, _ = row
    tag = "cir%g" % rate[2] if isinstance(rate, tuple) else "r%g" % rate
    return "s%g-rho%g-%s-T%g-K%g" % (params[2], params[3], tag, T, K)


def _cases(rows):
    return [pytest.param(row, id=_id(row)) for row in rows]


class TestHestonLiterals:
    @pytest.mark.parametrize("row", _cases(HESTON_ROWS))
    def test_call_and_put(self, row):
        _, r, T, K, call = row
        p = _params(row)
        assert abs(heston_call_price(VanillaOption(S0, K, T), p, r)
                   - call) <= TOL
        put = call - S0 + K * math.exp(-r * T)
        assert abs(heston_call_price(VanillaOption(S0, K, T, "put"), p, r)
                   - put) <= TOL

    @pytest.mark.parametrize("row", _cases(HESTON_ROWS))
    def test_price_via_density(self, row):
        _, r, T, K, call = row
        assert abs(price_via_density(VanillaOption(S0, K, T), _params(row),
                                     r) - call) <= TOL

    def test_rate_vector_route(self):
        # one integral per contract, its literal rates as the columns
        contracts = {}
        for row in HESTON_ROWS:
            contracts.setdefault((row[0], row[2], row[3]), []).append(row)
        assert max(len(rows) for rows in contracts.values()) == 3
        for (_, T, K), rows in contracts.items():
            rates = [row[1] for row in rows]
            calls = np.array([row[4] for row in rows])
            p = _params(rows[0])
            got = heston_call_price(VanillaOption(S0, K, T), p, rates)
            assert np.max(np.abs(got - calls)) <= TOL, (T, K)
            puts = calls - S0 + K * np.exp(-np.array(rates) * T)
            got = heston_call_price(VanillaOption(S0, K, T, "put"), p, rates)
            assert np.max(np.abs(got - puts)) <= TOL, (T, K)


class TestHybridLiterals:
    @pytest.mark.parametrize("row", _cases(HYBRID_ROWS))
    def test_call_and_put(self, row):
        _, rate, T, K, call = row
        rp = CirRateParams(*rate)
        bond = cir_bond_price(rp, T) if rp.sigma_r > 0 else \
            math.exp(-T * deterministic_average_rate(rp, T))
        p = _params(row)
        assert abs(hybrid_call_price(VanillaOption(S0, K, T), p, rp)
                   - call) <= TOL
        assert abs(hybrid_call_price(VanillaOption(S0, K, T, "put"), p, rp)
                   - (call - S0 + K * bond)) <= TOL


# the contour's (params, T) over every literal, and a sweep with
# kappa < rho sigma (kappa 0.3, sigma 1.5, rho 0.95) and lam != 0
_SHIFT_CASES = sorted({(row[0], row[2]) for row in MP_PRICES}) + [
    ((kappa, 0.06, sigma, rho, 0.05, lam), T)
    for kappa in (0.3, 2.0) for sigma in (0.2, 1.5) for rho in (-0.9, 0.95)
    for lam in (0.0, -0.2) for T in (0.1, 5.0, 30.0)]


class TestContourShift:
    """The contour Im z = c lies in the lower half of the strip (-w-, 0),
    where E[exp(s x_T)] is finite for -w- < s < 0: 2c > -w-."""

    @pytest.mark.parametrize("params, T", _SHIFT_CASES)
    def test_twice_the_shift_is_inside_the_strip(self, params, T):
        p = _params((params,))
        c = heston._contour_shift(p, T)
        w_minus, _ = critical_moments(p, T)
        assert -4.0 <= c < 0.0 and math.log2(-c).is_integer(), c
        assert 2.0 * c > -w_minus, (c, w_minus)

    @pytest.mark.parametrize("params, T, c", [
        # short maturities go out to -4, where the integrand is smallest
        ((1.0, 0.04, 0.2, -0.5, 0.04, 0.0), 1.0 / 52.0, -4.0),
        ((1.0, 0.04, 0.2, -0.5, 0.04, 0.0), 1.0, -4.0),
        ((1.0, 0.04, 0.2, -0.5, 0.04, 0.0), 30.0, -1.0),
        # the explosion caps it: w- = 0.17
        (MP_PRICES[-5][0], MP_PRICES[-5][2], -0.0625),
        # a mean integrated variance of 1250 pulls it in to 2^-9, where
        # E[exp(c x_T)] is e^1.2 rather than e^524 at c = -1/2
        ((1.5, 25.0, 0.5, -0.5, 25.0, 0.0), 50.0, -2.0 ** -9),
    ])
    def test_the_measured_shifts(self, params, T, c):
        assert heston._contour_shift(_params((params,)), T) == c

    def test_log1p_arguments_stay_off_minus_one(self, monkeypatch):
        # _log1p_c takes log|1 + z| by hypot where |1 + z| < 1/2; on the
        # contour, half the strip away from the explosion, the cores keep
        # |1 + z| above 0.25 (0.42 measured over these cases)
        real, least = heston._log1p_c, []

        def recording(z):
            least.append(float(np.min(np.abs(1.0 + np.asarray(z)))))
            return real(z)

        monkeypatch.setattr(heston, "_log1p_c", recording)
        for params, T in _SHIFT_CASES:
            heston_call_price(VanillaOption(S0, 100.0, T),
                              _params((params,)), 0.03)
        assert least and min(least) >= 0.25, min(least)


def _textbook_cores(l, p: HestonParams, T):
    """Spot and strike cores in the textbook cosh/sinh form.

    log N = -log(cosh w + beta sinh w) on the principal branch, which
    jumps by 2 pi i whenever the argument winds past -pi; times the
    non-integer 2 kappa theta/sigma^2 that jump is a wrong phase.
    """
    kappa, theta, sigma, rho, v0 = p.kappa, p.theta, p.sigma, p.rho, p.v0
    a = v0 + kappa * theta * T
    sig2 = sigma * sigma
    cores = []
    for shift, l2 in ((rho * sigma, l * (l + 1j)), (0.0, l * (l - 1j))):
        b = kappa - shift + 1j * l * rho * sigma
        om = 0.5 * np.sqrt(b * b + sig2 * l2)
        w = om * T
        den = np.cosh(w) + b / (2.0 * om) * np.sinh(w)
        g = (np.cosh(w) - 1.0 / den) / np.sinh(w)
        cores.append(1j * l * rho * a / sigma + kappa * a / sig2
                     - shift * a / sig2 - 2.0 * om * v0 / sig2 * g
                     - 2.0 * kappa * theta / sig2 * np.log(den))
    return cores


def _midpoint_call(cores, l, r, T, K):
    """(S0 - K B)/2 - (1/pi) int_0^inf Im f, by the midpoint sum on ``l``.

    ``l`` is (k + 1/2) h: the sum never meets the removable 0/0 at l = 0
    and, for a smooth integrand, converges like the trapezoid on the
    full line.
    """
    spot, strike = cores
    x = math.log(K / S0) - r * T
    bond = math.exp(-r * T)
    f = (S0 * np.exp(1j * l * x + spot)
         - K * np.exp(1j * l * x + strike - r * T) - S0 + K * bond) / l
    return 0.5 * (S0 - K * bond) - (l[1] - l[0]) * np.sum(f.imag) / math.pi


class TestBranchTrap:
    """The textbook form with a principal log misprices long maturities.

    Both forms go through the same midpoint sum; only the cores differ.
    The exp(-w) cores of the library stay on the literal; the textbook
    ones are off by more than 0.1 at T = 5 and by far more at T = 30,
    the "little Heston trap" (Albrecher et al. 2007).
    """

    @pytest.mark.parametrize("T,miss", [(5.0, 0.1), (30.0, 10.0)])
    def test_textbook_form_misses_the_literal(self, T, miss):
        row = next(row for row in HESTON_ROWS
                   if row[0][3] == 0.9 and row[2] == T and row[3] == 100.0)
        p, call = _params(row), row[4]
        l = (np.arange(20_000) + 0.5) * 0.005
        # the spot core at l is the strike core at z = l + i
        exact = _midpoint_call((heston._strike_core(l, T, p, 1.0),
                                heston._strike_core(l, T, p)), l, 0.03, T,
                               100.0)
        assert abs(exact - call) <= TOL
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            textbook = _midpoint_call(_textbook_cores(l, p, T), l, 0.03, T,
                                      100.0)
        assert abs(textbook - call) > miss
