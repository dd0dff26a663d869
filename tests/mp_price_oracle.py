"""High-precision vanilla call prices for the tier-1 price oracle test.

Evaluates the paper's single braced integral for the call price,

    C = (S0 - K B)/2 + (i/2 pi) int (S0 e^{i l x + spot(l)}
                                     - K e^{i l x + strike(l)}
                                     - S0 + K B) / l dl,

with mpmath at 30 digits, sharing no code with ``hestoncir``.  The
exponent cores are those of ``tests/mp_core_oracle.py``, in the paper's
exp(-w) form (the textbook cosh/sinh form with a principal logarithm
crosses a branch cut at long maturity, the "little Heston trap").  The
integrand is conjugate-antisymmetric, f(-l) = -conj f(l), so the price
is (S0 - K B)/2 - (1/pi) int_0^inf Im f(l) dl, taken by ``mp.quad`` on
[0, 5, 20, 50, 100, 200, 500, inf].

With a constant rate r, x = ln(K/S0) - r T, the strike exponent is the
strike core less r T and B = e^{-rT}.  With a CIR rate, x = ln(K/S0),
each exponent adds the rate core of its side, and B is the exp of the
strike rate core at l = 0, the CIR bond.  sigma_r = 0 is the constant
rate at the deterministic average rate.

The quotes span T from 0.02 to 30, sigma from 1e-6 to 1.5, |rho| up to
0.95, lam != 0, kappa < rho sigma, deep in- and out-of-the-money
strikes, the fat-tail cells of ``TestPriceViaDensitySweep`` (sigma 0.5,
rho 0.9, T 5 and 30), the ``mc_verify`` benchmark band at three rates,
CIR rates with sigma_r from 0.3 down to 1e-6, and 0, and five
``scatter`` benchmark quotes (seeds 0, 1 and 3) that a contour Im z = c
fixed at -1/2 or -1, past half the critical moment w-, misprices by
0.04 to 893 while its integral converges.

Run ``python tests/mp_price_oracle.py`` to print the rows stored in
``tests/test_price_oracle.py`` (MP_PRICES), with each integral's
error estimate on stderr, in about 70 s on a 2-core VM.
"""

import sys

import mpmath as mp

from mp_core_oracle import core, rate_core

S0 = 100.0

# (kappa, theta, sigma, rho, v0, lam); STEEP violates Feller and has
# kappa < rho sigma
FIG1 = (1.0, 0.04, 0.2, -0.5, 0.04, 0.0)
BAND = (1.75, 0.045, 0.45, -0.65, 0.04, 0.0)
FAT = (1.5, 0.05, 0.5, 0.9, 0.04, 0.0)
STEEP = (0.3, 0.1, 1.5, 0.95, 0.5, 0.0)
WILD = (0.8, 0.12, 1.0, -0.95, 0.15, 0.0)
LAM = (2.0, 0.05, 0.3, -0.7, 0.03, 0.8)

# (kappa_r, theta_r, sigma_r, r0)
FIG1_RATE = (1.8, 0.03, 0.1, 0.035)
FIG2_RATE = (0.5, 0.03, 0.3, 0.035)
BAND_RATE = (1.25, 0.03, 0.1, 0.03)

QUOTES = (   # (kappa, theta, sigma, rho, v0, lam), rate r or CIR tuple, T, K
    (FIG1, 0.03, 0.02, 100.0),
    (FIG1, 0.03, 0.02, 95.0),
    (FIG1, 0.03, 0.25, 100.0),
    (FIG1, 0.03, 0.25, 130.0),
    (FIG1, 0.0, 1.0, 100.0),
    (FIG1, 0.03, 1.0, 100.0),
    (FIG1, 0.08, 1.0, 100.0),
    (FIG1, 0.03, 1.0, 60.0),
    (FIG1, 0.03, 1.0, 160.0),
    (FIG1, 0.03, 5.0, 100.0),
    (FIG1, 0.03, 30.0, 100.0),
    (FIG1, 0.03, 30.0, 400.0),
    ((2.0, 0.05, 1e-6, -0.7, 0.03, 0.0), 0.03, 1.0, 105.0),
    ((2.0, 0.05, 1e-4, -0.7, 0.03, 0.0), 0.03, 10.0, 100.0),
    ((2.0, 0.05, 0.01, -0.7, 0.03, 0.0), 0.03, 0.5, 95.0),
    ((4.0, 0.09, 0.25, -0.2, 0.12, 0.0), 0.03, 0.25, 100.0),
    (STEEP, 0.03, 0.5, 100.0),
    (STEEP, 0.03, 5.0, 120.0),
    (STEEP, 0.03, 30.0, 100.0),
    (WILD, 0.03, 2.0, 90.0),
    (LAM, 0.03, 3.0, 100.0),
    ((0.7, 0.1, 0.8, 0.95, 0.08, -0.4), 0.03, 1.0, 110.0),
    (FAT, 0.03, 5.0, 100.0),
    (FAT, 0.03, 30.0, 100.0),
    (FAT, 0.03, 30.0, 150.0),
    (BAND, 0.02, 1.2, 103.0),
    (BAND, 0.03, 1.2, 103.0),
    (BAND, 0.04, 1.2, 103.0),
    (FIG1, FIG1_RATE, 0.1, 120.0),
    (FIG1, FIG1_RATE, 1.0, 100.0),
    (FIG1, FIG1_RATE, 10.0, 100.0),
    (FIG1, FIG1_RATE, 30.0, 150.0),
    (FIG1, FIG2_RATE, 1.0, 100.0),
    (FIG1, FIG2_RATE, 5.0, 80.0),
    (FIG1, (1.8, 0.03, 1e-3, 0.035), 2.0, 100.0),
    (FIG1, (1.8, 0.03, 1e-4, 0.035), 10.0, 100.0),
    (FIG1, (1.8, 0.03, 1e-5, 0.035), 1.0, 110.0),
    (FIG1, (1.8, 0.03, 1e-6, 0.035), 0.5, 100.0),
    (FIG1, (1.8, 0.03, 0.0, 0.035), 2.0, 100.0),
    (FIG1, (1.8, 0.03, 0.0, 0.035), 30.0, 100.0),
    (BAND, BAND_RATE, 1.2, 103.0),
    (WILD, FIG2_RATE, 2.0, 100.0),
    (LAM, FIG1_RATE, 3.0, 90.0),
    # scatter quotes on which a fixed contour Im z = c prices a converged
    # but wrong integral: the first four at c = -1/2, the last at c = -1
    ((0.6470645420202017, 0.014540848845123928, 0.7330601633422388,
      -0.7927392148281927, 0.006515486184457602, -0.28741184555730115),
     0.011784955351616855, 25.4261447721671, 99.9078),
    ((1.099123689706229, 0.09029500644497898, 0.98247984351886,
      -0.8362093292917634, 0.053421903063802394, -0.0725018780096609),
     (2.3529550572988596, 0.06683312704439343, 0.10326265170392034,
      0.04263628944564945), 8.998288661544272, 1927.7733),
    ((0.5496844680447409, 0.04559584091328193, 0.5999573649963715,
      -0.360716323855241, 0.0176647440007135, -0.019175316550248123),
     0.07956604925261797, 28.760344506773265, 2577.6268),
    ((0.6677958538971216, 0.08135949538494495, 0.7974041177215703,
      -0.23245179410947792, 0.1313450058022297, 0.0),
     (1.3462561824306447, 0.07841017883351567, 1.3907582123942162e-05,
      0.04688373278236806), 18.59499893165206, 19.3803),
    ((1.8306434054955893, 0.08386574024813853, 0.9041231923863087,
      -0.7062447704153142, 0.028821524484741866, 0.0),
     0.03056075298793272, 14.567515074878482, 1619.1444),
)

BREAKS = [0, 5, 20, 50, 100, 200, 500, mp.inf]


def deterministic_average_rate(kappa_r, theta_r, r0, t):
    """Time average over [0, t] of the sigma_r = 0 rate path."""
    kappa_r, theta_r, r0, t = (mp.mpf(v) for v in (kappa_r, theta_r, r0, t))
    return theta_r + (r0 - theta_r) * -mp.expm1(-kappa_r * t) \
        / (kappa_r * t)


def call_price(params, rate, t, strike):
    """The call price, and the quadrature's error estimate."""
    s0, k, tm = mp.mpf(S0), mp.mpf(strike), mp.mpf(t)
    if isinstance(rate, tuple) and rate[2] == 0.0:
        rate = deterministic_average_rate(rate[0], rate[1], rate[3], t)
    if isinstance(rate, tuple):
        x = mp.log(k / s0)
        shift = 0

        def rate_cores(l):
            return (rate_core("spot", *rate, t, l),
                    rate_core("strike", *rate, t, l))

        bond = mp.re(mp.exp(rate_core("strike", *rate, t, 0)))
    else:
        r = mp.mpf(rate)
        x = mp.log(k / s0) - r * tm
        shift = -r * tm

        def rate_cores(l):
            return 0, 0

        bond = mp.exp(-r * tm)

    def integrand(l):
        rs, rk = rate_cores(l)
        phase = mp.mpc(0, 1) * l * x
        spot = s0 * mp.exp(phase + core("spot", *params, t, l) + rs)
        strk = k * mp.exp(phase + core("strike", *params, t, l) + rk
                          + shift)
        return mp.im((spot - strk - s0 + k * bond) / l)

    integral, err = mp.quad(integrand, BREAKS, error=True)
    return (s0 - k * bond) / 2 - integral / mp.pi, err / mp.pi


def main():
    mp.mp.dps = 30
    print("MP_PRICES = (")
    for params, rate, t, strike in QUOTES:
        price, err = call_price(params, rate, t, strike)
        print("    (%r,\n     %r, %r, %r, %s)," % (params, rate, t, strike,
                                                 mp.nstr(price, 20)))
        print("%s %s" % (mp.nstr(price, 20), mp.nstr(err, 3)),
              file=sys.stderr)
    print(")")


if __name__ == "__main__":
    main()
