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
and CIR rates with sigma_r from 0.3 down to 1e-6, and 0.

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
