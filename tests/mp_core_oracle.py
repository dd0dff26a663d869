"""High-precision exponent cores for the tier-1 kernel oracle test.

Evaluates both exponent cores of the price integrand, the spot side on
nu(l) and the strike side on omega(l),

    spot core   = i l rho a/sigma + kappa a/sigma^2 - rho a/sigma + theta(l)
    strike core = i l rho a/sigma + kappa a/sigma^2 + upsilon(l),

with a = v0 + kappa theta T, in the paper's exp(-w) form with mpmath at
50 digits, sharing no code with ``hestoncir``.  A nonzero lam is mapped
to kappa + lam and kappa theta/(kappa + lam) first.  The form is the one
``heston._stable_nsh`` uses, log N = log 2 - w - log(denominator): the
textbook cosh/sinh form with a principal logarithm crosses a branch cut
at long maturity (the "little Heston trap").  At 50 digits the 1/sigma^2
cancellation of the near-deterministic cases still leaves more than 30.

The cases span the amplification 2(kappa theta + v0)/sigma^2 from below
1e0 to above 1e12, T from 0.02 to 30, |rho| up to 0.95, lam != 0, |l|
from 1e-3 to 316, and kappa < rho sigma (the spot side's b = kappa -
rho sigma + i l rho sigma with a negative real part).  Run
``python tests/mp_core_oracle.py`` to print the rows stored in
``tests/test_heston.py`` (under a second).
"""

import mpmath as mp

CASES = (   # (kappa, theta, sigma, rho, v0, lam, T, l)
    (1.0, 0.04, 0.2, -0.5, 0.04, 0.0, 1.0, 0.7),
    (1.0, 0.04, 0.2, -0.5, 0.04, 0.0, 30.0, -3.0),
    (1.0, 0.04, 0.2, -0.5, 0.04, 0.0, 0.02, 150.0),
    (1.0, 0.04, 0.2, -0.5, 0.04, 0.0, 1.0, -1e-3),
    (0.5, 0.2, 1.2, -0.3, 0.62, 0.0, 0.5, 2.0),
    (0.3, 0.1, 1.5, 0.95, 0.5, 0.0, 5.0, 0.01),
    (0.3, 0.1, 1.5, 0.95, 0.5, 0.0, 30.0, 1e-3),
    (0.6, 0.08, 0.9, 0.8, 0.1, -0.3, 2.0, -0.05),
    (0.7, 0.1, 0.8, 0.95, 0.08, -0.4, 1.0, 0.02),
    (0.7, 0.1, 0.8, 0.95, 0.08, -0.4, 10.0, 5.0),
    (0.2, 0.3, 1.0, 0.6, 0.3, 0.0, 20.0, 0.3),
    (1.5, 0.05, 0.5, -0.6, 0.04, 0.0, 5.0, 1.0),
    (3.0, 0.02, 0.4, 0.5, 0.01, -1.0, 0.5, -7.0),
    (0.8, 0.12, 0.7, -0.95, 0.15, 0.0, 10.0, 0.5),
    (4.0, 0.09, 0.25, -0.2, 0.12, 0.0, 0.25, -12.0),
    (2.0, 0.05, 0.3, -0.7, 0.03, 0.0, 30.0, 1e-3),
    (1.2, 0.03, 0.05, 0.3, 0.005, 0.0, 0.02, 316.0),
    (1.2, 0.03, 0.05, 0.3, 0.02, 0.0, 30.0, 2.5),
    (2.0, 0.05, 0.01, -0.7, 0.03, 0.0, 1.0, 10.0),
    (0.5, 0.06, 3e-3, 0.9, 0.1, 0.0, 0.02, 50.0),
    (2.0, 0.05, 1e-3, -0.7, 0.03, 0.0, 10.0, -1.5),
    (2.0, 0.05, 1e-3, -0.7, 0.03, 0.0, 0.02, 1e-3),
    (2.0, 0.05, 1e-4, -0.7, 0.03, 0.0, 0.1, 30.0),
    (2.0, 0.05, 1e-4, -0.7, 0.03, 0.0, 1.0, 3.16),
    (2.0, 0.05, 1e-4, -0.7, 0.03, 0.8, 3.0, -1.0),
    (2.0, 0.05, 3e-5, -0.7, 0.03, 0.0, 10.0, 0.3),
    (2.0, 0.05, 1e-5, -0.7, 0.03, 0.0, 1.0, -17.0),
    (1.0, 0.04, 1e-5, 0.0, 0.04, 0.0, 30.0, 0.4),
    (2.0, 0.05, 1e-6, -0.7, 0.03, 0.0, 30.0, 0.01),
    (5.0, 0.1, 1e-6, -0.95, 0.15, 0.5, 0.25, 10.0),
)


def core(side, kappa, theta, sigma, rho, v0, lam, t, l):
    """The spot or strike exponent core at one (parameters, T, l)."""
    kappa, theta, sigma, rho, v0, lam, t, l = (
        mp.mpf(v) for v in (kappa, theta, sigma, rho, v0, lam, t, l))
    kappa_theta = kappa * theta
    kappa = kappa + lam
    theta = kappa_theta / kappa
    i = mp.mpc(0, 1)
    sig2 = sigma * sigma
    if side == "spot":      # nu(l), M(l)
        radicand = (kappa / sigma + i * l * rho - rho) ** 2 + l * (l + i)
        b = kappa + i * l * rho * sigma - rho * sigma
    else:                   # omega(l), N(l)
        radicand = (kappa / sigma + i * l * rho) ** 2 + l * (l - i)
        b = kappa + i * l * rho * sigma
    freq = sigma / 2 * mp.sqrt(radicand)
    beta = b / (2 * freq)
    w = freq * t
    emw = mp.exp(-w)
    e2 = emw * emw
    denom = (1 + e2) + beta * (1 - e2)
    n = 2 * emw / denom
    log_n = mp.log(2) - w - mp.log(denom)
    g = ((1 + e2) - 2 * emw * n) / (1 - e2)
    a = v0 + kappa * theta * t
    exponent = -(2 * freq * v0 / sig2) * g + 2 * kappa * theta / sig2 * log_n
    offset = i * l * rho * a / sigma + kappa * a / sig2
    if side == "spot":
        offset -= rho * a / sigma
    return offset + exponent


def main():
    mp.mp.dps = 50
    for case in CASES:
        print("    (%s," % ", ".join(repr(v) for v in case))
        for side, end in (("spot", ","), ("strike", "),")):
            z = mp.exp(core(side, *case))
            print("     %s, %s%s" % (mp.nstr(z.real, 20),
                                     mp.nstr(z.imag, 20), end))


if __name__ == "__main__":
    main()
