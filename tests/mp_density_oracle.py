"""High-precision marginal logreturn densities for the tier-1 oracle test.

Evaluates the paper's single Fourier integral for the density of the
drift-adjusted logreturn x_T = ln(S_T/S0) - mu T,

    f(x) = (1/2 pi) Re int exp(i l x + core(l)) dl,

with mpmath at 30 digits, sharing no code with ``hestoncir``.  The
strike-side core is evaluated in the paper's exp(-w) form, log N =
log 2 - w - log(denominator), which ``heston._core_half`` rearranges: the
textbook cosh/sinh form with a principal logarithm crosses a branch cut
at long maturity (the "little Heston trap").

Parameters are the suite's ``fig1_heston``; x is the mode (to four
decimals) and the mean -theta T/2 plus or minus 3 standard deviations
sqrt(theta T) (v0 = theta), for T = 0.02, 0.25, 1 and 30.  Run
``python tests/mp_density_oracle.py`` to print the literals stored in
``tests/test_heston.py`` (about 15 s on a 2-core VM).
"""

import mpmath as mp

KAPPA, THETA, SIGMA, RHO, V0 = 1.0, 0.04, 0.2, -0.5, 0.04

POINTS = (            # (T, x); the first x of each T is the mode
    (0.02, 0.0011), (0.02, -0.0852528137423857), (0.02, 0.08445281374238571),
    (0.25, 0.0127), (0.25, -0.305), (0.25, 0.295),
    (1.0, 0.0358), (1.0, -0.62), (1.0, 0.58),
    (30.0, -0.4325), (30.0, -3.8863353450309965),
    (30.0, 2.6863353450309964),
)


def core(l, t):
    """Strike-side exponent core: i l rho a/sigma + kappa a/sigma^2 + upsilon."""
    kappa, theta, sigma, rho, v0 = (mp.mpf(v) for v in
                                    (KAPPA, THETA, SIGMA, RHO, V0))
    t = mp.mpf(t)
    il = mp.mpc(0, 1) * l
    sig2 = sigma * sigma
    omega = sigma / 2 * mp.sqrt((kappa / sigma + il * rho) ** 2
                                + l * (l - mp.mpc(0, 1)))
    beta = (kappa + il * rho * sigma) / (2 * omega)
    w = omega * t
    emw = mp.exp(-w)
    e2 = emw * emw
    denom = (1 + e2) + beta * (1 - e2)
    n = 2 * emw / denom
    log_n = mp.log(2) - w - mp.log(denom)
    g = ((1 + e2) - 2 * emw * n) / (1 - e2)
    a = v0 + kappa * theta * t
    upsilon = -(2 * omega * v0 / sig2) * g + 2 * kappa * theta / sig2 * log_n
    return il * rho * a / sigma + kappa * a / sig2 + upsilon


def density(x, t):
    x = mp.mpf(x)

    def integrand(l):
        return mp.re(mp.exp(mp.mpc(0, 1) * l * x + core(l, t)))

    return mp.quad(integrand, [-mp.inf, -50, -10, 0, 10, 50, mp.inf]) \
        / (2 * mp.pi)


def main():
    mp.mp.dps = 30
    for t, x in POINTS:
        print("    (%r, %r, %s)," % (t, x, mp.nstr(density(x, t), 20)))


if __name__ == "__main__":
    main()
