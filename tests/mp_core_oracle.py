"""High-precision exponent cores for the tier-1 kernel oracle tests.

Evaluates both volatility exponent cores of the price integrand, the
spot side on nu(l) and the strike side on omega(l),

    spot core   = i l rho a/sigma + kappa a/sigma^2 - rho a/sigma + theta(l)
    strike core = i l rho a/sigma + kappa a/sigma^2 + upsilon(l),

with a = v0 + kappa theta T, in the paper's exp(-w) form with mpmath at
50 digits, sharing no code with ``hestoncir``.  A nonzero lam is mapped
to kappa + lam and kappa theta/(kappa + lam) first.  The form is the
paper's exp(-w) one, log N = log 2 - w - log(denominator) with
N = 1/(cosh w + beta sinh w) and beta = b/(2 freq), which
``heston._core_half`` rearranges: the textbook cosh/sinh form with a principal logarithm crosses a branch cut
at long maturity (the "little Heston trap").  At 50 digits the 1/sigma^2
cancellation of the near-deterministic cases still leaves more than 30.

The cases span the amplification 2(kappa theta + v0)/sigma^2 from below
1e0 to above 1e12, T from 0.02 to 30, |rho| up to 0.95, lam != 0, |l|
from 1e-3 to 316, and kappa < rho sigma (the spot side's b = kappa -
rho sigma + i l rho sigma with a negative real part).

It also evaluates both CIR rate cores of the hybrid integrand in the
same form, with b = kappa_r, freq = sqrt(kappa_r^2 + sigma_r^2 l2)/2
and l2 = 2 i l (spot side, nu_r) or 2(i l + 1) (strike side, omega_r):

    rate core = kappa_r a_r/sigma_r^2 - (2 freq r0/sigma_r^2) g
                + (2 kappa_r theta_r/sigma_r^2) log N,

with a_r = r0 + kappa_r theta_r T and g = (cosh w - N)/sinh w.  Those
cases span sigma_r from 1e-6 to 0.3 (the amplification 2(kappa_r
theta_r + r0)/sigma_r^2 from about 1 to 2e11; eight cases have sigma_r
in 3e-5 to 1e-4, around the 1e8 where a direct form of the rate cores
loses up to 1.5e-7), T from 0.02 to 30 and |l| from 1e-3 to 316.

It also evaluates the strike cores, volatility and rate, at complex
z = l + i c on the pricers' contour, Im z = c < 0 within the strip of
E[exp(c x_T)]: b = kappa + i z rho sigma has the real part kappa -
rho sigma c, negative in four volatility cases (rho < 0, sigma |c| >
kappa) and positive in the others, among them kappa < rho sigma at
T = 5 and 30, lam != 0, sigma and sigma_r 1e-6, and the contours of
three benchmark quotes (one at T = 25.4, c = -1/16 against w- = 0.17).

It also finds the critical moments w- and w+ of x_T at 30 digits:
E[exp(s x_T)] is finite for -w- < s < w+, and each end is the first
zero, outward from s = 0, of the moment's explosion denominator

    D(s) = cosh(f T) + b/(2 f) sinh(f T),
    2 f = sqrt(b^2 + sigma^2 s (1 - s)),  b = kappa - rho sigma s,

which is real on either sign of 4 f^2 (Andersen and Piterbarg 2007).
A scan in steps of 0.01 finds the first s with D <= 0, and bisection
on D narrows it to 30 digits.  The cases are the benchmark's market at
T = 0.5, 1 and 2, the fat right tail (rho 0.9) at T = 30, a fat left
tail at T = 6.74, and kappa < rho sigma with lam != 0.

Run ``python tests/mp_core_oracle.py`` to print the rows stored in
``tests/test_heston.py`` (MP_CORES, MP_CONTOUR_CORES,
MP_CRITICAL_MOMENTS) and ``tests/test_hybrid.py`` (MP_RATE_CORES,
MP_CONTOUR_RATE_CORES), in a few seconds.
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


RATE_CASES = (   # (kappa_r, theta_r, sigma_r, r0, T, l)
    (1.8, 0.03, 0.1, 0.035, 1.0, 0.7),
    (1.8, 0.03, 0.1, 0.035, 30.0, -3.0),
    (0.5, 0.03, 0.3, 0.035, 0.02, 316.0),
    (0.5, 0.03, 0.3, 0.035, 10.0, 1e-3),
    (0.5, 0.03, 0.3, 0.035, 5.0, -20.0),
    (0.2, 0.06, 0.15, 0.01, 30.0, 0.05),
    (3.0, 0.02, 0.05, 0.05, 0.25, -12.0),
    (1.8, 0.03, 0.02, 0.035, 2.0, 1.5),
    (1.8, 0.03, 3e-3, 0.035, 0.5, -50.0),
    (1.8, 0.03, 1e-3, 0.035, 10.0, 0.3),
    (1.8, 0.03, 1e-4, 0.035, 1.0, 3.16),
    (1.8, 0.03, 1e-4, 0.035, 0.1, -100.0),
    (1.8, 0.03, 7e-5, 0.035, 10.0, 0.01),
    (1.8, 0.03, 5e-5, 0.035, 1.0, -1.0),
    (0.9, 0.04, 6e-5, 0.02, 3.0, 7.0),
    (1.8, 0.03, 4.3e-5, 0.035, 0.1, 30.0),
    (1.8, 0.03, 4e-5, 0.035, 30.0, 1e-3),
    (1.8, 0.03, 3e-5, 0.035, 5.0, -0.5),
    (1.8, 0.03, 1e-5, 0.035, 0.02, 316.0),
    (0.3, 0.05, 1e-6, 0.001, 1.0, -2.0),
    (1.8, 0.03, 1e-6, 0.035, 30.0, 0.01),
)


CONTOUR_CASES = (   # (kappa, theta, sigma, rho, v0, lam, T, l, c)
    (1.0, 0.04, 0.2, -0.5, 0.04, 0.0, 1.0, 0.7, -1.0),
    (1.0, 0.04, 0.2, -0.5, 0.04, 0.0, 0.02, 150.0, -1.0),
    (1.0, 0.04, 0.2, -0.5, 0.04, 0.0, 30.0, 1e-3, -1.0),
    (0.3, 0.1, 1.5, -0.9, 0.5, 0.0, 1.0, 0.5, -0.5),
    (0.3, 0.1, 1.5, -0.9, 0.5, 0.0, 0.25, 1e-3, -1.0),
    (0.8, 0.12, 1.0, -0.95, 0.15, 0.0, 0.5, 3.0, -1.0),
    (0.5, 0.06, 1.2, -0.8, 0.1, 0.0, 0.5, 40.0, -1.0),
    (0.3, 0.1, 1.5, 0.95, 0.5, 0.0, 30.0, 0.01, -0.03125),
    (0.3, 0.1, 1.5, 0.95, 0.5, 0.0, 5.0, 2.0, -0.25),
    (0.7, 0.1, 0.8, 0.95, 0.08, -0.4, 10.0, 5.0, -0.5),
    (0.6470645420202017, 0.014540848845123928, 0.7330601633422388,
     -0.7927392148281927, 0.006515486184457602, -0.28741184555730115,
     25.4261447721671, 0.05, -0.0625),
    (2.0, 0.05, 1e-4, -0.7, 0.03, 0.8, 3.0, 1.0, -1.0),
    (2.0, 0.05, 1e-6, -0.7, 0.03, 0.0, 30.0, 0.01, -1.0),
    (5.0, 0.1, 1e-6, -0.95, 0.15, 0.5, 0.25, 10.0, -1.0),
)


RATE_CONTOUR_CASES = (   # (kappa_r, theta_r, sigma_r, r0, T, l, c)
    (1.8, 0.03, 0.1, 0.035, 1.0, 0.7, -1.0),
    (0.5, 0.03, 0.3, 0.035, 30.0, 1e-3, -0.5),
    (2.3529550572988596, 0.06683312704439343, 0.10326265170392034,
     0.04263628944564945, 8.998288661544272, 2.0, -0.125),
    (1.3462561824306447, 0.07841017883351567, 1.3907582123942162e-05,
     0.04688373278236806, 18.59499893165206, 0.3, -0.125),
    (1.8, 0.03, 1e-6, 0.035, 0.02, 316.0, -1.0),
)


MOMENT_CASES = (   # (kappa, theta, sigma, rho, v0, lam, T)
    (1.75, 0.045, 0.45, -0.65, 0.04, 0.0, 0.5),
    (1.75, 0.045, 0.45, -0.65, 0.04, 0.0, 1.0),
    (1.75, 0.045, 0.45, -0.65, 0.04, 0.0, 2.0),
    (1.5, 0.05, 0.5, 0.9, 0.04, 0.0, 30.0),
    (0.12578862725835402, 0.02712460215111761, 1.0164207908490666,
     -0.9346146377940443, 0.14253016426158838, 0.0, 6.742206184121839),
    (0.7, 0.1, 0.8, 0.95, 0.08, -0.4, 10.0),
)


def _exp_w(freq, b, t):
    """(log N, g) of N = 1/(cosh w + beta sinh w), w = freq t, via exp(-w).

    g = (cosh w - N)/sinh w; beta = b/(2 freq).
    """
    w = freq * t
    emw = mp.exp(-w)
    e2 = emw * emw
    denom = (1 + e2) + b / (2 * freq) * (1 - e2)
    n = 2 * emw / denom
    log_n = mp.log(2) - w - mp.log(denom)
    return log_n, ((1 + e2) - 2 * emw * n) / (1 - e2)


def core(side, kappa, theta, sigma, rho, v0, lam, t, l):
    """The spot or strike exponent core at one (parameters, T, l); l
    may be complex."""
    kappa, theta, sigma, rho, v0, lam, t, l = (
        mp.mpmathify(v) for v in (kappa, theta, sigma, rho, v0, lam, t, l))
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
    log_n, g = _exp_w(freq, b, t)
    a = v0 + kappa * theta * t
    exponent = -(2 * freq * v0 / sig2) * g + 2 * kappa * theta / sig2 * log_n
    offset = i * l * rho * a / sigma + kappa * a / sig2
    if side == "spot":
        offset -= rho * a / sigma
    return offset + exponent


def rate_core(side, kappa_r, theta_r, sigma_r, r0, t, l):
    """The spot or strike rate core at one (rate parameters, T, l); l
    may be complex."""
    kappa_r, theta_r, sigma_r, r0, t, l = (
        mp.mpmathify(v) for v in (kappa_r, theta_r, sigma_r, r0, t, l))
    i = mp.mpc(0, 1)
    sig2 = sigma_r * sigma_r
    l2 = 2 * i * l if side == "spot" else 2 * (i * l + 1)
    freq = mp.sqrt(kappa_r * kappa_r + sig2 * l2) / 2
    log_n, g = _exp_w(freq, kappa_r, t)
    a_r = r0 + kappa_r * theta_r * t
    return kappa_r * a_r / sig2 - (2 * freq * r0 / sig2) * g \
        + 2 * kappa_r * theta_r / sig2 * log_n


def explosion_denominator(kappa, sigma, rho, lam, t, s):
    """D(s) = cosh(f T) + b/(2 f) sinh(f T), real for real s."""
    kappa = kappa + lam
    b = kappa - rho * sigma * s
    freq = mp.sqrt(mp.mpc(b * b + sigma * sigma * s * (1 - s))) / 2
    return mp.re(mp.cosh(freq * t) + b / (2 * freq) * mp.sinh(freq * t))


def critical_moment(sign, kappa, theta, sigma, rho, v0, lam, t):
    """w+ (sign 1) or w- (sign -1): the first zero of D along sign * s."""
    kappa, sigma, rho, lam, t = (mp.mpf(v)
                                 for v in (kappa, sigma, rho, lam, t))

    def dee(s):
        return explosion_denominator(kappa, sigma, rho, lam, t, sign * s)
    step = mp.mpf("0.01")
    lo = mp.mpf(0)
    while dee(lo + step) > 0:
        lo += step
    hi = lo + step
    for _ in range(110):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if dee(mid) > 0 else (lo, mid)
    return lo


def _print_rows(name, cases, fn):
    print("%s = (" % name)
    for case in cases:
        print("    (%s," % ", ".join(repr(v) for v in case))
        for side, end in (("spot", ","), ("strike", "),")):
            z = mp.exp(fn(side, *case))
            print("     %s, %s%s" % (mp.nstr(z.real, 20),
                                     mp.nstr(z.imag, 20), end))
    print(")")


def _print_contour_rows(name, cases, fn):
    """exp of the strike core at z = l + i c, the last two of a case."""
    print("%s = (" % name)
    for case in cases:
        print("    (%s," % ", ".join(repr(v) for v in case))
        z = mp.exp(fn("strike", *case[:-2], mp.mpc(*case[-2:])))
        print("     %s, %s)," % (mp.nstr(z.real, 20), mp.nstr(z.imag, 20)))
    print(")")


def main():
    mp.mp.dps = 50
    _print_rows("MP_CORES", CASES, core)
    _print_rows("MP_RATE_CORES", RATE_CASES, rate_core)
    _print_contour_rows("MP_CONTOUR_CORES", CONTOUR_CASES, core)
    _print_contour_rows("MP_CONTOUR_RATE_CORES", RATE_CONTOUR_CASES,
                        rate_core)
    mp.mp.dps = 30
    print("MP_CRITICAL_MOMENTS = (")
    for case in MOMENT_CASES:
        print("    (%s," % ", ".join(repr(v) for v in case))
        print("     %s, %s)," % tuple(
            mp.nstr(critical_moment(sign, *case), 20) for sign in (-1, 1)))
    print(")")


if __name__ == "__main__":
    main()
