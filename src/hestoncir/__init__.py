"""Vanilla option pricing under Heston stochastic volatility, with an
optional CIR stochastic interest rate, verified by Monte Carlo."""

from .heston import (
    PricingError,
    big_m_of_l,
    big_n_of_l,
    critical_moments,
    heston_call_price,
    heston_price_with_diagnostics,
    marginal_density,
    marginal_density_grid,
    nu_of_l,
    omega_of_l,
    price_integrand,
    price_via_density,
)
from .hybrid import (
    RateKernelTerms,
    cir_bond_price,
    deterministic_average_rate,
    hybrid_call_price,
    hybrid_price_integrand,
    hybrid_price_with_diagnostics,
    rate_kernel,
)
from .mc import (
    McConfig,
    McEstimate,
    cir_exact_step,
    mc_price_bs,
    mc_price_heston_euler,
    mc_price_hybrid,
    simulate_average_rates,
    simulate_heston_terminal,
)
from .models import (
    CirRateParams,
    FellerReport,
    HestonParams,
    VanillaOption,
    bs_price,
    feller_check,
    risk_neutral_map,
)
from .numerics import (
    QuadratureConfig,
    QuadratureError,
    QuadratureResult,
    RngStream,
    integrate_half_line,
    integrate_interval,
    integrate_real_line,
    sample_noncentral_chisq,
)

__version__ = "0.1.0"
