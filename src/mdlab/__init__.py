"""mdlab: a numerical laboratory for moderate-deviation behaviour of
stationary bounded sequences.

Finite-state lattice models get exact sum distributions, deviation
coefficients and mixing certificates; every explicit tail inequality in the
theory is evaluated against those exact oracles, and seeded Monte Carlo plus
a quantile-coupling construction cover what the oracles cannot reach.
"""

from .blocking import quadratic_characteristic_deviation
from .bounds import (
    bernstein_bound,
    berry_esseen_bound,
    cramer_envelope,
    envelope_curve,
    freedman_bound,
    gaussian_tail_sandwich,
    peligrad_bound,
    varsigma,
)
from .coefficients import (
    CoefficientSet,
    GateReport,
    CertifiedCoefficientBounds,
    admissibility,
    coefficient_set,
    eta_certificate,
    certified_coefficient_bounds,
    select_block_size,
)
from .coupling import (
    CouplingReport,
    QuantileTransform,
    build_quantile_transform,
    coupling_report,
    induced_atom_probabilities,
    sample_coupled_pairs,
)
from .exact import (
    ConditionalMoments,
    TailTable,
    conditional_block_moments,
    distribution_of_Sn,
    exact_lower_tail,
    exact_tail,
    ks_distance_exact,
    long_run_variance,
    quantile,
    sigma_n,
    tilted_log_tail,
)
from .models import (
    DecayCertificate,
    FiniteLatticeModel,
    SampledModel,
    Trajectory,
    build_finite_lattice_model,
    builtin,
    geometric_mixing_certificate,
    parse_model_text,
    phi_mixing_coefficients,
    sample_state_paths,
    sample_trajectory,
)
from .montecarlo import (
    MdpDiagnostic,
    RatioCurve,
    TailEstimate,
    empirical_ks,
    estimate_tails,
    mdp_diagnostic,
    ratio_curve,
    simulate_W,
    wilson_interval,
)

__version__ = "0.1.0"
