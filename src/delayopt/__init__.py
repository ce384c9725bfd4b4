"""Numerical toolkit for discounted stochastic control with delays.

Modules:
    core       grids, segments, lifted states, kernels, problem data
    operators  shift semigroup, dissipative generator, weak norm, Gram spectrum
    sdde       Euler-Maruyama simulation of the delay equation, costs
    lift       mild simulation in the lifted space, agreement reports
    hjb        lag-chain reduction, modified policy iteration, probes, feedback
    models     portfolio and advertising constructors, affine test family
    cli        command line entry point
"""

__version__ = "0.1.0"

from .core import (
    Kernel,
    LiftedState,
    ProblemSpec,
    Segment,
    SegmentGrid,
    kernel_convolve,
    lifted_inner,
    lifted_norm,
    resample_segment,
    validate_kernel,
)
from .operators import (
    apply_generator,
    apply_generator_inverse,
    apply_shift_semigroup,
    assemble_gram_operator,
    dissipativity_form,
    generator_inverse_form,
    minus_one_norm,
    spectral_decomposition,
)
from .sdde import (
    OpenLoopControl,
    mc_cost,
    simulate_sdde,
)
from .lift import (
    contraction_probe,
    equivalence_report,
    lift_history,
    simulate_mild,
    with_resolution,
)
from .hjb import (
    LagChainSpec,
    PolicyField,
    ValueField,
    b_continuity_probe,
    discount_floor,
    dpp_gap,
    extract_feedback,
    hamiltonian,
    hjb_residual,
    lipschitz_discount_threshold,
    max_growth_exponent,
    policy_mc_value,
    reduce_to_lag_chain,
    regularity_probe,
    truncation_horizon,
    truncation_tail_bound,
    value_iteration,
)
from .models import (
    AdvertisingParams,
    MertonParams,
    build_advertising,
    build_affine_test,
    build_merton,
    build_problem,
    initial_state,
    load_spec_file,
    merton_classical_oracle,
)
