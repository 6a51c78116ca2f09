"""Resonance-averaged weakly nonlinear-dissipative approximations on the torus."""

from .averaging import (
    AveragedDiffusion,
    ResonanceTable,
    apply_averaged_diffusion,
    apply_averaged_quadratic,
    apply_quadratic,
    averaged_diffusion,
    averaged_diffusion_oracle,
    build_resonance_table,
    cyclic_residual,
    quadratic_time_average_oracle,
)
from .dissipativity import (
    DissipativityReport,
    analyze_dissipativity,
    constructive_delta,
    kawashima_check,
    strict_criterion_search,
    verify_delta,
)
from .navier_stokes import (
    CnsModel,
    EquationOfState,
    TransportCoefficients,
    acoustic_basis,
    acoustic_diffusivity,
    acoustic_sum_resonant,
    build_cns_model,
    build_cns_spec,
    build_preset,
    ideal_gas,
    make_exact_resonance_rule,
    sound_speed,
    wcns_split,
)
from .solver import (
    BlowUpError,
    DiagnosticsSeries,
    WndOperators,
    build_operators,
    filtered_equivalence_check,
    rhs,
    simulate,
    step,
    weak_strong_experiment,
)
from .spectral import (
    FrequencyLattice,
    ModeDecomposition,
    Spectrum,
    frequency_spectrum,
)
from .state import (
    SpectralState,
    energy_norm,
    enforce_reality,
    evolve_state,
    gradient_norm,
    inner_product,
    random_real_state,
    sobolev_norm,
    state_from_modes,
    zero_state,
)
from .system import (
    EntropyReport,
    SystemSpec,
    advection_symbol,
    change_of_variables,
    diffusion_symbol,
    spec_from_dict,
    spec_to_dict,
    validate_entropy_structure,
)

__version__ = "0.1.0"
