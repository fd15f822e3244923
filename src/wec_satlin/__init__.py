"""Analytic amplitude/power tradeoffs for a current-limited wave energy converter.

Layered as: generic impedance-mismatch algebra on the reflection-coefficient
disk (:mod:`.mismatch`), the physical converter and its Thevenin reduction
(:mod:`.wec`), quasi-linear treatment of the current clip (:mod:`.descfcn`),
a nonlinear time-domain reference simulation (:mod:`.simulate`, on the
exact switched-affine propagator in :mod:`.propagate`), and a CLI
that sweeps (:mod:`.cli`) and writes CSV/SVG artifacts (:mod:`.emit`).
"""

from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    InfeasibleError,
    SimulationError,
    SingularityError,
    WecSatlinError,
)
from .mismatch import (
    MatchedBaseline,
    OperatingPoint,
    TheveninSource,
    amplitude_ratio,
    gamma_for_amplitude_target,
    gamma_from_z,
    matched_baseline,
    operating_point,
    optimal_angle,
    pareto_front,
    power_ratio,
    smith_grid,
    z_from_gamma,
)
from .wec import (
    NondimGroups,
    OperatingAmplitudes,
    WecPlant,
    alpha_from_nondim,
    constraint_amplitudes,
    haskind_force_amplitude,
    haskind_plant,
    matched_power,
    matched_power_from_plant,
    nondim_from_plant,
    optimal_alpha_m_for_limits,
    rescale_to_haskind,
    thevenin_from_plant,
)
from .descfcn import (
    HarmonicComponent,
    SaturationFactors,
    SaturationSolution,
    classic_sidf_power,
    equivalent_z,
    linear_saturation_equivalent,
    reconstruct_current,
    saturation_factor,
    saturation_factors,
    solve_operating_point,
)
from .simulate import (
    SimConfig,
    SimResult,
    ValidationReport,
    dump_waveforms,
    harmonic_decompose,
    low_pass_merit,
    simulate,
    validate_df,
)

__version__ = "0.1.0"
