"""Driven and similarity-deformed two-state block toolkit.

Complex Bessel values and the kick sum from one Fourier quadrature,
root finding, dressed two-state block spectra with PT-phase
classification, driven amplitude dynamics in lab/interaction/gauged
frames integrated by RK4 step propagators, driven-vs-static
equivalence experiments, and the similarity-deformed
truncated-Fock-space model with its biorthogonal eigenfamilies and
metric identities.
"""

__version__ = "0.1.0"

from .bessel import (
    RootResult,
    bessel_j0,
    bessel_j1,
    kick_sum,
    solve_j0_equals,
)
from .jc import (
    DegenerateBlockError,
    DressedSpectrum,
    JcParams,
    PtPhase,
    PtPhaseKind,
    build_subspace_hamiltonian,
    classify_pt_phase,
    dressed_spectrum,
    t_block,
)
from .dynamics import (
    Frame,
    IntegrationError,
    ModulationSpec,
    ModulationTarget,
    OffResonanceWarning,
    Trajectory,
    averaged_effective_coupling,
    bind_averaged_rhs,
    bind_driven_rhs,
    bind_static_rhs,
    integrate,
    map_trajectory,
    read_trajectory_csv,
    suggested_step,
    write_trajectory_csv,
)
from .equivalence import (
    ComparisonReport,
    ExperimentConfig,
    convergence_sweep,
    run_equivalence_experiment,
    solve_modulation_beta,
)
from .fockspace import FockSpace, build_fock_operators, build_h0
from .pseudo import (
    BiorthogonalSystem,
    SimilarityMap,
    build_biorthogonal_system,
    build_similarity,
    diagnostics_record,
    eigen_residuals,
    energy_formula,
    metric_checks,
    pseudo_algebra_residuals,
    quasi_basis_check,
    t_alpha_diagonalization_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
