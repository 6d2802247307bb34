"""States of the su(1,1) discrete-series representations.

Coherent states of the raising-operator (exponential) and lowering-operator
(eigenvector) kind, their common nonlinear generalization, displaced number
states, Laguerre polynomial states, and the single-mode / two-photon /
two-mode bosonic realizations of all of them.  A `verify` command exposes
the numerical identity checks from the command line.
"""

__version__ = "0.1.0"

from .algebra import (
    CommutatorResiduals,
    ConvergenceError,
    GdoResiduals,
    NonlinearFunction,
    StateVector,
    apply_diag,
    apply_k0,
    apply_kminus,
    apply_kplus,
    apply_number,
    basis_state,
    casimir_residual,
    commutator_residuals,
    eigen_residual_lowering,
    gdo_residuals,
    kplus_truncation_loss,
    ladder_function_from_state,
    ladder_residual_general,
    mus_expectation,
    mus_residual,
    structure_function,
)
from .displacement import (
    DisplacementParams,
    MatrixElementTable,
    decomposed_apply,
    displacement_oracle,
    matrix_column,
    matrix_element_hyp,
    matrix_element_sum,
    matrix_table,
    xi_from_alpha,
)
from .states import (
    LpsParams,
    bgcs,
    dns,
    laguerre_prestate,
    lps,
    nlcs,
    nlcs_exponential,
    pcs,
)
from .realizations import (
    AmplitudeSquared,
    FockVector,
    HolsteinPrimakoff,
    TwoMode,
    TwoModeFockVector,
    distribution_mean,
    distribution_variance,
    mandel_q,
    map_to_fock,
    parity_sector_element,
    nbs,
    nbs_ladder_residual,
    pair_coherent,
    photon_distribution,
    squeezed_first,
    squeezed_vacuum,
    two_mode_nlcs_residual,
    two_mode_squeezed_vacuum,
    two_photon_nlcs_residual,
)
