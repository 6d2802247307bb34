"""States of the su(1,1) discrete-series representations.

Coherent states of the raising-operator (exponential) and lowering-operator
(eigenvector) kind, their common nonlinear generalization, displaced number
states, Laguerre polynomial states, and the single-mode / two-photon /
two-mode bosonic realizations of all of them.  A `verify` command exposes
the numerical identity checks from the command line.  Everything else is
reachable through its module.
"""

__version__ = "0.1.0"

from .algebra import ConvergenceError, StateVector
from .displacement import (
    DisplacementParams,
    displacement_oracle,
    matrix_columns,
    matrix_element_hyp,
    matrix_element_sum,
)
from .states import LpsParams, bgcs, dns, lps, nlcs, nlcs_exponential, pcs
from .realizations import (
    AmplitudeSquared,
    HolsteinPrimakoff,
    TwoMode,
    map_to_fock,
    nbs,
    pair_coherent,
    squeezed_first,
    squeezed_vacuum,
    two_mode_squeezed_vacuum,
)
