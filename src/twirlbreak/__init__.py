"""Classically-correlated twirling environments that break entanglement for
single-system transmission while preserving it for two-system transmission."""

from .linalg import (
    DensityOperator,
    frobenius_distance,
    hermitian_eigenvalues,
    is_ppt,
    kron,
    negativity,
    partial_transpose,
)
from .states import (
    flip_operator,
    isotropic,
    max_entangled,
    singlet,
    werner_multi,
    werner_qubit,
)
from .channels import (
    DilatedChannel,
    KrausChannel,
    ProbabilityVector,
    apply_dilation,
    apply_kraus,
    correlated_pauli,
    env_is_classical,
    is_entanglement_breaking,
    local_depolarizing,
)
from .twirl import (
    HaarSampler,
    UnitarySet,
    clifford_group_qubit,
    mc_twirl,
    twirl_exact,
)
from .gaussian import (
    CovarianceMatrix,
    dephase_truncated,
    epr_cm,
    is_separable_two_mode,
    pt_symplectic_eigenvalues,
    quasi_normal_cm,
    separable_decomposition_dephased,
    solve_invariant_cm,
    symplectic_eigenvalues,
)

__version__ = "0.1.0"
