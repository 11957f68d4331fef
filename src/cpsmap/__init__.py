"""Trajectory-based quantum dynamics of finite-state systems on
constraint coordinate-momentum phase space.

The package estimates electronic time correlation functions
Tr[|n><m| U^dagger(t) |k><l| U(t)] as phase space averages over
spheres and complex Stiefel manifolds, with mapping-kernel method
families ranging from covariant-kernel estimators to window and
discrete-point schemes, and verifies them against a dense
matrix-exponential reference.
"""

from .cps import (
    ActionAngle,
    GammaWeight,
    StiefelPoint,
    StiefelSignature,
    action_angle,
    check_constraints,
    cmm_signature,
    gamma_wigner,
    gdtwa_signature,
    measure_norm,
    sample_gamma,
    sample_sphere,
    sample_sphere_batch,
    sample_stiefel,
)
from .dynamics import (
    DriftReport,
    TrajectorySegment,
    classical_energy,
    invariant_drift,
    propagate_exact,
    propagate_rk4,
    propagate_segment,
)
from .estimators import (
    IntraElectronReport,
    MethodSpec,
    TCFRequest,
    TCFResult,
    estimate_tcf,
    eval_window,
    hill_exponent,
    intra_electron_check,
)
from .kernels import (
    DiscretePointSet,
    KernelSpec,
    classify_kernel,
    eval_inverse_kernel,
    eval_kernel,
    gdtwa_points,
    point_from_kernel,
)
from .models import ModelSpec, build_hamiltonian, load_hamiltonian, save_hamiltonian
from .qcore import (
    SpectralDecomposition,
    UnitaryPropagator,
    exact_tcf,
    hermitian_eig,
    propagator,
    propagator_from_decomposition,
    require_hermitian,
)

__version__ = "0.1.0"

__all__ = [
    "ActionAngle",
    "DiscretePointSet",
    "DriftReport",
    "GammaWeight",
    "IntraElectronReport",
    "KernelSpec",
    "MethodSpec",
    "ModelSpec",
    "SpectralDecomposition",
    "StiefelPoint",
    "StiefelSignature",
    "TCFRequest",
    "TCFResult",
    "TrajectorySegment",
    "UnitaryPropagator",
    "action_angle",
    "build_hamiltonian",
    "check_constraints",
    "classical_energy",
    "classify_kernel",
    "cmm_signature",
    "estimate_tcf",
    "eval_inverse_kernel",
    "eval_kernel",
    "eval_window",
    "exact_tcf",
    "gamma_wigner",
    "gdtwa_points",
    "gdtwa_signature",
    "hermitian_eig",
    "hill_exponent",
    "intra_electron_check",
    "invariant_drift",
    "load_hamiltonian",
    "measure_norm",
    "point_from_kernel",
    "propagate_exact",
    "propagate_rk4",
    "propagate_segment",
    "propagator",
    "propagator_from_decomposition",
    "require_hermitian",
    "sample_gamma",
    "sample_sphere",
    "sample_sphere_batch",
    "sample_stiefel",
    "save_hamiltonian",
    "__version__",
]
