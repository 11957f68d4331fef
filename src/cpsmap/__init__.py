"""Trajectory-based quantum dynamics of finite-state systems on
constraint coordinate-momentum phase space.

The package estimates electronic time correlation functions
Tr[|n><m| U^dagger(t) |k><l| U(t)] as phase space averages over
spheres and complex Stiefel manifolds, with mapping-kernel method
families ranging from covariant-kernel estimators to window and
discrete-point schemes, and verifies them against a dense
matrix-exponential reference.

The top level carries the names of the README's library example;
every other name is imported from its module (cpsmap.cps,
cpsmap.kernels, cpsmap.dynamics, cpsmap.estimators, cpsmap.models,
cpsmap.qcore).
"""

from .cps import gamma_wigner
from .estimators import MethodSpec, TCFRequest, TCFResult, estimate_tcf
from .models import ModelSpec, build_hamiltonian
from .qcore import exact_tcf

__version__ = "0.1.0"

__all__ = [
    "MethodSpec",
    "ModelSpec",
    "TCFRequest",
    "TCFResult",
    "build_hamiltonian",
    "estimate_tcf",
    "exact_tcf",
    "gamma_wigner",
    "__version__",
]
