"""Spectral renormalization for generalized spin-boson Hamiltonians on
truncated Fock spaces, with symmetry-protected degeneracy handling and dense
diagonalization cross-checks."""

from .config import load_model
from .fock import ModeGrid, FockBasis, OperatorMatrix, build_fock_basis
from .model import ModelSpec, build_hamiltonian, verify_hypotheses
from .rg import iterate_to_fixed_point, build_eigenvectors
from .oracle import dense_spectrum, compare

__all__ = [
    "load_model", "ModeGrid", "FockBasis", "OperatorMatrix",
    "build_fock_basis", "ModelSpec", "build_hamiltonian",
    "verify_hypotheses", "iterate_to_fixed_point",
    "build_eigenvectors", "dense_spectrum", "compare",
]

__version__ = "0.1.0"
