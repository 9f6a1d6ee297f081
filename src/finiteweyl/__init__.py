"""Finite-dimensional quantum mechanics over rational Weyl algebras.

The library materializes a finite model of quantum mechanics: rational
Weyl algebras A(a,b) at roots of unity, their irreducible clock/shift
modules with canonical bases, the divisibility lattice and local
embeddings between modules, regular unitary transformations with
SL(2,Q) bookkeeping, and Dirac-rescaled finite-N propagators and traces
that reproduce the continuum closed forms.

All algebraic layers work in exact cyclotomic arithmetic: one number
class, `Scalar`, holds sqrt(r) times an element of Q(zeta_M), r a
squarefree integer; the numeric layer evaluates large-N kernels in floats.  Values are immutable after
construction, so everything here is safe to share across threads.

The names below are resolved on first access, so `import finiteweyl`
loads no submodule, and numpy is imported only by code that builds
float arrays.
"""

import importlib

# Each public name and the submodule that defines it.
_EXPORTS = {
    "ConvergenceReport": "dirac", "KernelSample": "dirac", "ScaleParams": "dirac",
    "TraceResult": "dirac", "auto_mu": "dirac", "ccr_residual": "dirac",
    "converge_study": "dirac", "free_propagator": "dirac", "qho_propagator": "dirac",
    "qho_trace": "dirac", "st_mu": "dirac",
    "Scalar": "exactnum",
    "gauss_sum": "exactnum", "root_of_unity": "exactnum",
    "GenWord": "lattice", "SpecPoint": "lattice", "WeylDesc": "lattice", "center": "lattice",
    "includes": "lattice", "join": "lattice", "maximal_commutative": "lattice", "q_order": "lattice",
    "spectrum_project": "lattice", "up_functor": "lattice",
    "Embedding": "morphism", "PairingResult": "morphism", "decompose": "morphism",
    "embed_pbeta": "morphism", "pairing": "morphism", "pairing_row_sum": "morphism",
    "ModuleRep": "repmod", "StateVec": "repmod",
    "apply_word": "repmod", "build_module": "repmod", "inner": "repmod",
    "s_basis": "repmod", "u_basis": "repmod", "v_basis": "repmod",
    "ConjugationReport": "transform", "RegUnitary": "transform", "compose": "transform",
    "diagonal": "transform", "fourier": "transform", "free_evolution": "transform",
    "gaussian": "transform", "qho_evolution": "transform",
    "verify_conjugation": "transform",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    """Import the submodule that defines `name` (PEP 562) and cache the value."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    """The exports too, before their first access, as an eager import listed them."""
    return sorted(set(globals()) | set(_EXPORTS))
