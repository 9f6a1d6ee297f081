"""Finite-dimensional quantum mechanics over rational Weyl algebras.

The library materializes a finite model of quantum mechanics: rational
Weyl algebras A(a,b) at roots of unity, their irreducible clock/shift
modules with canonical bases, the divisibility lattice and local
embeddings between modules, regular unitary transformations with
SL(2,Q) bookkeeping, and Dirac-rescaled finite-N propagators and traces
that reproduce the continuum closed forms.

All algebraic layers work in exact cyclotomic arithmetic (elements of
Q(zeta_M) scaled by square roots of rationals); the numeric layer
evaluates large-N kernels in floats.  Values are immutable after
construction, so everything here is safe to share across threads.
"""

from .dirac import (
    ConvergenceReport,
    KernelSample,
    RescaleCtx,
    ScaleParams,
    TraceResult,
    auto_mu,
    ccr_residual,
    converge_study,
    delta_k,
    dirac_inner,
    free_propagator,
    qho_propagator,
    qho_trace,
    st_mu,
    xp_kernel,
)
from .exactnum import Cyc, Scalar, conjugate, eval_complex, gauss_sum, root_of_unity
from .lattice import (
    AutDesc,
    GenWord,
    WeylDesc,
    apply_automorphism,
    center,
    includes,
    join,
    maximal_commutative,
    q_order,
    spectrum_project,
    up_functor,
)
from .morphism import Embedding, PairingResult, decompose, embed_pbeta, pairing, pairing_row_sum
from .repmod import (
    ModuleRep,
    SpecPoint,
    StateVec,
    apply_word,
    build_module,
    gamma_generator,
    inner,
    s_basis,
    u_basis,
    v_basis,
)
from .transform import (
    ConjugationReport,
    RegUnitary,
    compose,
    diagonal,
    fourier,
    free_evolution,
    gaussian,
    qho_evolution,
    verify_conjugation,
)

__all__ = [
    "AutDesc",
    "ConjugationReport",
    "ConvergenceReport",
    "Cyc",
    "Embedding",
    "GenWord",
    "KernelSample",
    "ModuleRep",
    "PairingResult",
    "RegUnitary",
    "RescaleCtx",
    "Scalar",
    "ScaleParams",
    "SpecPoint",
    "StateVec",
    "TraceResult",
    "WeylDesc",
    "apply_automorphism",
    "apply_word",
    "auto_mu",
    "build_module",
    "ccr_residual",
    "center",
    "compose",
    "conjugate",
    "converge_study",
    "decompose",
    "delta_k",
    "diagonal",
    "dirac_inner",
    "embed_pbeta",
    "eval_complex",
    "fourier",
    "free_evolution",
    "free_propagator",
    "gamma_generator",
    "gauss_sum",
    "gaussian",
    "includes",
    "inner",
    "join",
    "maximal_commutative",
    "pairing",
    "pairing_row_sum",
    "q_order",
    "qho_evolution",
    "qho_propagator",
    "qho_trace",
    "root_of_unity",
    "s_basis",
    "spectrum_project",
    "st_mu",
    "u_basis",
    "up_functor",
    "v_basis",
    "verify_conjugation",
    "xp_kernel",
]
