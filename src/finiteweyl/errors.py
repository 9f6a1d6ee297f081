"""Exception types shared across the library."""


class FiniteWeylError(Exception):
    """Base class for all library errors."""


class NotCommutative(FiniteWeylError):
    """Operation requires a commutative Weyl algebra."""


class NotIncluded(FiniteWeylError):
    """Expected a subalgebra relation B <= A that does not hold."""


class BadMatrix(FiniteWeylError):
    """Automorphism matrix fails the determinant condition."""


class NotGenerating(FiniteWeylError):
    """Word pair does not generate the algebra with commutator q."""


class ModuleMismatch(FiniteWeylError):
    """Vectors belong to different modules."""


class NotInAlgebra(FiniteWeylError):
    """Word exponents are not integer multiples of the algebra generators."""


class BadBranch(FiniteWeylError):
    """Branch index out of range for a submodule decomposition."""


class NoCommonSubalgebra(FiniteWeylError):
    """Composition of transformations admits no usable common subalgebra."""


class DivisibilityViolation(FiniteWeylError):
    """Scale parameters violate a divisibility precondition."""


class OddOrder(DivisibilityViolation):
    """Operation requires an even module dimension."""


class NotDividing(DivisibilityViolation):
    """Required divisibility between integer parameters fails."""


class NotPythagorean(FiniteWeylError):
    """Triple (e, f, c) does not satisfy e^2 + f^2 = c^2."""


class OutOfRange(FiniteWeylError):
    """Requested point falls outside the finite lattice window."""


class ExactnessLost(FiniteWeylError):
    """A value cannot be represented exactly in Q(zeta)-with-radicals."""
