"""Exception hierarchy shared by every module.

``ComputeError`` subclasses signal that an input object fails a mathematical
precondition (not Hermitian, not completely positive, ...).  ``ParseError``,
``ValidationError`` and ``BoundsError`` belong to the scenario layer.
"""


class CovstineError(Exception):
    """Base class for all package errors."""


class ComputeError(CovstineError):
    """A construction rejected its input on mathematical grounds."""


class ShapeMismatchError(ComputeError):
    pass


class NotHermitianError(ComputeError):
    pass


class NotPsdError(ComputeError):
    pass


class NotFullError(ComputeError):
    pass


class InconsistentError(ComputeError):
    """A linear system that should be consistent is not."""


class NotCpError(ComputeError):
    pass


class NotCoisometryError(ComputeError):
    pass


class NotIntertwiningError(ComputeError):
    pass


class DegenerateAverageError(ComputeError):
    """Group averaging produced a rank-deficient candidate coisometry."""


class QuotientLeakError(ComputeError):
    """A raw map does not descend to the quotient by the Gram kernel."""


class NotCovariantError(ComputeError):
    pass


class InvarianceLeakError(ComputeError):
    """A subspace that must be invariant under a group action is not."""


class NotMinimalError(ComputeError):
    """Rank (density) conditions of a dilation fail."""


class NotUnitaryError(ComputeError):
    """A solved intertwiner is not unitary; the inputs are not equivalent."""


class NotActionError(ComputeError):
    pass


class GroupMismatchError(ComputeError):
    pass


class ParseError(CovstineError):
    """Malformed scenario or object payload; message names the field."""


class ValidationError(CovstineError):
    """Well-formed payload whose objects fail axiom preconditions."""


class BoundsError(CovstineError):
    """Generator parameters outside the documented bounds."""
