"""Exception types shared across the package."""


class FredprofileError(Exception):
    """Base class for all library errors. exit_code and prefix are the CLI's
    exit code and stderr prefix for the class: one that keeps the base's is
    a bug in this package, never a property of the input."""

    exit_code = 6
    prefix = "internal error"


class AmbientMismatch(FredprofileError):
    """Two objects live in rational spaces of different dimensions."""


class NotInvariant(FredprofileError):
    """restrict was asked to restrict a matrix to a non-invariant subspace."""


class NotPseudoFredholm(FredprofileError):
    """The operator has no generalized Kato decomposition at this point.

    Raised only by verify.index_with_nilpotent_regrouped, when some
    atom's profile flags the point (rational unit-circle points of the
    plain shifts). The library entries report that case instead:
    structure.analyze_expr's analysis is not decomposable there.
    """


class DocumentError(FredprofileError):
    """An operator document failed to parse or validate."""

    exit_code = 2
    prefix = "error"


class OutputError(FredprofileError):
    """An output could not be produced or written."""

    exit_code = 7
    prefix = "error"


class InternalInvariantError(FredprofileError):
    """A result broke an identity the theory guarantees: a bug in this
    package, never a property of the input."""
