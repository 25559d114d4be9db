"""Exception hierarchy shared by all germlift modules."""


class GermliftError(Exception):
    """Base class for all errors raised by this package."""


class AmbientError(GermliftError):
    """Operands live over different variable sets, or a variable is unknown."""


class RankError(GermliftError):
    """Module ranks do not match."""


class StructureError(GermliftError):
    """A structural invariant of a germ, unfolding or module failed."""


class InverseCheckFailed(StructureError):
    """A supplied inverse does not compose to the identity."""


class NotDivisible(GermliftError):
    """An exact division was requested but the remainder is nonzero."""


class NotEquidimensional(StructureError):
    """Discriminant computation requires source and target of equal dimension."""


class DescentResidueError(GermliftError):
    """The retained residue classes of a descent are not expressible through
    the substitution, which signals a violated precondition."""


class InputNotLiftable(GermliftError):
    """A generator handed to the unfolding pipeline is not certifiably
    liftable over the unfolding."""

    def __init__(self, index, obstruction=None):
        super().__init__(f"generator {index} is not certifiably liftable")
        self.index = index
        self.obstruction = obstruction


class OutputNotCertified(GermliftError):
    """A generator produced by the unfolding pipeline failed certification
    against the core germ (unsound input module or local/global gap)."""

    def __init__(self, index, obstruction=None):
        super().__init__(f"pipeline output {index} failed certification")
        self.index = index
        self.obstruction = obstruction


class GroebnerTimeout(GermliftError, TimeoutError):
    """Resource budget exhausted; ``stats`` holds the budget's counters."""

    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = dict(stats or {})


class ExprSyntaxError(GermliftError):
    """Malformed expression text; ``offset`` is the byte offset of the fault."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownVariable(ExprSyntaxError):
    """An identifier that is not a declared variable of the ring."""

    def __init__(self, name, offset):
        super().__init__(f"unknown variable {name!r}", offset)
        self.name = name


class ManifestError(GermliftError):
    """Base class for manifest loading problems."""


class SchemaError(ManifestError):
    """The manifest structure does not match the schema; carries a field path."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


class ValidationError(ManifestError):
    """A declared object violates one of its invariants."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
