"""Exception types shared across the solver modules."""


class SingularMatrix(Exception):
    """A direct solve hit a pivot below the singularity threshold."""


class DimensionMismatch(Exception):
    """Operands have incompatible shapes."""


class SingularSaddleSystem(Exception):
    """The coupled interface system is singular.

    Typically signals redundant constraints or an inconsistent
    system/subdomain time-step configuration.
    """


class ConfigError(Exception):
    """A run configuration could not be parsed or validated."""


class NonFiniteState(Exception):
    """A system step produced a non-finite multiplier or state."""
