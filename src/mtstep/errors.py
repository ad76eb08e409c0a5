"""Exception types shared across the solver modules, in two classes.

Bad input is a ``ValueError`` (:class:`DimensionMismatch` included); a
failed solve is a :class:`SingularMatrix` (:class:`SingularSaddleSystem`
included) or a :class:`NonFiniteState`.  Callers catch the class.
"""


class SingularMatrix(Exception):
    """A direct solve hit a pivot below the singularity threshold."""


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


class SingularSaddleSystem(SingularMatrix):
    """The coupled interface system is singular.

    Typically signals redundant constraints or an inconsistent
    system/subdomain time-step configuration.
    """


class ConfigError(Exception):
    """A run configuration could not be parsed or validated."""


class NonFiniteState(Exception):
    """A system step produced a non-finite multiplier or state."""
