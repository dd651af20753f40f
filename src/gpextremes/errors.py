"""Exception types shared across the package."""


class GpxError(Exception):
    """Base class for all package-specific errors."""


class DomainError(GpxError, ValueError):
    """An argument lies outside the operation's stated domain."""


class SpecValidationError(GpxError, ValueError):
    """A process specification violates its structural constraints."""

    def __init__(self, failures):
        self.failures = list(failures)
        super().__init__("; ".join(self.failures))


class AmbiguousMinimumError(GpxError, RuntimeError):
    """The generalized variance has no unique minimizer within tolerance."""


class EmbeddingError(GpxError, RuntimeError):
    """Circulant embedding produced eigenvalues below tolerance; use the
    dense square-root oracle instead."""


class FactorizationError(GpxError, RuntimeError):
    """Covariance matrix is indefinite beyond tolerance."""


class UnsupportedModelError(GpxError, ValueError):
    """The requested model variant has no implemented evaluation path."""


class TruncationError(GpxError, ValueError):
    """Simulation horizon too short for the requested accuracy."""


class ConvergenceError(GpxError, RuntimeError):
    """A ladder estimator failed to converge; the rung sequence is attached."""

    def __init__(self, message, sequence):
        self.sequence = list(sequence)
        super().__init__(message)


class ProviderError(GpxError, LookupError):
    """A constants provider cannot supply the requested value."""


class PreconditionError(GpxError, RuntimeError):
    """An audit's applicability precondition failed; the audit says nothing."""


class ConfigError(GpxError, ValueError):
    """An experiment config is malformed; the offending key path is attached.

    ``path`` is the dotted path of the offending key from the config root,
    with ``[i]`` for list entries (``processes.ou.coords[0].kappa``).
    """

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")
