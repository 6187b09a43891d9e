"""Exception types raised by localizer_lab operations."""


class LocalizerLabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(LocalizerLabError):
    """A scalar function was applied outside its domain on the spectrum."""


class ParityError(LocalizerLabError):
    """Claimed block parity is violated by nonzero forbidden blocks."""


class NotInvertibleError(LocalizerLabError):
    """Spectral gap requested for an operator with eigenvalues at or near zero."""


class TruncationTooSmallError(LocalizerLabError):
    """The requested spectral radius exceeds what the truncation resolves."""

    def __init__(self, message, rho_required=None, rho_max=None):
        super().__init__(message)
        self.rho_required = rho_required
        self.rho_max = rho_max


class AdmissibilityError(LocalizerLabError):
    """Parameters fail the admissibility inequality required for index work."""


class InternalConsistencyError(LocalizerLabError):
    """A certified quantity disagrees with a directly computed one."""


class SpectralCutError(LocalizerLabError):
    """An eigenvalue sits too close to a requested hard spectral cut."""


class PreconditionError(LocalizerLabError):
    """Structural hypotheses of an operation fail for the given operators."""


class ClassInconsistencyError(LocalizerLabError):
    """Signature data cannot come from a genuine difference class."""


class GaplessError(LocalizerLabError):
    """A spectral gap at the Fermi level is required but absent."""


class GenerationError(LocalizerLabError):
    """Random instance generation failed to meet its contract."""


class ResolutionError(LocalizerLabError):
    """A quadrature result did not stabilize under step refinement."""


class ConfigError(LocalizerLabError):
    """Run configuration is malformed or inconsistent."""


class ModelArgumentError(ConfigError, ValueError):
    """A model address or generator argument is malformed or out of range.

    A ConfigError, so the CLI exits 2 on it; also a ValueError, so library
    callers that catch bad arguments as ValueError keep working.
    """
