"""Exception types shared across the package."""


class VolterraError(Exception):
    """Base class for domain-specific failures."""


class SingularityError(VolterraError):
    """Non-integrable kernel singularity: exponent >= 1 against an
    integrand that does not vanish at the singular endpoint."""


class FactorizationError(VolterraError):
    """Covariance matrix not positive definite after the allowed jitter."""


class EmbeddingError(VolterraError):
    """Circulant embedding produced a negative eigenvalue beyond tolerance."""


class CatalogError(VolterraError):
    """Unknown catalog entry: a coefficient set or a verification family."""


class NoContractionError(VolterraError):
    """No weight lambda on the search ladder makes the fixed-point map a
    1/2-contraction."""


class DivergenceError(VolterraError):
    """Iteration or time-stepping produced a non-finite state."""


class AdmissibilityError(VolterraError):
    """Parameters violate an existence-theorem constraint; the message
    names the violated condition."""


class EvaluationError(VolterraError):
    """Coefficient evaluator returned a non-finite value."""
