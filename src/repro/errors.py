"""Exception hierarchy for the pLUTo reproduction.

All package-specific exceptions derive from :class:`ReproError` so callers
can catch everything raised by this library with a single ``except`` clause.
"""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(ReproError):
    """A configuration object is inconsistent or out of range."""


class TimingViolationError(ReproError):
    """A DRAM command violates a timing constraint (e.g. tRCD, tFAW)."""


class SubarrayStateError(ReproError):
    """A DRAM subarray operation is illegal in its current state."""


class AllocationError(ReproError):
    """pLUTo register / row / subarray allocation failed."""


class CompilationError(ReproError):
    """The pLUTo compiler could not lower an API program to ISA."""


class VerificationError(ConfigurationError):
    """A program failed static verification (:mod:`repro.analyze`).

    Carries the error-severity :class:`~repro.analyze.diagnostics.Diagnostic`
    records as :attr:`diagnostics`, so callers (and the serving tier's
    request rejections) can inspect the structured findings instead of
    parsing the message.  Subclasses :class:`ConfigurationError`: the
    ad-hoc API-layer checks this machinery replaces raised that, and
    existing handlers keep working.
    """

    def __init__(self, diagnostics=(), *, subject: str = "program") -> None:
        self.diagnostics = tuple(diagnostics)
        self.subject = subject
        if self.diagnostics:
            rendered = "; ".join(d.render() for d in self.diagnostics)
            message = f"{subject} failed verification: {rendered}"
        else:
            message = f"{subject} failed verification"
        super().__init__(message)


class ExecutionError(ReproError):
    """The pLUTo controller failed while executing an ISA program."""


class LUTError(ReproError):
    """A lookup table is malformed or incompatible with the operation."""


class WorkloadError(ReproError):
    """A workload was configured with invalid parameters."""


class ServiceError(ReproError):
    """The serving frontend failed to process a request."""


class ServiceOverloadError(ServiceError):
    """The service's bounded request queue is full (backpressure)."""


class ServiceClosedError(ServiceError):
    """A request was submitted to a service that is not running."""


class WorkerCrashedError(ServiceError):
    """A worker process of the serving pool died with requests in flight."""
