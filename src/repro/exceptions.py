"""Exception hierarchy for the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError` so callers can
catch a single base class.  More specific subclasses communicate *where* the
failure happened (model construction, solver convergence, strategy validation)
without requiring the caller to parse messages.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ModelError",
    "LatencyDomainError",
    "InfeasibleFlowError",
    "ConvergenceError",
    "StrategyError",
    "InstanceError",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceClosedError",
    "ServiceTimeoutError",
    "ClusterError",
    "WorkerUnavailableError",
    "FaultInjectedError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ModelError(ReproError):
    """Raised when a network / instance model is structurally invalid.

    Examples: negative demand, a link with a non-increasing latency where a
    strictly increasing one is required, a commodity whose sink is unreachable
    from its source.
    """


class LatencyDomainError(ModelError):
    """Raised when a latency function is evaluated outside of its domain.

    The main producer of this error is :class:`repro.latency.MM1Latency`,
    which is only defined for loads strictly below its capacity.
    """


class InfeasibleFlowError(ModelError):
    """Raised when a flow vector violates feasibility (non-negativity or
    demand conservation) beyond the configured tolerance."""


class ConvergenceError(ReproError):
    """Raised when an iterative solver fails to reach its tolerance within the
    configured iteration budget."""

    def __init__(self, message: str, *, iterations: int | None = None,
                 residual: float | None = None) -> None:
        super().__init__(message)
        #: Number of iterations performed before giving up (if known).
        self.iterations = iterations
        #: Last observed residual / gap (if known).
        self.residual = residual


class StrategyError(ReproError):
    """Raised when a Stackelberg strategy is invalid for its instance.

    Examples: strategy flow exceeding the total demand, negative flow on a
    link, a strategy defined on the wrong number of links/edges.
    """


class InstanceError(ModelError):
    """Raised by instance generators when parameters are out of range."""


class ServiceError(ReproError):
    """Base class for errors raised by the :mod:`repro.serve` layer."""


class ServiceOverloadedError(ServiceError):
    """Raised when the service's bounded request queue is full.

    Backpressure signal: the caller should retry later (or with a larger
    ``max_queue`` / more drain capacity).  Rejected submissions are counted
    in :class:`repro.serve.ServiceStats`.

    Carries the queue depth observed at rejection time so retrying callers
    — the cluster gateway's backoff loop in particular — can log *how*
    overloaded the worker was, and so the condition survives the wire
    round trip (:mod:`repro.cluster.protocol` re-raises it with the same
    depth on the gateway side).
    """

    def __init__(self, message: str, *,
                 queue_depth: int | None = None) -> None:
        super().__init__(message)
        #: Request-queue length observed when the submission was refused
        #: (``None`` when the producer predates the wire format).
        self.queue_depth = queue_depth


class ServiceClosedError(ServiceError):
    """Raised when submitting to (or set on futures of) a stopped service."""


class ServiceTimeoutError(ServiceError):
    """Raised when a request's end-to-end deadline expired before it solved.

    Deadlines propagate gateway -> wire header -> worker -> dispatcher:
    a queued request whose deadline has passed is failed fast with this
    error instead of occupying the solver, and the cluster gateway's
    retry/backoff loop never sleeps past the caller's deadline.  Like
    :class:`ServiceOverloadedError` the condition survives the wire round
    trip (:mod:`repro.cluster.protocol` maps it onto HTTP 504 and re-raises
    it on the caller's side).

    ``elapsed`` (seconds past the deadline when the expiry was noticed, if
    known) is diagnostic only.
    """

    def __init__(self, message: str, *,
                 elapsed: float | None = None) -> None:
        super().__init__(message)
        #: Seconds past the deadline when the request was failed (if known).
        self.elapsed = elapsed


class FaultInjectedError(ServiceError):
    """An error deliberately raised by the fault-injection layer.

    Produced only when a :class:`repro.faults.FaultInjector` is active
    (chaos runs, resilience tests) — never in normal operation.  It is a
    :class:`ServiceError` so every chaos-run failure still resolves to a
    *typed* service exception, which is exactly the degradation contract
    the chaos invariants assert.
    """


class ClusterError(ServiceError):
    """Base class for errors raised by the :mod:`repro.cluster` fabric."""


class WorkerUnavailableError(ClusterError):
    """Raised when no alive worker can serve a request.

    Produced by the gateway when every endpoint a key rendezvous-routes to
    is dead, or when a request exhausted its retry budget against
    persistently overloaded shards.
    """
