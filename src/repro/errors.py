"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An organizational or temporal parameter is invalid or inconsistent.

    Raised, for example, when a cache size is not a multiple of the block
    size times the associativity, or when a timing parameter is negative.
    """


class TraceError(ReproError):
    """A trace file or trace container is malformed."""


class SimulationError(ReproError):
    """The simulator reached an internally inconsistent state.

    This should never happen in normal operation; it indicates a bug in
    the engine rather than bad user input.
    """


class AnalysisError(ReproError):
    """An analysis step cannot be performed on the supplied data.

    Raised, for example, when interpolating an equal-performance line
    outside of the simulated cycle-time range, or when a parabola fit is
    requested on fewer than three block-size points.
    """


class CampaignError(ReproError):
    """A campaign-level failure: a sweep aborted, a manifest could not be
    journaled, or a run exhausted its retry budget with ``keep_going``
    disabled."""


class CorruptResultError(CampaignError):
    """A persisted campaign artifact is unreadable or fails validation.

    Raised when a stored result file contains malformed JSON, is missing
    required keys, or its content checksum does not match the payload.
    The offending path (when known) is carried on :attr:`path` so callers
    can quarantine it.
    """

    def __init__(self, message: str, path=None) -> None:
        super().__init__(message)
        self.path = path


class LeaseLostError(CampaignError):
    """A worker's lease on a spooled job is no longer its own.

    Raised by the work-queue fabric when a heartbeat renewal finds the
    lease file gone, rewritten by another owner, or advanced to a newer
    epoch — the observer-side expiry machinery decided this worker was
    dead and reclaimed the job.  The worker must stop treating the job
    as exclusively its own; any result it still produces is published
    through the exclusive done-record link, which arbitrates duplicates.
    """


class RunTimeoutError(CampaignError):
    """A single simulation run exceeded its wall-clock budget.

    Raised cooperatively by the engine's cancellation hook, or recorded
    by the campaign executor after terminating a hung worker process.
    """
