"""Exception hierarchy for the MIP reproduction.

Every subsystem raises exceptions derived from :class:`ReproError`, so callers
can catch platform failures without also swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class EngineError(ReproError):
    """Base class for errors raised by the columnar SQL engine."""


class ParseError(EngineError):
    """A SQL statement could not be parsed."""


class CatalogError(EngineError):
    """A table, column, or function is missing or already exists."""


class ExecutionError(EngineError):
    """A statement parsed but failed during execution."""


class TypeMismatchError(EngineError):
    """A value or expression has an incompatible SQL type."""


class UDFError(ReproError):
    """A Python UDF failed to validate, generate, or execute."""


class SMPCError(ReproError):
    """Base class for secure multi-party computation failures."""


class IntegrityError(SMPCError):
    """A MAC check or share-consistency check failed (tampering detected)."""


class ThresholdError(SMPCError):
    """Not enough shares are available to reconstruct a secret."""


class PrivacyError(ReproError):
    """A differential-privacy parameter or budget is invalid or exhausted."""


class FederationError(ReproError):
    """Base class for federation-runtime failures."""


class NodeUnavailableError(FederationError):
    """A worker or SMPC node did not respond."""


class QuorumError(FederationError):
    """Too few reachable workers remain to satisfy the failure policy."""


class DatasetUnavailableError(FederationError):
    """A requested dataset is not present on any active worker."""


class ExperimentNotFoundError(ReproError):
    """An experiment or job id does not exist in the engine's history."""


class ExperimentCancelledError(ReproError):
    """An experiment was cancelled (pre-dispatch or cooperatively mid-flow)."""


class QueueFullError(ReproError):
    """The experiment queue rejected a submission (admission control)."""


class AlgorithmError(ReproError):
    """An algorithm received invalid inputs or reached an invalid state."""


class SpecificationError(AlgorithmError):
    """Experiment parameters violate the algorithm's specification."""


class PrivacyThresholdError(AlgorithmError):
    """A computation would expose a group smaller than the privacy threshold."""


class SimTestError(ReproError):
    """The deterministic simulation harness hit an internal fault (a stuck
    task, a malformed fault spec, or activation while disabled)."""


class DurabilityError(ReproError):
    """The durability subsystem (journal, recovery) failed."""


class JournalCorruptionError(DurabilityError):
    """A journal frame failed its CRC or framing check where corruption is
    not recoverable by truncation (e.g. an explicit integrity probe)."""


class MasterCrashError(BaseException):
    """A simulated master crash (simtest fault ``crash@N:master``).

    Derives from :class:`BaseException` — like ``KeyboardInterrupt`` — so
    that the engine's ``except Exception``/``except ReproError`` handlers
    cannot convert a crash into an ordinary failed result.  A crash must
    leave the job with no terminal journal record; recovery then re-enqueues
    it on restart.
    """

