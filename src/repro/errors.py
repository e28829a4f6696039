"""Exception hierarchy and the CLI exit-code contract."""

from __future__ import annotations

import enum

__all__ = [
    "ReproError",
    "PreprocessorError",
    "LexerError",
    "ParseError",
    "TypeError_",
    "UnsupportedConstructError",
    "LinkError",
    "AnalysisError",
    "CertificateError",
    "CheckpointError",
    "SupervisorHalt",
    "ServeError",
    "ServeConnectionError",
    "UsageError",
    "ExitCode",
]


class ExitCode(enum.IntEnum):
    """The documented exit-code contract of the ``astree-repro`` CLI.

    * ``PROVED`` (0) — the analysis terminated at full precision and
      reported no alarms: the checked properties are proved.
    * ``ALARMS`` (1) — the analysis terminated at full precision with one
      or more alarms.
    * ``DEGRADED`` (2) — a resource budget tripped and the supervisor
      stepped down the degradation ladder: the verdict is still *sound*
      but coarser than the configured precision (alarms may include
      degradation-induced false positives).  Takes precedence over
      ``ALARMS``.
    * ``INTERNAL_ERROR`` (3) — no verdict was produced: command-line
      usage error, frontend or analyzer error, unusable checkpoint, or
      a simulated kill.
    """

    PROVED = 0
    ALARMS = 1
    DEGRADED = 2
    INTERNAL_ERROR = 3


class ReproError(Exception):
    """Base class for all analyzer errors."""


class SourceError(ReproError):
    """An error attached to a source location."""

    def __init__(self, message: str, filename: str = "<input>", line: int = 0, col: int = 0):
        self.filename = filename
        self.line = line
        self.col = col
        super().__init__(f"{filename}:{line}:{col}: {message}")


class PreprocessorError(SourceError):
    """Error during the C preprocessing phase."""


class LexerError(SourceError):
    """Error during tokenization."""


class ParseError(SourceError):
    """Error during parsing."""


class TypeError_(SourceError):
    """Error during type checking."""


class UnsupportedConstructError(SourceError):
    """A C construct outside the supported subset (rejected per Sect. 5.1)."""


class LinkError(ReproError):
    """Error while linking several translation units."""


class AnalysisError(ReproError):
    """Internal error during abstract execution."""


class CheckpointError(ReproError):
    """A checkpoint file is missing, corrupt, or belongs to a different
    program/configuration (fingerprint mismatch)."""


class CertificateError(ReproError):
    """An invariant certificate could not be emitted or did not validate:
    the file is missing/corrupt/wrong-version, or an independent
    re-application of the transfer functions found a certified state that
    is not a post-fixpoint (``F(pre) ⊑ post`` or loop-head stability or
    the alarm-superset check failed).  The CLI maps this to the
    ``certificate-invalid`` incident (phase ``certify``, exit 3)."""


class ServeError(ReproError):
    """Serving-layer failure (daemon startup, worker supervision)."""


class ServeConnectionError(ServeError):
    """The connection to the daemon could not be established, timed
    out, or died mid-response (EOF/ECONNRESET).  Always *retryable*: the
    analyzer is deterministic and results are cached by content, so
    resubmitting the same request is safe."""


class UsageError(ReproError):
    """The command line does not parse (unknown flag, bad value, missing
    argument).  The CLI maps this to phase ``cli``, exit 3, instead of
    argparse's own exit 2, which the contract reserves for degraded
    verdicts."""


class SupervisorHalt(ReproError):
    """Simulated kill for fault-injection tests and CI: raised by the
    supervisor after writing a configured number of checkpoints, leaving
    a resumable checkpoint behind exactly as a SIGKILL would."""
