"""Exception hierarchy shared across fixloop modules."""


class FixloopError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(FixloopError):
    """Fatal configuration problem: missing checker binary, bad profile,
    unusable endpoint, unreadable dataset, replay drift, and the like.
    The CLI maps this to exit code 3."""


class CheckerError(ConfigError):
    """The checker exited nonzero without printing a single diagnostic
    record, or with none to fix while cargo reports a failed build: it
    crashed, could not start or could not build, so its silence is not a
    clean tree.  Carries the exit code and the tail of its stderr."""

    def __init__(self, message: str, returncode: int, stderr_tail: str):
        super().__init__(message)
        self.returncode = returncode
        self.stderr_tail = stderr_tail


class BuildFailed(CheckerError):
    """The checker printed no diagnostic to fix while cargo reports a
    failed build (say, a build script that panicked).  In a probe it
    rejects the candidate; in the first check it aborts the run."""


class EditError(FixloopError):
    """A single line-range edit could not be performed (bad bounds,
    unknown file, embedded newline in a replacement line)."""


class PatchError(FixloopError):
    """A patch plan failed between validation and application; the
    workspace has been restored to its pre-apply state."""


class BackendError(FixloopError):
    """The completion backend failed after exhausting its retries."""


class ReplayError(ConfigError):
    """Replay store problem: missing slot, missing completion file, or a
    prompt digest mismatch (fixture drift).  A broken fixture, not a model
    failure, so it aborts the run rather than giving up one error."""
