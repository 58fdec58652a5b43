"""Exception hierarchy shared by all modules.

Process exit codes used by the CLI: 2 config, 3 invariant violation,
4 resource/convergence.
"""


class WeylkitError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(WeylkitError):
    """Invalid configuration, arguments, or input files (exit code 2)."""


class CompletenessError(ConfigError):
    """A spectral query reaches beyond the cutoff up to which the spectrum
    is provably complete. Never silently truncate."""


class DomainError(ConfigError):
    """A point lies outside the region where an operation is defined."""


class InvariantViolation(WeylkitError):
    """A mathematical invariant that must hold was violated (exit code 3)."""


class ResourceError(WeylkitError):
    """A configured memory or size budget would be exceeded (exit code 4)."""


class ConvergenceError(WeylkitError):
    """A numerical procedure did not reach its target tolerance (exit code 4)."""


class NumericsError(ConvergenceError):
    """Internal consistency failure between two independent evaluation routes."""


class FitError(ConvergenceError):
    """Not enough usable data points for a requested regression."""


EXIT_CODES = {
    ConfigError: 2,
    InvariantViolation: 3,
    ResourceError: 4,
    ConvergenceError: 4,
}


def exit_code_for(exc: BaseException) -> int:
    for cls, code in EXIT_CODES.items():
        if isinstance(exc, cls):
            return code
    return 1
