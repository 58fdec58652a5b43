"""Exception hierarchy shared by all modules.

Each class carries the process exit code the CLI returns for it, as its
`exit_code` class attribute, which subclasses inherit: 2 config,
3 invariant violation, 4 resource/convergence, 1 any other.
"""


class WeylkitError(Exception):
    """Base class for all toolkit errors."""
    exit_code = 1


class ConfigError(WeylkitError):
    """Invalid configuration, arguments, or input files."""
    exit_code = 2


class CompletenessError(ConfigError):
    """A spectral query reaches beyond the cutoff up to which the spectrum
    is provably complete. Never silently truncate."""


class DomainError(ConfigError):
    """A point lies outside the region where an operation is defined."""


class InvariantViolation(WeylkitError):
    """A mathematical invariant that must hold was violated."""
    exit_code = 3


class ResourceError(WeylkitError):
    """A configured memory or size budget would be exceeded."""
    exit_code = 4


class ConvergenceError(WeylkitError):
    """A numerical procedure did not reach its target tolerance."""
    exit_code = 4


class NumericsError(ConvergenceError):
    """Internal consistency failure between two independent evaluation routes."""


class FitError(ConvergenceError):
    """Not enough usable data points for a requested regression."""
