"""Exception types shared across the library.

All errors raised by locdecomp derive from builtins so callers can catch
broad categories (ValueError for contract violations, RuntimeError for
runtime/numerical failures) without importing this module.
"""

from __future__ import annotations


class DimensionMismatch(ValueError):
    """A vector or matrix does not match the dimension required by a model."""


class SingularTransform(ValueError):
    """A map deformation is not invertible at the given parameters."""


class NotPSD(ValueError):
    """A matrix required to be symmetric positive semi-definite is not."""


class ZeroTurnRate(ValueError):
    """The closed-form decomposition needs a turning agent (heading rate != 0)."""


class ParseError(ValueError):
    """A trajectory or data file line could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NonMonotoneTime(ValueError):
    """Timestamps in a trajectory are not strictly increasing."""


class FilterStepError(RuntimeError):
    """A filter step failed; carries the zero-based step index."""

    def __init__(self, step: int, message: str):
        self.step = step
        super().__init__(f"step {step}: {message}")


class ExperimentRunError(RuntimeError):
    """A Monte Carlo run failed; carries the zero-based run index."""

    def __init__(self, run: int, message: str):
        self.run = run
        super().__init__(f"run {run}: {message}")


class ConfigError(ValueError):
    """An experiment configuration is invalid or contains unknown keys."""
