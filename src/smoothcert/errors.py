"""Exception hierarchy shared across the engine.

The CLI maps these onto process exit codes, so downstream code should
raise the most specific class that applies.
"""


class EngineError(Exception):
    """Base class for all smoothcert failures."""


class DomainError(EngineError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class SingularityError(DomainError):
    """A density was evaluated exactly at a point where it diverges."""


class UnsupportedError(EngineError):
    """A (threat, family) pair or geometry with no supported reduction."""


class TransportError(EngineError):
    """External classifier subprocess failed: timeout, bad framing, or death."""


class ConfigError(EngineError, ValueError):
    """A run configuration failed strict validation."""
