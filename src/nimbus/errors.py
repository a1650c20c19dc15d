"""Shared exception types."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class ConfigError(ValueError):
    """A configuration is missing, inconsistent, or has unknown keys."""


class FormatError(ValueError):
    """A binary file does not match its declared format.

    Carries the byte offset at which decoding failed.
    """

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class StateError(RuntimeError):
    """Streaming state was used inconsistently (e.g. cache shape drift)."""


class RolloutError(RuntimeError):
    """An autoregressive rollout hit non-finite values.

    Carries the forecast step index at which the abort happened and, once
    the rollout knows it, the ensemble member.
    """

    def __init__(self, message, step, member=None):
        where = f"forecast step {step}" if member is None else f"member {member}, forecast step {step}"
        super().__init__(f"{message} ({where})")
        self.message, self.step, self.member = message, step, member
