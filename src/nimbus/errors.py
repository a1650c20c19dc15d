"""Shared exception types."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class ConfigError(ValueError):
    """A configuration is missing, inconsistent, or has unknown keys."""


class FormatError(ValueError):
    """A file does not match its declared format.

    Carries the byte offset at which decoding failed, or None when the fault
    is not at one place in the file.
    """

    def __init__(self, message, offset=None):
        super().__init__(message if offset is None else f"{message} (byte offset {offset})")
        self.offset = offset


class RolloutError(RuntimeError):
    """An autoregressive rollout hit non-finite values.

    Carries the forecast step index at which the abort happened and, once
    the rollout knows it, the ensemble member.
    """

    def __init__(self, message, step, member=None):
        where = f"forecast step {step}" if member is None else f"member {member}, forecast step {step}"
        super().__init__(f"{message} ({where})")
        self.message, self.step, self.member = message, step, member

    def __reduce__(self):
        # Rebuilt from its fields, so that it crosses a process boundary.
        return type(self), (self.message, self.step, self.member)
