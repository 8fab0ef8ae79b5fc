"""Exception types shared across the package."""


class BudgetExceeded(RuntimeError):
    """A configurable work budget ran out before the computation finished."""


class SoundnessAlarm(RuntimeError):
    """A predicted outcome failed re-verification; indicates a bug."""
