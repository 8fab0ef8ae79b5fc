"""Exception types shared across the package."""


class BudgetExceeded(RuntimeError):
    """A work budget ran out, or a finite search ended short."""


class SoundnessAlarm(RuntimeError):
    """A predicted outcome failed re-verification; indicates a bug."""
