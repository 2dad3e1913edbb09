"""Exception hierarchy for toricpoints."""


class ToricError(Exception):
    """Base class for all toricpoints errors."""


class NonPrimitiveRay(ToricError):
    pass


class NotSmoothOrNotComplete(ToricError):
    pass


class DuplicateRay(ToricError):
    pass


class FanMismatch(ToricError):
    pass


class NotAmple(ToricError):
    pass


class ContractViolation(ToricError):
    pass


class HypothesisViolation(ToricError):
    pass


class InternalInconsistency(ToricError):
    """A structural identity that must hold on valid inputs failed; indicates a bug."""


class InputError(ToricError):
    """Malformed user input (CLI / JSON descriptors)."""
