"""Exception hierarchy for toricpoints, and the one home of the argument
contracts whose breach raises ContractViolation."""


class ToricError(Exception):
    """Base class for all toricpoints errors."""


class NotSmoothOrNotComplete(ToricError):
    pass


class FanMismatch(ToricError):
    pass


class ContractViolation(ToricError):
    pass


class HypothesisViolation(ToricError):
    pass


class InternalInconsistency(ToricError):
    """A structural identity that must hold on valid inputs failed; indicates a bug."""


class InputError(ToricError):
    """Malformed user input: the CLI checks the text it parses and the descriptor's
    keys, and the library's contracts refuse the values (ContractViolation and the rest)."""


def require(obj, cls):
    """`obj` itself; ContractViolation when it is not a `cls`."""
    if not isinstance(obj, cls):
        raise ContractViolation(f"{obj!r} is not a {cls.__name__}")
    return obj


def is_int(value) -> bool:
    """Whether `value` is an int; a bool is not one here, though Python makes it one."""
    return type(value) is int


def require_int(value, name: str) -> int:
    """`value` itself; ContractViolation naming it unless `is_int(value)`."""
    if not is_int(value):
        raise ContractViolation(f"{name} = {value!r} is not an int")
    return value


def require_ints(values, what: str) -> tuple:
    """`values` as a tuple (itself, when it is one); ContractViolation unless
    they are a sequence of ints, by the rule of `is_int`."""
    try:
        values = tuple(values)
    except TypeError:
        raise ContractViolation(f"{what} {values!r} are not a sequence") from None
    for v in values:
        if type(v) is not int:  # is_int, inline on this hot path
            raise ContractViolation(f"{what} must be ints, got {v!r}")
    return values
