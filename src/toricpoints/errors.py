"""Exception hierarchy for toricpoints, the one home of the argument
contracts whose breach raises ContractViolation, and the one home of the
record decorator that every result and input record of the library uses."""

from dataclasses import dataclass


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


def _record(cls):
    """`cls` as a frozen dataclass whose `__init__` writes every field straight
    into the instance's `__dict__`, then runs `__post_init__` if the class has
    one; dataclasses' own calls `object.__setattr__` once a field.  The
    `__init__` takes the same parameters as dataclasses' would: the fields in
    order, read from the class's own annotations, with their defaults and
    annotations, so `inspect.signature` of the class is the same.  Equality,
    hash, repr, pickling and `dataclasses.replace` are dataclasses'."""
    cls = dataclass(frozen=True, init=False)(cls)
    annotations = cls.__dict__.get("__annotations__", {})
    names = list(annotations)
    # dataclasses leaves each default, a field()'s too, as the class attribute
    defaults = tuple(cls.__dict__[name] for name in names if name in cls.__dict__)
    if any(name not in cls.__dict__ for name in names[len(names) - len(defaults):]):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    values = "_values"  # the local that holds __dict__, named apart from every field
    while values in names:
        values += "_"
    lines = [f"def __init__(self, {', '.join(names)}):", f"    {values} = self.__dict__"]
    lines += [f"    {values}[{name!r}] = {name}" for name in names]
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    namespace = {}
    exec("\n".join(lines), {"__name__": cls.__module__}, namespace)
    init = namespace["__init__"]
    init.__defaults__ = defaults
    init.__annotations__ = {**annotations, "return": None}
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls
