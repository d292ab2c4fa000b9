"""Exceptions, work budget, JSON and number readers and the record bases shared by all modules.

The CLI maps InputError to exit code 2 (bad or rejected input) and
UnsupportedError to exit code 3 (a model the tool does not provide).
"""

import json
from operator import itemgetter

# A unit is about one inner-loop step, some 20 ns of CPython on a 2-vCPU VM.
WORK_BUDGET = 200_000_000
# Output integers (join ranks, torsion invariants) have at most 2000 bits,
# 603 decimal digits, within Python's lowest int-to-str limit of 640.
RANK_BITS_CAP = 2000
_REQUIRED = object()  # a TupleRecord field with no default, until a keyword gives it


class EquikError(Exception):
    """Base class for all errors raised by this package."""


class InputError(EquikError):
    """Malformed input or a violated precondition."""


class UnsupportedError(EquikError):
    """The request is well formed but no model is available for it."""


class FusionRingError(InputError):
    """A fusion-ring axiom failed; carries the axiom name and indices."""

    def __init__(self, axiom, indices, detail=""):
        self.axiom = axiom
        self.indices = tuple(indices)
        msg = f"fusion axiom {axiom!r} violated at indices {self.indices}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class LatticeContainmentError(InputError):
    """A claimed sublattice relation failed; carries a witness vector."""

    def __init__(self, witness):
        self.witness = tuple(witness)
        super().__init__(f"lattice containment failed, witness vector {self.witness}")


class CapExceededError(InputError):
    """A request needs more than WORK_BUDGET or RANK_BITS_CAP allows."""


class Record:
    """Immutable value whose constructor checks or derives its fields.

    A subclass names its fields in _fields, lists them (and any derived
    or lazy slot) in __slots__, and sets them in its own __init__ with
    object.__setattr__.  Equality and hashing read the fields, within one
    class, repr shows Name(field=value, ...), and assignment and deletion
    raise AttributeError.  Records that only hold fields are TupleRecords.
    """

    __slots__ = ()
    _fields = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__name__}({shown})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __setstate__(self, state):  # copy and pickle: (None, {slot: value})
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class TupleRecord(tuple):
    """Immutable record that only holds fields: the tuple of them, by name.

    A subclass sets __slots__ = (), names its fields in _fields and the
    defaults of its trailing fields in _defaults.  Each field is a
    property(itemgetter(i)), so no code is generated, and it keeps what
    typing.NamedTuple gave: construction by position, keyword or default,
    tuple equality and hashing, _replace, _asdict, repr, copy and pickle.
    """

    __slots__ = ()
    _defaults = ()

    def __init_subclass__(cls):
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(i)))

    def __new__(cls, *args, **kwargs):
        fields, defaults = cls._fields, cls._defaults
        missing = len(fields) - len(args)
        if not kwargs:
            if not missing:
                return tuple.__new__(cls, args)
            if 0 < missing <= len(defaults):
                return tuple.__new__(cls, args + defaults[-missing:])
        required = missing - len(defaults)  # fields left with no value and no default
        values = [*args, *[_REQUIRED] * required, *defaults[max(-required, 0) :]]
        for key in kwargs:
            if key not in fields[len(args) :]:
                raise TypeError(f"{cls.__name__}() got an unknown or repeated field {key!r}")
            values[fields.index(key)] = kwargs[key]
        if missing < 0 or _REQUIRED in values:
            raise TypeError(f"{cls.__name__}() takes {fields}, the last {len(defaults)} optional")
        return tuple.__new__(cls, values)

    __repr__ = Record.__repr__  # Name(field=value, ...)

    def __getnewargs__(self):  # copy and pickle rebuild by cls(*fields)
        return tuple(self)

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self))

    def _replace(self, **changes):
        values = [changes.pop(name, value) for name, value in zip(self._fields, self)]
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return tuple.__new__(type(self), values)


def charge(units: int, what: str) -> None:
    """Refuse work predicted, before it starts, to need over WORK_BUDGET
    units; units over 64 bits (maybe a lower bound) show as a power of 2."""
    if units > WORK_BUDGET:
        shown = units if units.bit_length() <= 64 else f"more than 2^{units.bit_length() - 1}"
        raise CapExceededError(
            f"work budget exceeded: {what} needs {shown} units, over {WORK_BUDGET}"
        )


def decimal(text) -> int:
    """The int that canonical decimal text names, else ValueError: 0, or an
    optional - and ASCII digits with no leading zero, one spelling per int."""
    digits = text.removeprefix("-") if isinstance(text, str) else ""
    if text != "0" and not (digits.isascii() and digits.isdigit() and digits[0] != "0"):
        raise ValueError(f"not canonical decimal text: {text!r}")
    return int(text)


def read_json(path, what: str):
    """The JSON in the file at path; bad JSON, non-UTF-8 bytes or deep nesting is InputError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise InputError(f"cannot parse {what} file {path}: {exc}") from None
