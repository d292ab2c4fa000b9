"""Exception taxonomy, work budget and the JSON and number readers shared by all modules.

The CLI maps InputError to exit code 2 (bad or rejected input) and
UnsupportedError to exit code 3 (a model the tool does not provide).
"""

import json

# A unit is about one inner-loop step, some 20 ns of CPython on a 2-vCPU VM.
WORK_BUDGET = 200_000_000
# Output integers (join ranks, torsion invariants) have at most 2000 bits,
# 603 decimal digits, within Python's lowest int-to-str limit of 640.
RANK_BITS_CAP = 2000


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
