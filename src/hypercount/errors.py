"""Exception types raised across the package.

Every error that library code raises deliberately (as opposed to bugs)
is a subclass of :class:`HypercountError`, so callers can catch one type
at an API boundary.
"""

from __future__ import annotations


def format_int(n: int) -> str:
    """n in decimal, or only its bit length when it is wider than 256 bits
    (78 digits): Python refuses to print integers of more than 4300 digits,
    and a message should stay one line."""
    bits = n.bit_length()
    return str(n) if bits <= 256 else f"<{bits}-bit integer>"


class HypercountError(Exception):
    """Base class for all errors raised by this package."""


class NotPrime(HypercountError):
    """The characteristic passed to a field constructor is not an odd prime."""

    def __init__(self, p: int):
        self.p = p
        super().__init__(f"{format_int(p)} is not an odd prime")


class TableBudgetExceeded(HypercountError):
    """Building the field would exceed the configured table budget; ``q``
    is the string ``"p^e"`` when e alone puts the field past it."""

    def __init__(self, q: int | str, budget: int):
        self.q = q
        self.budget = budget
        shown = format_int(q) if isinstance(q, int) else q
        super().__init__(f"field size q={shown} exceeds the table budget "
                         f"{format_int(budget)}")


class VerifierTableTooLarge(HypercountError):
    """The identity verifiers' (q-1)×(q-1) tables would exceed their limit."""

    def __init__(self, q: int, limit: int):
        self.q = q
        self.limit = limit
        super().__init__(
            f"verify at q={format_int(q)} needs (q-1)^2 = "
            f"{format_int((q - 1) ** 2)} table entries, past the verifiers' "
            f"limit of {limit}")


class LogOfZero(HypercountError):
    """Discrete logarithm of the zero element was requested."""

    def __init__(self) -> None:
        super().__init__("discrete log of 0 is undefined")


class OrderDoesNotDivide(HypercountError):
    """A character of order n was requested but n does not divide q-1."""

    def __init__(self, n: int, group_order: int):
        self.n = n
        self.group_order = group_order
        super().__init__(f"order {n} does not divide q-1 = {group_order}")


class MixedFieldContexts(HypercountError):
    """Objects from different field contexts were combined."""

    def __init__(self) -> None:
        super().__init__("operands belong to different field contexts")


class ZeroCoefficient(HypercountError):
    """A curve or parameter-map coefficient that must be nonzero is zero."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"coefficient {name!r} must be nonzero in the field")


class CongruenceViolated(HypercountError):
    """q does not satisfy the congruence a formula requires."""

    def __init__(self, q: int, modulus: int):
        self.q = q
        self.modulus = modulus
        super().__init__(f"q={q} does not satisfy q = 1 (mod {modulus})")


class ExactModulusTooLarge(HypercountError):
    """The exact ring's auxiliary prime would leave uint64 arithmetic."""

    def __init__(self, q: int, ell: int, limit: int):
        self.q = q
        self.ell = ell
        self.limit = limit
        super().__init__(
            f"the exact backend at q={q} needs an auxiliary prime "
            f"ell={ell} >= 2**{limit.bit_length() - 1}; use the float "
            f"backend (--backend float)")


class FloatRangeExceeded(HypercountError):
    """An integer (a count's prefactor q^k) is past the float backend's range;
    the series it would multiply has underflowed there."""

    def __init__(self, n: int):
        self.bits = abs(n).bit_length()
        super().__init__(f"an integer of {self.bits} bits is beyond double "
                         f"precision; use the exact backend (--backend exact)")


class NonIntegerResult(HypercountError):
    """A value that must lift to a rational integer failed to do so.

    Raised by the floating-point backend when the residual after rounding
    exceeds the configured tolerance, and by the exact Gauss table when an
    entry of its float FFT convolution lies 1/4 or more from an integer;
    signals a bug or a tolerance breach, never a legitimate numeric outcome.
    """

    def __init__(self, value: complex, residual: float, tolerance: float):
        self.value = value
        self.residual = residual
        self.tolerance = tolerance
        super().__init__(
            f"value {value!r} is not an integer within tolerance "
            f"(residual {residual:.3e} > {tolerance:.3e})"
        )
