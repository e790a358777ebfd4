"""Exception taxonomy shared by every flatcert module.

Errors carry enough structure (witness pair, parse position, offending
factor, ...) for the CLI to render them with provenance; nothing here is
ever raised for a condition that a certificate could express instead.
Each class names, in ``module``, the layer the CLI reports it under.
"""


class FlatcertError(Exception):
    """Base class for all errors raised by this package."""

    module = "internal"


class NotMonic(FlatcertError):
    module = "exact"


class NotIrreducible(FlatcertError):
    """Raised when a would-be minimal polynomial factors over Q."""

    module = "exact"

    def __init__(self, poly, factor):
        self.factor = factor
        super().__init__(f"polynomial {poly} is reducible; factor: {factor}")


class ToleranceNotReached(FlatcertError):
    module = "exact"

    def __init__(self, iterations, worst_bound):
        super().__init__(
            f"root refinement did not reach tolerance after {iterations} "
            f"iterations (worst residual bound {worst_bound:.3e})"
        )


class ZeroConstantTerm(FlatcertError):
    """Valuation of 0 is undefined; cannot occur for det-1 characteristic polynomials."""

    module = "exact"


class DeterminantNotOne(FlatcertError):
    module = "linalg"

    def __init__(self, name=None, det=None, who=None):
        self.name = name
        self.det = det
        who = who or (f"generator {name!r}" if name else "matrix")
        super().__init__(f"{who} has determinant {det}, expected 1")


class UnknownGenerator(FlatcertError):
    module = "linalg"

    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown generator {name!r}")


class DimensionMismatch(FlatcertError):
    module = "linalg"


class BudgetExceeded(FlatcertError):
    """An input whose exact computation would pass a fixed size budget;
    refused before the work starts."""

    module = "words"

    def __init__(self, what, estimate, limit):
        self.estimate = estimate
        self.limit = limit
        super().__init__(f"{what} needs an estimated {estimate} bits, over the budget of {limit}")


class ParseError(FlatcertError):
    module = "cli"
    FOUND_LIMIT = 160  # characters of the offending value's repr that the message shows

    def __init__(self, position, expected, found=None, line=None, column=None):
        self.position = position
        self.found = found
        self.line = line
        where = f"line {line}, column {column}" if line is not None else f"position {position}"
        shown = repr(found)
        if len(shown) > self.FOUND_LIMIT:
            shown = f"{shown[:self.FOUND_LIMIT]}... ({len(shown)} characters)"
        super().__init__(f"parse error at {where}: expected {expected}, found {shown}")


class NotCommuting(FlatcertError):
    module = "flats"

    def __init__(self, i, j, commutator=None):
        self.i = i
        self.j = j
        self.commutator = commutator
        super().__init__(f"generators {i!r} and {j!r} do not commute")


class NotBallistic(FlatcertError):
    module = "places"


class PlaceSetIncomplete(FlatcertError):
    module = "places"

    def __init__(self, missing_primes):
        super().__init__(
            "entry denominators involve primes outside the discovered place set: "
            + ", ".join(str(p) for p in missing_primes)
        )


class NumericalInconclusive(FlatcertError):
    """Floating-point evidence and exact arithmetic disagree; no certificate is emitted."""

    module = "flats"

