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
        self.poly = poly
        self.factor = factor
        super().__init__(f"polynomial {poly} is reducible; factor: {factor}")


class ToleranceNotReached(FlatcertError):
    module = "exact"

    def __init__(self, iterations, worst_bound):
        self.iterations = iterations
        self.worst_bound = worst_bound
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


class ParseError(FlatcertError):
    module = "cli"

    def __init__(self, position, expected, found=None, line=None, column=None):
        self.position = position
        self.expected = expected
        self.found = found
        self.line = line
        self.column = column
        where = f"line {line}, column {column}" if line is not None else f"position {position}"
        super().__init__(f"parse error at {where}: expected {expected}, found {found!r}")


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
        self.missing_primes = tuple(missing_primes)
        super().__init__(
            "entry denominators involve primes outside the discovered place set: "
            + ", ".join(str(p) for p in self.missing_primes)
        )


class NumericalInconclusive(FlatcertError):
    """Floating-point evidence and exact arithmetic disagree; no certificate is emitted."""

    module = "flats"

