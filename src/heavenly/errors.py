"""Exception types shared across the library."""


class HeavenlyError(Exception):
    """Base class for all library errors."""


class NotInSpan(HeavenlyError):
    """A polynomial is not a linear combination of Hessian minors.

    Carries the offending monomials so callers can report them.
    """

    def __init__(self, monomials=()):
        self.monomials = tuple(monomials)
        pretty = ", ".join(str(m) for m in self.monomials) or "unknown"
        super().__init__(f"not in the minor span (offending monomials: {pretty})")


class UnsupportedDimension(HeavenlyError):
    pass


class DegenerateChart(HeavenlyError):
    pass


class NotPurelyQuadratic(HeavenlyError):
    pass


class ZeroPolynomial(HeavenlyError):
    pass


class ZeroPullback(HeavenlyError):
    pass


class ProportionalityViolation(HeavenlyError):
    pass


class NoSamplePoint(HeavenlyError):
    pass


class ZeroReduction(HeavenlyError):
    pass


class NotInEF(HeavenlyError):
    pass


class JetOrderError(HeavenlyError):
    pass


class InvariantViolation(HeavenlyError):
    """An exact identity the computation relies on failed to hold."""


class ParseError(HeavenlyError):
    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at position {position})")
