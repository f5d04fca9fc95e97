"""Exception types shared across the library; each carries the stderr label
and the exit code the command line reports it with."""


class HeavenlyError(Exception):
    """Base class for all library errors."""

    label = "error"
    exit_code = 2


class RejectedInput(HeavenlyError):
    """The input lies outside what the toolkit decides."""

    label = "rejected"


class NotInSpan(RejectedInput):
    """A polynomial is not a linear combination of Hessian minors.

    Carries the offending monomials so callers can report them.
    """

    def __init__(self, monomials=()):
        self.monomials = tuple(monomials)
        pretty = ", ".join(str(m) for m in self.monomials) or "unknown"
        super().__init__(f"not in the minor span (offending monomials: {pretty})")


class UnsupportedDimension(RejectedInput):
    pass


class DegenerateChart(RejectedInput):
    pass


class NotPurelyQuadratic(RejectedInput):
    pass


class ZeroPolynomial(HeavenlyError):
    pass


class NoSamplePoint(HeavenlyError):
    """No point of {F = 0} was found to sample, so no verdict is given."""

    label = "inconclusive"
    exit_code = 3


class ZeroReduction(RejectedInput):
    pass


class NotInEF(RejectedInput):
    pass


class JetOrderError(HeavenlyError):
    pass


class InvariantViolation(HeavenlyError):
    """An exact identity the computation relies on failed to hold."""


class ParseError(RejectedInput):
    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at position {position})")
