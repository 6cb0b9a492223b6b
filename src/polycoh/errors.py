"""Exception hierarchy shared by all engine modules."""


class PolycohError(Exception):
    """Base class for every error raised by this package."""


class InvalidModulusError(PolycohError, ValueError):
    """A residue-set modulus was zero, negative, or otherwise unusable."""


class ModulusOverflowError(PolycohError, OverflowError):
    """A combined modulus left the supported 64-bit range.

    Catalog moduli are tiny, but user compositions can explode; the overflow
    is reported instead of silently wrapping.
    """


class NotAPrimeError(PolycohError, ValueError):
    """An argument that must be prime failed the deterministic primality test."""


class InvalidBoundError(PolycohError, ValueError):
    """A lower bound argument was out of range (e.g. below 2)."""


class InvalidTypeError(PolycohError, ValueError):
    """A degree multiset contained an odd, zero, or negative degree."""


class InvalidParametersError(PolycohError, ValueError):
    """Entry or group parameters violate their family's constraints."""


class SizeLimitError(PolycohError, RuntimeError):
    """A computation would pass a named limit: the order or tally table of a
    Molien group, the rho steps to factor an integer, the nodes of a
    decomposition walk, the degrees of a type or its candidate table."""


class InternalArithmeticError(PolycohError, RuntimeError):
    """Exact series averaging produced a non-integer or negative coefficient.

    This signals an implementation bug, never valid input behaviour.
    """


class CatalogError(PolycohError, ValueError):
    """A serialized catalog could not be parsed; the message names the entry."""


class RingSpecError(PolycohError, ValueError):
    """A textual coefficient-ring description could not be parsed."""
