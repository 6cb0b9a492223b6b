"""Decision engine for realizability of even-degree polynomial cohomology.

Given a multiset of even degrees and a coefficient ring described by its
set of non-unit primes, the engine decides whether a graded polynomial
algebra of that type occurs as the singular cohomology of a space,
produces decomposition witnesses, and expresses the usable primes as
congruence classes.  An independent exact Molien-series oracle verifies
the embedded reflection-group degree tables.
"""

__version__ = "0.1.0"

from .catalog import (
    Catalog,
    DegreeMultiset,
    EntryInstance,
    builtin,
    export_json,
    import_json,
    parse_entry_name,
)
from .decompose import Decomposition, decompose, decompose_at_prime
from .errors import (
    CatalogError,
    InternalArithmeticError,
    InvalidBoundError,
    InvalidModulusError,
    InvalidParametersError,
    InvalidTypeError,
    ModulusOverflowError,
    NotAPrimeError,
    PolycohError,
    RingSpecError,
    SizeLimitError,
)
from .molien import (
    doubled_degrees,
    group_order,
    invariant_degrees,
    molien_series,
    verify_degrees,
)
from .realizability import (
    PrimeSpec,
    RealizabilityReport,
    congruence_classes,
    prime_set_of_type,
    realizable_at_prime,
    realizable_over,
)
from .residues import (
    ALL_PRIMES,
    NO_PRIMES,
    ResidueSet,
    as_json_dict,
    class_contains_prime,
    contains_prime,
    exclude_prime,
    from_min_prime,
    intersect,
    make,
    normalize,
    prime_subset,
    union,
)

__all__ = [name for name in dir() if not name.startswith("_")]
