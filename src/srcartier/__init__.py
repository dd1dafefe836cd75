"""Cartier algebras of Stanley-Reisner rings: principal vs infinite
generation, decided by mutually verifying ideal-theoretic and
combinatorial criteria, with exact GF(p) homology support."""

from .cartier import (
    ClassificationReport,
    CrossValidationReport,
    InconsistencyError,
    Verdict,
    classify,
    classify_via_free_face,
    classify_via_ideal,
    complex_of_ideal,
    cross_validate,
    enumerate_complexes,
    ideal_of_complex,
    random_complex,
    witness_monomial,
)
from .complexes import (
    FreeFacePair,
    SimplicialComplex,
    build_complex,
    collapse_greedy,
    cone_vertices,
    core,
    deletion,
    dimension,
    elementary_collapse,
    free_faces,
    is_face,
    link,
    minimal_nonfaces,
    support_vertices,
)
from .homology import (
    PrimeField,
    buchsbaum_star_refutation,
    is_cohen_macaulay,
    is_doubly_cohen_macaulay,
    is_gorenstein,
    is_gorenstein_star,
    reduced_betti,
    relative_map_is_surjective,
)
from .monomials import (
    Monomial,
    MonomialIdeal,
    add,
    colon,
    contains,
    divides,
    format_monomial,
    frobenius_power,
    minimize,
    parse_monomial,
    principal,
)

__version__ = "0.1.0"
