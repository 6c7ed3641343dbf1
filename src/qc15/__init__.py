"""Quasi-cyclic codes of index 1½ over odd prime fields.

Construction from a polynomial pair (a, a'), derived parameters (generator
and check polynomials, dimension, generator matrix, exact minimum distance),
and a verification harness for the restricted random-code ensemble with its
entropy bounds.
"""

from .algebra import (
    CosetPartition,
    Poly,
    PrimeField,
    RingElement,
    crt_combine,
    crt_split,
    cyclotomic_cosets,
    min_factor_degree,
    poly_gcd,
)
from .bounds import (
    delta_prob_bound,
    delta_star,
    goodness_indicator,
    ideal_expectation_bound,
    qary_entropy,
    qary_entropy_inv,
    scan_goodness_records,
)
from .codes import (
    DEFAULT_ENUM_LIMIT,
    DistanceResult,
    Qc15Code,
    Word,
    check_poly,
    circulant_matrix,
    construct_code,
    generator_poly,
    span_matrix,
)
from .ensemble import (
    EnsembleReport,
    RestrictedPair,
    count_ideals_by_dim,
    exact_delta_leq_prob,
    exact_fullrank_prob,
    exact_low_weight_fraction,
    fullrank_census,
    ideal_dim,
    mc_delta_prob,
    mc_fullrank_prob,
    sample_pair,
    sphere_count_check,
    trial_rng,
    weight_threshold,
)
from .errors import (
    BoundOverflow,
    DimensionMismatch,
    DivisionByZero,
    DomainError,
    EmptyTrialSet,
    EnumerationTooLarge,
    FieldMismatch,
    NoNonzeroCoset,
    NotADivisor,
    NotCoprime,
    QC15Error,
    RingMismatch,
    ZeroCode,
)

__version__ = "0.1.0"
