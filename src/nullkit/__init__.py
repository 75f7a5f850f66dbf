"""Vanishing ideals of affine and projective varieties over finite fields.

The toolkit computes the full vanishing ideal of the zero set of an
ideal by closed formulas (adding field equations in the affine case, a
single colon or a saturation in the projective case), checks those
formulas against a brute-force point-enumeration oracle, builds
explicit membership certificates, and runs the bounded searches behind
a counterexample to several composed-form membership claims.
"""

from .conjectures import (
    Exhausted,
    NonRadicalInstance,
    RWitness,
    SearchBounds,
    SuiteReport,
    check_form_class,
    counterexample_suite,
    enumerate_forms,
    find_nonradical_instance,
    search_witness,
    verify_kradical_witness,
)
from .errors import NullkitError
from .field import FieldElement, FieldSpec, enumerate_field, make_field
from .groebner import GroebnerBasis, buchberger, normal_form
from .ideals import (
    Ideal,
    eliminate,
    ideal_intersect,
    ideal_quotient,
    ideal_saturate,
    ideal_sum,
    radical_membership,
)
from .nullstellensatz import (
    Certificate,
    MethodReport,
    NullConfig,
    affine_vanishing,
    certify_membership,
    classify_empty,
    degree_bound,
    make_certificate,
    make_certificates,
    projective_vanishing,
)
from .poly import (
    DEGREVLEX,
    LEX,
    Polynomial,
    block_order,
    dehomogenize,
    homogenize,
    parse_polynomial,
)
from .varieties import (
    AffinePoint,
    ProjectivePoint,
    Variety,
    enumerate_space,
    oracle_vanishing_ideal,
    point_ideal,
    zero_set,
)

__version__ = "0.1.0"

__all__ = [
    "AffinePoint",
    "Certificate",
    "DEGREVLEX",
    "Exhausted",
    "FieldElement",
    "FieldSpec",
    "GroebnerBasis",
    "Ideal",
    "LEX",
    "MethodReport",
    "NonRadicalInstance",
    "NullConfig",
    "NullkitError",
    "Polynomial",
    "ProjectivePoint",
    "RWitness",
    "SearchBounds",
    "SuiteReport",
    "Variety",
    "affine_vanishing",
    "block_order",
    "buchberger",
    "certify_membership",
    "check_form_class",
    "classify_empty",
    "counterexample_suite",
    "degree_bound",
    "dehomogenize",
    "eliminate",
    "enumerate_field",
    "enumerate_forms",
    "enumerate_space",
    "find_nonradical_instance",
    "homogenize",
    "ideal_intersect",
    "ideal_quotient",
    "ideal_saturate",
    "ideal_sum",
    "make_certificate",
    "make_certificates",
    "make_field",
    "normal_form",
    "oracle_vanishing_ideal",
    "parse_polynomial",
    "point_ideal",
    "projective_vanishing",
    "radical_membership",
    "search_witness",
    "verify_kradical_witness",
    "zero_set",
]
