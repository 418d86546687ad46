"""Bigraded mod-2 cohomology of orthogonal and unitary classifying spaces.

The package materializes the cohomology rings and modules attached to a
quadratic extension of a finitely presented base-field model: a truncated
Groebner engine over GF(2), builders for every block, homomorphism and Sq1
verification, a formal motive calculus, and a CLI with an acceptance suite.
"""

from .bigraded import (
    AlgebraPresentation,
    Bidegree,
    Element,
    GenSpec,
    IdealGens,
    PoincareTable,
    colon_ideal,
    groebner,
    normal_form,
    poincare_table,
    presentation_new,
    quotient,
    shared_tables,
    standard_monomials,
    table_tensor,
)
from .milnor import (
    FieldModel,
    build_field_model,
    km_annihilator,
    km_normal_form,
)
from .maps import (
    Homomorphism,
    comp_kernel_ideal,
    comp_map,
    hom_compose,
    hom_define,
    hom_verify,
    kernel_match,
    specialize_classes,
    twist_iso,
)
from .motives import (
    Atom,
    ConeProduct,
    FormalMotive,
    affine_quadric_motive,
    motive_cohomology,
    motive_tensor,
    parse_motive,
    torsor_motive,
)
from .rings import (
    block_presentation,
    block_table,
    build_BO,
    build_BOhtilde,
    build_BOpn,
    build_BUn,
    build_H,
    build_Mtilde,
    build_Npow,
    build_X_BU,
    build_Xalpha,
    build_Xtilde,
    check_colimit,
    nbar_table,
    npow_bu_table,
)
from .steenrod import Derivation, sq1_apply, sq1_check, sq1_define

__version__ = "0.1.0"
