"""Plane-filling curves over small finite fields.

Build the degree-(q+2) curves attached to 3x3 matrices and the
degree-(q+1) affine-filling family attached to 2x3 matrices, classify how
they split into irreducible pieces, and verify every prediction against a
brute-force enumeration oracle.
"""

from .affine import AffineLabel, BTransform, Matrix23, build_GM, classify_affine
from .fillcurve import (
    CaseLabel,
    DecompositionPlan,
    Matrix3,
    build_FA,
    build_UVW,
    charpoly,
    classify,
    minpoly,
    predicted_decomposition,
    rcf_similarity,
)
from .gf import FieldSpec, field_for_order, make_field
from .homog import HomogPoly, ProjPoint, linear_substitute, partials
from .poly import UniPoly, cubic_shape, divrem, quad_shape, roots
from .verify import (
    DecompositionReport,
    affine_report,
    count_points,
    decomposition_report,
    find_linear_components,
    missing_points_collinear,
    singular_Fq_points,
    sziklai_audit,
)

__version__ = "0.1.0"
