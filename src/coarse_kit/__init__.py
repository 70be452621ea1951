"""coarse-kit: exact certificates for finite complexes and cochain norms."""

from .complexes import (
    CellComplex,
    CellMap,
    annulus_triangulation,
    barycentric_subdivision,
    circle,
    coarsening_cylinder,
    filled_triangle,
    fundamental_cycle,
    glue,
    interval_product,
    labeled_cycle,
    mapping_cylinder,
    midpoint_subdivision,
    new_complex,
    path_complex,
    point,
    simplicial_complex,
    subcomplex_matching,
    wedge,
)
from .exact_linalg import (
    NormCertificate,
    SnfDecomposition,
    smith_normal_form,
    solve_integer,
)

__version__ = "0.1.0"

