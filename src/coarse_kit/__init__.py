"""coarse-kit: exact certificates for finite complexes and cochain norms.

The names below are exported lazily (PEP 562): ``import coarse_kit`` loads
no module of the package, and the first use of a name loads its module, so
a CLI process compiles only the modules its command imports.
"""

__version__ = "0.1.0"

# exported name -> the module of the package that defines it
_EXPORTS = {
    **dict.fromkeys([
        "CellComplex", "CellMap", "circle", "filled_triangle",
        "fundamental_cycle", "labeled_cycle", "midpoint_subdivision",
        "new_complex", "path_complex", "point", "simplicial_complex",
    ], "complexes"),
    **dict.fromkeys([
        "annulus_triangulation", "barycentric_subdivision",
        "coarsening_cylinder", "glue", "interval_product", "mapping_cylinder",
        "subcomplex_matching", "wedge",
    ], "constructions"),
    **dict.fromkeys([
        "NormCertificate", "SnfDecomposition", "smith_normal_form",
        "solve_integer",
    ], "exact_linalg"),
}


def __getattr__(name):
    home = _EXPORTS.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{home}"), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
