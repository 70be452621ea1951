"""Complexes built from others: mapping cylinders, gluing, cell removal,
interval products, and barycentric and cone subdivisions.

These builders leave the core of :mod:`coarse_kit.complexes` because only
some commands run them: ``build annulus`` and ``build product``,
verify-prop52 and its check-witness (the product X x [0, n] of the
``beta`` certificate), and the tower builders of :mod:`coarse_kit.towers`
(cell removal, the cone and barycentric subdivisions).  Gluing, wedges and
the general mapping cylinder serve the tests and their reference builders.
"""

from itertools import chain, combinations

from .complexes import (
    CellComplex,
    CellMap,
    Subdivision,
    _cylinder,
    _glue_numbering,
    _rim_map,
    circle,
    simplicial_complex,
)
from .errors import (
    DimensionTooHigh,
    NotASubcomplex,
    NotAVertex,
    NotDivisible,
    NotIsomorphic,
    NotSimplicial,
    ShapeMismatch,
    SizeGuardExceeded,
    TooFewVertices,
)

DEFAULT_CELL_BUDGET = 2_000_000


# -- mapping cylinders -----------------------------------------------------


def mapping_cylinder(f):
    """Triangulated mapping cylinder of a simplicial map.

    Returns ``(cylinder, inclusion_domain, retraction_to_target)``.  The
    domain copy is labeled "domain", the target copy "target"; the cylinder
    deformation-retracts to the target, so their homologies agree (tested
    via the Smith-form oracle).
    """
    K, L, vm = f.source, f.target, f.vertex_map
    nk = K.n_cells(0)
    # domain vertex v is v in the cylinder, target vertex w is nk + w
    simp = {tuple(nk + w for w in verts)
            for level in L.simplices for verts in level}
    for level in K.simplices:
        for verts in level:
            for i in range(len(verts)):
                simp.add(verts[:i + 1]
                         + tuple(sorted({nk + vm[v] for v in verts[i:]})))
    cyl = simplicial_complex(sorted(simp, key=lambda t: (len(t), t)))
    cyl = cyl.relabeled({
        "domain": _vertex_span_cells(cyl, range(nk)),
        "target": _vertex_span_cells(cyl, range(nk, cyl.n_cells(0)))})
    incl = CellMap.from_vertex_map(K, cyl, range(nk))
    retr = CellMap.from_vertex_map(cyl, L, vm + list(range(L.n_cells(0))))
    return cyl, incl, retr


def annulus_triangulation(a, b):
    """Mapping-cylinder stage between circle(a) and circle(b), a = d*b.

    The collapse restricts to the degree-d map j -> j mod b on the domain
    rim.  Labels: "domain-rim" (the a-circle), "target-rim" (the b-circle).
    Returns ``(complex, collapse map to circle(b))``.
    """
    return _rim_cylinder(a, b, True)


def coarsening_cylinder(a, b):
    """Mapping cylinder of the degree-1 subdivision collapse j -> j // (a/b).

    Used to re-coarsen circle sizes between winding stages without adding
    degree.  Same labeling contract as :func:`annulus_triangulation`.
    """
    return _rim_cylinder(a, b, False)


def _rim_cylinder(a, b, winding):
    """Labeled mapping cylinder of circle(a) -> circle(b) by ``_rim_map``."""
    if b < 3:
        raise TooFewVertices(f"target circle needs >= 3 vertices, got {b}")
    if a % b != 0 or a < b:
        raise NotDivisible(f"domain size {a} is not a positive multiple of {b}")
    f = _rim_map(a, b, winding)
    cyl = simplicial_complex(_cylinder(a, f))
    dom = _vertex_span_cells(cyl, range(a))
    tgt = _vertex_span_cells(cyl, range(a, a + b))
    cyl = cyl.relabeled({"domain": dom, "target": tgt,
                         "domain-rim": dom, "target-rim": tgt})
    return cyl, CellMap(cyl, circle(b), f + list(range(b)))


def _vertex_span_cells(X, vertices):
    """All cells of X whose vertices lie in the given set."""
    vs = set(vertices)
    return [(k, i) for k, level in enumerate(X.simplices)
            for i, verts in enumerate(level) if vs.issuperset(verts)]


# -- wedge and gluing -------------------------------------------------------


def wedge(X, Y, x0, y0):
    """One-point union identifying vertex y0 of Y with vertex x0 of X."""
    if not (0 <= x0 < X.n_cells(0)):
        raise NotAVertex(f"{x0} is not a vertex of the first summand")
    if not (0 <= y0 < Y.n_cells(0)):
        raise NotAVertex(f"{y0} is not a vertex of the second summand")
    return glue(X, Y, {y0: x0})


def subcomplex_matching(X, label_x, Y, label_y, vertex_map):
    """The vertex identification of Y's labeled subcomplex with X's.

    ``vertex_map`` maps the vertices of Y's labeled subcomplex onto the
    vertices of X's.  Raises NotASubcomplex when Y's label is not closed
    under faces, and NotIsomorphic when the map is not a simplicial
    isomorphism of the two subcomplexes.  Returns ``{Y-vertex: X-vertex}``
    over the vertices of Y's label, the form :func:`glue` takes.
    """
    cells_x = set(X.label_cells(label_x))
    cells_y = Y.label_cells(label_y)
    if len(cells_y) != len(cells_x):
        raise NotIsomorphic(
            f"subcomplex sizes differ: {len(cells_y)} vs {len(cells_x)}"
        )
    closed = set(cells_y)
    seen = set()
    for (k, i) in cells_y:
        if any((k - 1, r) not in closed for r in Y.boundary_of(k, i)):
            raise NotASubcomplex(
                f"label {label_y!r} is not closed under faces at Y-cell "
                f"(dim {k}, {i})"
            )
        try:
            images = [vertex_map[v] for v in Y.simplex(k, i)]
        except KeyError as exc:
            raise NotIsomorphic(f"vertex {exc} not covered by the matching")
        idx = X.simplex_index(images)
        if idx is None or (k, idx) not in cells_x:
            raise NotIsomorphic(
                f"cell (dim {k}, {i}) has no matching image in {label_x!r}"
            )
        if (k, idx) in seen:
            raise NotIsomorphic("vertex map is not injective on cells")
        seen.add((k, idx))
    return {v: vertex_map[v] for d, v in cells_y if d == 0}


def glue(X, Y, identify):
    """Simplicial pushout of X and Y along a vertex identification.

    ``identify`` maps Y-vertices injectively to X-vertices, the form that
    :func:`wedge` and :func:`subcomplex_matching` build; the vertices are
    numbered by :func:`_glue_numbering`.  The result is built from the
    merged vertex tuples, so a Y-simplex whose image is an X-simplex is
    counted once, and every stored boundary keeps the sorted-tuple
    alternating-sign convention that vertex-map-induced chain maps rely
    on.  It carries X's labels and Y's, a Y label whose name X already
    uses with ``+`` appended.
    """
    if not (X.is_simplicial and Y.is_simplicial):
        raise NotSimplicial("glue joins two simplicial complexes")
    _, y_tuples = _glue_numbering(X.n_cells(0), Y.n_cells(0), identify,
                                  Y.simplices)
    Z = simplicial_complex([verts for level in X.simplices + y_tuples
                            for verts in level])
    labels = {}
    for name, cells in X.labels.items():
        labels[name] = tuple(sorted(
            (k, Z.simplex_index(X.simplex(k, i))) for k, i in cells
        ))
    for name, cells in Y.labels.items():
        key = name
        while key in labels:
            key += "+"
        labels[key] = tuple(sorted(
            (k, Z.simplex_index(y_tuples[k][i])) for k, i in cells
        ))
    return Z.relabeled(labels)


def remove_cells(X, cells):
    """Delete open cells (cells no remaining cell has on its boundary) of a
    simplicial complex; the kept cells and vertices keep their order."""
    if not X.is_simplicial:
        raise NotSimplicial("remove_cells needs a simplicial complex")
    doomed = set(cells)
    for k in range(1, X.dim + 1):
        for i in range(X.n_cells(k)):
            if (k, i) in doomed:
                continue
            for r in X.boundary_of(k, i):
                if (k - 1, r) in doomed:
                    raise NotASubcomplex(
                        f"cell (dim {k - 1}, {r}) is still a face of (dim {k}, {i})"
                    )
    new_index = {}
    for k in range(X.dim + 1):
        kept = [i for i in range(X.n_cells(k)) if (k, i) not in doomed]
        new_index.update(((k, i), pos) for pos, i in enumerate(kept))
    vmap = {i: new_index[(0, i)] for i in range(X.n_cells(0))
            if (0, i) not in doomed}
    levels = [[tuple(vmap[v] for v in verts)
               for i, verts in enumerate(level) if (k, i) not in doomed]
              for k, level in enumerate(X.simplices)]
    labels = {}
    for name, lcells in X.labels.items():
        kept = tuple(sorted(
            (k, new_index[(k, i)]) for k, i in lcells if (k, i) not in doomed
        ))
        if kept:
            labels[name] = kept
    return CellComplex.from_simplices(levels, labels=labels)


# -- products ----------------------------------------------------------------


class IntervalProduct:
    """X x [0, n] as a regular cell complex with structured cell indexing.

    k-cells come in two blocks: slice cells sigma x {l} (ordered by level then
    base index) followed by prism cells tau x [l, l+1].
    """

    def __init__(self, complex, base, n):
        self.complex = complex
        self.base = base
        self.n = n

    def slice_cell(self, k, i, level):
        return level * self.base.n_cells(k) + i

    def prism_cell(self, k, i, level):
        # k = dimension of the product cell; the base cell has dim k-1
        off = (self.n + 1) * self.base.n_cells(k)
        return off + level * self.base.n_cells(k - 1) + i


def interval_product(X, n, size_guard=DEFAULT_CELL_BUDGET):
    """Regular cell structure on X x [0, n] with unit interval subdivision.

    Boundary convention: d(sigma x [l, l+1]) = d(sigma) x [l, l+1]
    + (-1)^dim(sigma) (sigma x {l+1} - sigma x {l}), written in that order
    straight from X's tables with no d.d check: the formula makes a chain
    complex of any chain complex X (Hatcher, *Algebraic Topology*, 3.B).
    """
    if X.dim > 2:
        raise DimensionTooHigh("products only implemented for base dim <= 2")
    if n < 1:
        raise ShapeMismatch("interval products need n >= 1")
    total = (2 * n + 1) * X.total_cells()
    if total > size_guard:
        raise SizeGuardExceeded(
            f"product would have {total} cells (budget {size_guard})"
        )
    prod = IntervalProduct(None, X, n)
    tables = [([], [], [0] * ((n + 1) * X.n_cells(0) + 1))]
    for k in range(1, X.dim + 2):
        rows, coefs, ptr = [], [], [0]
        if k <= X.dim:
            # slice cells sigma x {l}: X's table, rows shifted to level l
            x_rows, x_coefs, x_ptr = X.boundary_table(k)
            for l in range(n + 1):
                off, start = l * X.n_cells(k - 1), len(rows)
                rows += [r + off for r in x_rows]
                coefs += x_coefs
                ptr += [start + t for t in x_ptr[1:]]
        # prism cells tau x [l, l+1] over the (k-1)-cells tau
        x_rows, x_coefs, x_ptr = X.boundary_table(k - 1)
        sgn = (-1) ** (k - 1)
        for l in range(n):
            off = prod.prism_cell(k - 1, 0, l)
            for i in range(X.n_cells(k - 1)):
                a, b = x_ptr[i], x_ptr[i + 1]
                rows += [r + off for r in x_rows[a:b]]
                coefs += x_coefs[a:b]
                rows += (prod.slice_cell(k - 1, i, l + 1),
                         prod.slice_cell(k - 1, i, l))
                coefs += (sgn, -sgn)
                ptr.append(len(rows))
        tables.append((rows, coefs, ptr))
    labels = {}
    for l in range(n + 1):
        labels[f"slice-{l}"] = [
            (k, prod.slice_cell(k, i, l))
            for k in range(X.dim + 1)
            for i in range(X.n_cells(k))
        ]
    prod.complex = CellComplex._from_tables(tables, labels)
    return prod


# -- subdivisions -------------------------------------------------------------


def barycentric_subdivision(X):
    """Standard barycentric subdivision of a simplicial complex.

    New vertices are the cells of X, in cell order, each carried by itself;
    new simplices are flags of proper faces.
    """
    if not X.is_simplicial:
        raise NotSimplicial("barycentric subdivision needs a simplicial complex")
    cell_order = [(k, i) for k in range(X.dim + 1) for i in range(X.n_cells(k))]
    vert_of = {c: t for t, c in enumerate(cell_order)}
    flags_by_top = {c: [[c]] for c in cell_order}
    for k in range(X.dim + 1):
        for i in range(X.n_cells(k)):
            verts = set(X.simplices[k][i])
            faces = []
            for r in range(1, k + 1):
                for sub in combinations(sorted(verts), r):
                    faces.append((r - 1, X.simplex_index(sub)))
            for fc in faces:
                for flag in flags_by_top[fc]:
                    flags_by_top[(k, i)].append(flag + [(k, i)])
    simplices = []
    all_flags = []
    for c in cell_order:
        all_flags.extend(flags_by_top[c])
    for flag in all_flags:
        simplices.append(tuple(sorted(vert_of[c] for c in flag)))
    sd = simplicial_complex(simplices)
    return Subdivision(sd, X, list(chain.from_iterable(X.simplices)))


def cone_middle_subdivision(sub):
    """Midpoint subdivision with every middle face coned from a new apex.

    ``sub`` is the ``complexes.midpoint_subdivision_global`` of the base.  The
    standard stage-target subdivision: mesh <= 1/2 of the base.  Each apex
    is carried by its base face; ``apexes`` maps each base face to its apex
    vertex.
    """
    X = sub.base
    sd = sub.complex
    apex_of = {}
    middles = set(sub.middle_faces.values())
    simplices = []
    for k in range(sd.dim + 1):
        for i, verts in enumerate(sd.simplices[k]):
            if k == 2 and i in middles:
                continue
            simplices.append(verts)
    vertex_carriers = list(sub.vertex_carriers)
    for f, midf in sorted(sub.middle_faces.items()):
        apex = apex_of[f] = len(vertex_carriers)
        vertex_carriers.append(X.simplices[2][f])
        m1, m2, m3 = sd.simplices[2][midf]
        for pair in ((m1, m2), (m1, m3), (m2, m3)):
            simplices.append(tuple(sorted(pair + (apex,))))
    tau = simplicial_complex(simplices)
    return Subdivision(tau, X, vertex_carriers,
                       middle_faces=dict(sub.middle_faces), apexes=apex_of)
