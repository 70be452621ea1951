"""Finite regular cell complexes with exact integer incidence data.

A complex stores, per dimension k, an ordered list of k-cells and the integer
boundary matrix taking k-cells to (k-1)-chains.  Simplicial complexes
additionally carry the vertex tuple of every cell, which is what simplicial
maps, subdivisions and gluings work through.  Cells are addressed as
``(dim, index)`` pairs; labels attach semantic roles ("boundary", "p-hole")
to cell sets.

Everything here is immutable after construction and all arithmetic is plain
Python integers, so values can be shared freely between threads.  The one
cache, a simplicial complex's face index, is filled level by level on first
lookup; two threads filling one level at once store equal dicts.
"""

from copy import copy
from itertools import chain, combinations, compress, islice, repeat
from operator import and_, itemgetter, lt, not_

from .errors import (
    DimensionTooHigh,
    NotAChainComplex,
    NotASimplex,
    NotASubcomplex,
    NotAVertex,
    NotDivisible,
    NotIsomorphic,
    NotSimplicial,
    ShapeMismatch,
    SizeGuardExceeded,
    TooFewVertices,
)

Cell = tuple  # (dim, index)

DEFAULT_CELL_BUDGET = 2_000_000


def same_structure(X, Y):
    """Same cell counts and boundary tables (complexes as immutable values);
    relabeled copies share their tables."""
    if X is Y or X._tables is Y._tables:
        return True
    return X.counts == Y.counts and all(
        (a[0] == b[0] and a[1] == b[1] and list(a[2]) == list(b[2]))
        or X.boundary_columns(k) == Y.boundary_columns(k)
        for k, (a, b) in enumerate(zip(X._tables, Y._tables)))


def _sorted_labels(labels):
    """Each label's cells as a sorted tuple of int (dim, index) pairs."""
    return {name: tuple(sorted((int(d), int(i)) for d, i in cells))
            for name, cells in labels.items()}


def _sorted_with_sign(images):
    """Sorted tuple of ``images`` and the parity sign of the sorting
    permutation, both from one insertion sort; ``(None, 0)`` on a repeat."""
    items = list(images)
    sign = 1
    for t in range(1, len(items)):
        v = items[t]
        s = t
        while s and items[s - 1] > v:
            items[s] = items[s - 1]
            s -= 1
            sign = -sign
        if s and items[s - 1] == v:
            return None, 0
        items[s] = v
    return tuple(items), sign


def _increasing_rows(rows, n):
    """Per row of ``rows``, each n entries long, whether its entries
    strictly increase: one pass per pair of neighbouring vertex columns,
    each read off the rows as it goes (a transposed copy of the rows
    would cost an iterator per row)."""
    ok = repeat(True, len(rows))
    for j in range(n - 1):
        ok = map(and_, ok, map(lt, map(itemgetter(j), rows),
                               map(itemgetter(j + 1), rows)))
    return ok


def _are_vertex_ids(ids, n):
    """True when every item of ``ids`` is an int in ``range(n)``.  The
    vertex level of a simplicial complex is ``(0,), ..., (n-1,)``, so these
    are the vertices, each its own cell index."""
    return not ids or (set(map(type, ids)) == {int}
                       and min(ids) >= 0 and max(ids) < n)


def _face_rows(level, faces, k):
    """Row of every face of every sorted k-simplex of a level, cell after
    cell, face i dropping vertex i.  ``faces`` indexes the (k-1)-simplices;
    for k = 1 it is the vertex count, vertex v being cell v, so the rows
    are the edges' two vertex columns.  A missing face raises NotSimplicial
    naming the first cell that has one."""
    rows = [0] * ((k + 1) * len(level))
    if k == 1:
        rows[0::2] = map(itemgetter(1), level)
        rows[1::2] = map(itemgetter(0), level)
        if _are_vertex_ids(rows, faces):
            return rows
        n = faces

        def has(face):
            return _are_vertex_ids(face, n)
    else:
        try:
            for i in range(k + 1):
                face = itemgetter(*range(i), *range(i + 1, k + 1))
                rows[i::k + 1] = map(faces.__getitem__, map(face, level))
            return rows
        except KeyError:
            has = faces.__contains__
    j, face = next((j, s[:i] + s[i + 1:]) for j, s in enumerate(level)
                   for i in range(k + 1) if not has(s[:i] + s[i + 1:]))
    raise NotSimplicial(
        f"cell (dim {k}, {j}) has face {face}, which is not in the "
        f"dim {k - 1} simplex table")


class CellComplex:
    """A finite regular cell complex with integer boundary matrices.

    Args:
        counts: number of cells per dimension 0..dim.
        boundaries: per dimension k >= 1, a list over k-cells of
            ``{(k-1)-cell index: incidence coefficient}`` dicts.
        labels: mapping label -> iterable of (dim, index) cells.

    The boundary of each dimension k is stored as one flat table
    ``(rows, coefs, ptr)``: the entries of cell j are ``rows[t]`` with
    coefficient ``coefs[t]`` for t in ``range(ptr[j], ptr[j + 1])``.  No
    per-cell object is kept; :meth:`boundary_of` and
    :meth:`boundary_columns` build fresh dicts from the table.

    ``coboundary_factors`` memoises, by degree k, the nonzero invariant
    factors of delta_k that ``cochains.cohomology`` reads; the boundaries
    do not change after construction.

    This constructor makes a cell complex: it copies the raw columns it is
    given, dropping zero entries and checking every row index.  Every
    simplicial complex is made by :meth:`from_simplices` instead, which
    computes its tables from the vertex tuples.
    """

    def __init__(self, counts, boundaries, labels=None):
        self.counts = [int(c) for c in counts]
        while len(self.counts) > 1 and self.counts[-1] == 0:
            self.counts.pop()
        self.dim = len(self.counts) - 1
        self._tables = [([], [], [0] * (self.counts[0] + 1))]
        for k in range(1, self.dim + 1):
            cols = boundaries[k]
            if len(cols) != self.counts[k]:
                raise ShapeMismatch(
                    f"dimension {k}: {len(cols)} boundary columns for {self.counts[k]} cells"
                )
            n_rows = self.counts[k - 1]
            rows, coefs, ptr = [], [], [0]
            for j, col in enumerate(cols):
                for r, c in col.items():
                    if c == 0:
                        continue
                    r = int(r)
                    if r < 0 or r >= n_rows:
                        raise ShapeMismatch(
                            f"row {r} out of range at cell (dim {k}, {j})"
                        )
                    rows.append(r)
                    coefs.append(int(c))
                ptr.append(len(rows))
            self._tables.append((rows, coefs, ptr))
        self.simplices = None
        self.coboundary_factors = {}
        self.labels = _sorted_labels(labels or {})
        self._validate()

    @classmethod
    def from_simplices(cls, levels, labels=None):
        """Simplicial complex on its simplex levels.

        ``levels[k]`` lists the k-simplices in cell order, each a strictly
        increasing tuple of k+1 vertex ids and none twice; ``levels[0]``
        must be ``(0,), (1,), ..., (n-1,)`` in that order, and every face
        of a k-simplex must be in ``levels[k-1]``.  Face i of a k-simplex
        drops vertex i and has coefficient (-1)**i, so a level's table is
        its face rows with ``ptr`` a range of step k+1 and the alternating
        coefficients repeated.  The level lists become the complex's own
        without a copy; trailing empty levels are dropped.

        Checked, each refusal naming its cell: the tuples, the vertex ids,
        repeats and missing faces.  d.d = 0 needs no check: face l-1 of
        face i and face i of face l (i < l) are the same tuple, so their
        rows agree, and their coefficients (-1)**(i+l-1) and (-1)**(i+l)
        cancel.  A vertex's cell index is its id, so level 0 has no
        ``{tuple: index}`` dict and the edges' face rows are their two
        vertex columns.  Level k >= 1's dict serves only its repeat check
        and level k+1's face rows; lookups go to :meth:`_level_index`.  So
        the top level builds none when one pass over neighbouring tuples
        finds it strictly increasing, which leaves no room for a repeat.
        """
        levels = list(levels)
        while len(levels) > 1 and not levels[-1]:
            levels.pop()
        tables = [([], [], [0] * (len(levels[0]) + 1))]
        for k, level in enumerate(levels):
            if not (set(map(len, level)) <= {k + 1}
                    and all(_increasing_rows(level, k + 1))):
                i, verts = next(
                    (i, s) for i, s in enumerate(level)
                    if len(s) != k + 1 or list(s) != sorted(set(s)))
                raise NotSimplicial(
                    f"bad vertex tuple {verts} at cell (dim {k}, {i})")
            if k == 0:
                i = next((i for i, (v,) in enumerate(level) if v != i), None)
                if i is not None:
                    raise NotSimplicial(
                        f"vertex {level[i]} at cell (dim 0, {i}): the vertex "
                        f"ids must be 0..{len(level) - 1} in order")
                # ids in order repeat none, and they index the vertices
                faces = len(level)
                continue
            n = len(level)
            tables.append((_face_rows(level, faces, k),
                           [(-1) ** i for i in range(k + 1)] * n,
                           range(0, (k + 1) * n + 1, k + 1)))
            if (k == len(levels) - 1
                    and all(map(lt, level, islice(level, 1, None)))):
                break  # a strictly increasing top level repeats nothing
            faces = None  # free level k-1's index first
            faces = {s: i for i, s in enumerate(level)}
            if len(faces) != len(level):
                # faces keeps the last copy: the first cell it misses is the
                # first copy of a repeat
                i = next(i for i, s in enumerate(level) if faces[s] != i)
                raise NotSimplicial(
                    f"simplex {level[i]} at cell (dim {k}, {i}) is repeated "
                    f"at cell (dim {k}, {faces[level[i]]})")
        X = cls._from_tables(tables, labels)
        X.simplices, X._simplex_index = levels, [None] * len(levels)
        return X

    @classmethod
    def _from_tables(cls, tables, labels):
        """Cell complex on flat boundary tables that are a chain complex by
        construction, taken as they are: no copy and no d.d check.  The
        counts are read off each ``ptr``, and the last level has cells."""
        X = cls.__new__(cls)
        X.counts = [len(ptr) - 1 for _, _, ptr in tables]
        X.dim = len(tables) - 1
        X._tables = tables
        X.simplices = None
        X.coboundary_factors = {}
        X.labels = _sorted_labels(labels or {})
        return X

    # -- basic queries ---------------------------------------------------

    def n_cells(self, k):
        if 0 <= k <= self.dim:
            return self.counts[k]
        return 0

    def total_cells(self):
        return sum(self.counts)

    def boundary_of(self, k, i):
        """Boundary of the i-th k-cell as a fresh {row: coeff} dict."""
        rows, coefs, ptr = self._tables[k]
        a, b = ptr[i], ptr[i + 1]
        return dict(zip(rows[a:b], coefs[a:b]))

    def boundary_columns(self, k):
        """Fresh {row: coeff} dicts of every k-cell, in cell order."""
        rows, coefs, ptr = self._tables[k]
        return [dict(zip(rows[a:b], coefs[a:b]))
                for a, b in zip(ptr, ptr[1:])]

    def boundary_table(self, k):
        """The flat boundary table ``(rows, coefs, ptr)`` of dimension k,
        the complex's own (see the class docstring); do not modify it."""
        return self._tables[k]

    def edge_ends(self):
        """Per edge, ``(tail, head)`` when its boundary is head - tail, and
        None for any other edge (a loop, say).  On a simplicial complex
        these are its edge tuples."""
        if self.dim < 1:
            return []
        if self.is_simplicial:
            return self.simplices[1]
        rows, coefs, ptr = self._tables[1]
        ends = []
        for a, b in zip(ptr, ptr[1:]):
            col = sorted(zip(coefs[a:b], rows[a:b]))
            ends.append((col[0][1], col[1][1])
                        if [c for c, _ in col] == [-1, 1] else None)
        return ends

    def euler_characteristic(self):
        return sum((-1) ** k * c for k, c in enumerate(self.counts))

    @property
    def is_simplicial(self):
        return self.simplices is not None

    def simplex(self, k, i):
        if not self.is_simplicial:
            raise NotSimplicial("complex has no simplex tables")
        return self.simplices[k][i]

    def simplex_index(self, verts):
        verts = tuple(sorted(verts))
        k = len(verts) - 1
        if not self.is_simplicial or k > self.dim:
            return None
        if k == 0:
            return verts[0] if _are_vertex_ids(verts, self.counts[0]) else None
        return self._level_index(k).get(verts)

    def _level_index(self, k):
        """``{simplex: index}`` of the k-simplices (k >= 1; a vertex is its
        own index), built on first use and kept in the per-level cache that
        relabeled copies share."""
        index = self._simplex_index[k]
        if index is None:
            index = self._simplex_index[k] = {
                s: i for i, s in enumerate(self.simplices[k])}
        return index

    def label_cells(self, name):
        if name not in self.labels:
            raise KeyError(f"no label {name!r}")
        return self.labels[name]

    def label_cells_of_dim(self, name, k):
        return tuple(i for d, i in self.label_cells(name) if d == k)

    def relabeled(self, labels):
        """This complex with exactly the given labels.

        A shallow copy: it shares the boundary tables, simplex tables, face
        index cache and ``coboundary_factors`` memo, none of which depend on
        labels.
        """
        Z = copy(self)
        Z.labels = _sorted_labels(labels)
        return Z

    # -- validation ------------------------------------------------------

    def _validate(self):
        """d.d = 0 at every cell; NotAChainComplex names the first cell,
        in order of dimension then index, where it fails.  Run on every cell
        complex; :meth:`from_simplices` tables need no run (see there)."""
        for k in range(2, self.dim + 1):
            rows, coefs, ptr = self._tables[k]
            below, below_coefs, below_ptr = self._tables[k - 1]
            for j in range(self.counts[k]):
                acc = {}
                for t in range(ptr[j], ptr[j + 1]):
                    c = coefs[t]
                    r = rows[t]
                    for u in range(below_ptr[r], below_ptr[r + 1]):
                        acc[below[u]] = acc.get(below[u], 0) + c * below_coefs[u]
                if any(acc.values()):
                    raise NotAChainComplex(
                        f"boundary squared nonzero at cell (dim {k}, index {j})",
                        cell=(k, j),
                    )

    def __repr__(self):
        kind = "simplicial" if self.is_simplicial else "cell"
        return f"<{kind} complex dim={self.dim} cells={self.counts}>"


def new_complex(cells_per_dim, boundaries, labels=None):
    """Build and validate a cell complex from raw cell counts and boundary
    dicts."""
    return CellComplex(cells_per_dim, boundaries, labels=labels)


def simplicial_complex(simplices, labels=None):
    """Build a simplicial complex from vertex tuples (closed under faces).

    Vertices are taken to be 0..max referenced index, so the vertex level
    is ``(0,), ..., (max,)`` by definition; orientation follows the global
    vertex order with alternating boundary signs.  The simplices are read
    by length, a vertex column at a time: one pass over the columns finds
    the rows already strictly increasing, and only the others are sorted.
    A simplex given as a sorted tuple becomes the complex's own, with no
    copy.  Faces are closed one codimension at a time from the top, each
    level is indexed in sorted tuple order, and each closure set goes once
    its level is sorted; :meth:`CellComplex.from_simplices` then computes
    the columns.
    """
    rows = list(simplices)
    if not rows:
        raise NotSimplicial("a simplicial complex needs at least one simplex")
    sizes = sorted(set(map(len, rows)))
    given = {}
    for n in sizes:
        group = rows if len(sizes) == 1 else [s for s in rows if len(s) == n]
        ok = list(_increasing_rows(group, n))
        fixed = [tuple(sorted(set(s))) for s in compress(group, map(not_, ok))]
        if not n or not set(map(len, fixed)) <= {n}:
            s = next(s for s in rows if not s or len(set(s)) != len(s))
            raise NotSimplicial(f"degenerate simplex {s}" if s
                                else "empty simplex")
        given[n] = set(map(tuple, compress(group, ok)))
        given[n].update(fixed)
    del rows, group, ok, fixed  # free the row lists before the closure
    dim = sizes[-1] - 1
    by_dim = [None] * (dim + 1)
    level = given.pop(dim + 1)
    for k in range(dim, 0, -1):
        by_dim[k] = sorted(level)
        level = given.pop(k, set())
        if k > 1:
            for i in range(k + 1):
                level.update(map(itemgetter(*range(i), *range(i + 1, k + 1)),
                                 by_dim[k]))
    # the vertices in use are the given ones (level) and the edges' ends
    edges = by_dim[1] if dim else []
    ends = [min(level)[0], max(level)[0]] if level else []
    if edges:
        ends += [edges[0][0], max(map(itemgetter(1), edges))]
    by_dim[0] = [(v,) for v in range(max(ends) + 1)]
    if min(ends) < 0:
        # the closed vertex level, whose negative id from_simplices refuses
        by_dim[0] = sorted(level.union(by_dim[0], zip(chain(*edges))))
    return CellComplex.from_simplices(by_dim, labels=labels)


# -- cellular maps -------------------------------------------------------


class CellMap:
    """Simplicial map, stored as its vertex map.

    Every map the constructions build has this form: vertex-map-induced
    maps, identities and their composites.  It holds ``source``, ``target``
    and ``vertex_map`` and nothing else: a k-simplex goes to the sorted
    tuple of its vertex images, with the sign of the sort, or to zero when
    two of its vertices meet, and :meth:`cell_image` reads that off the
    vertex map when asked.  The constructor trusts its vertex map; it comes
    from :meth:`from_vertex_map`, :meth:`identity` or :meth:`compose`.
    """

    def __init__(self, source, target, vertex_map):
        self.source = source
        self.target = target
        self.vertex_map = list(vertex_map)

    @classmethod
    def from_vertex_map(cls, source, target, vertex_map):
        """Simplicial map induced by a vertex assignment.

        Checked: both complexes are simplicial, the map covers every
        vertex, and every image that is not zero is a simplex of the target
        (``NotSimplicial`` names the first in (k, i) order that is not).
        The chain-map identity needs no check: a simplicial map is a chain
        map on oriented chains with degenerate simplices sent to zero
        (Munkres, *Elements of Algebraic Topology*, section 12), and both
        complexes hold the alternating boundaries of sorted tuples.
        """
        if not (source.is_simplicial and target.is_simplicial):
            raise NotSimplicial("vertex maps need simplicial complexes")
        vm = list(vertex_map)
        if len(vm) != source.n_cells(0):
            raise ShapeMismatch("vertex map length != vertex count")
        # a vertex is its own cell index
        n = target.n_cells(0)
        if not _are_vertex_ids(vm, n):
            v = next(v for v in vm if not _are_vertex_ids((v,), n))
            raise NotSimplicial(f"image {(v,)} is not a simplex of the target")
        for k in range(1, source.dim + 1):
            index = target._level_index(k) if k <= target.dim else {}
            for verts in source.simplices[k]:
                # edges and triangles, most of any map, skip the general sort
                if k == 1:
                    a, b = vm[verts[0]], vm[verts[1]]
                    if a == b:
                        continue
                    face = (a, b) if a < b else (b, a)
                elif k == 2:
                    # three compare-and-swaps
                    a, b, c = vm[verts[0]], vm[verts[1]], vm[verts[2]]
                    if a > b:
                        a, b = b, a
                    if b > c:
                        b, c = c, b
                        if a > b:
                            a, b = b, a
                    if a == b or b == c:
                        continue
                    face = (a, b, c)
                else:
                    face = _sorted_with_sign(map(vm.__getitem__, verts))[0]
                    if face is None:
                        continue
                if face not in index:
                    raise NotSimplicial(
                        f"image {face} is not a simplex of the target"
                    )
        return cls(source, target, vm)

    @classmethod
    def identity(cls, X):
        if not X.is_simplicial:
            raise NotSimplicial("complex has no simplex tables")
        return cls(X, X, range(X.n_cells(0)))

    def cell_image(self, k, i):
        """Image of the i-th source k-cell as ``{target index: +-1}``, or
        ``{}`` when two of its vertices meet."""
        vm = self.vertex_map
        if k == 0:
            return {vm[i]: 1}
        face, sign = _sorted_with_sign(
            map(vm.__getitem__, self.source.simplices[k][i]))
        return {self.target._level_index(k)[face]: sign} if sign else {}

    def chain_image(self, k, chain):
        """Push a k-chain (dict index -> coeff) forward to the target."""
        out = {}
        for i, c in chain.items():
            for j, c2 in self.cell_image(k, i).items():
                out[j] = out.get(j, 0) + c * c2
        return {j: c for j, c in out.items() if c != 0}

    def compose(self, other):
        """self after other (other: X -> Y, self: Y -> Z gives X -> Z); a
        composite of simplicial maps is simplicial, so no check is made."""
        if not same_structure(other.target, self.source):
            raise ShapeMismatch("composition target/source mismatch")
        return CellMap(other.source, self.target,
                       [self.vertex_map[w] for w in other.vertex_map])


# -- elementary constructors ----------------------------------------------


def point():
    return simplicial_complex([(0,)])


def circle(n):
    """Simplicial circle with n vertices and n consistently oriented edges."""
    if n < 3:
        raise TooFewVertices(f"a simplicial circle needs >= 3 vertices, got {n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    X = simplicial_complex(edges, labels={"rim": [(0, i) for i in range(n)]})
    return X


def path_complex(n):
    """Subdivided interval [0, n]: n+1 vertices, n unit edges."""
    if n < 1:
        raise ShapeMismatch("path needs at least one edge")
    return simplicial_complex([(i, i + 1) for i in range(n)])


def filled_triangle():
    return simplicial_complex([(0, 1, 2)])


def fundamental_cycle(X, vertices=None):
    """Oriented 1-cycle tracing a circle subcomplex once.

    ``vertices``: the cyclically ordered vertex list; defaults to 0..n-1 for
    complexes built by :func:`circle`.  Returns {edge index: +-1}.
    """
    if vertices is None:
        vertices = list(range(X.n_cells(0)))
    chain = {}
    n = len(vertices)
    for t in range(n):
        v, w = vertices[t], vertices[(t + 1) % n]
        idx = X.simplex_index((min(v, w), max(v, w)))
        if idx is None:
            raise NotASubcomplex(f"missing edge {v}-{w} along the cycle")
        chain[idx] = 1 if v < w else -1
    return chain


def cycle_vertices_of_label(X, label):
    """Cyclic vertex order of a labeled circle subcomplex, as
    :func:`_canonical_cycle` puts it."""
    verts = set(X.label_cells_of_dim(label, 0))
    edges = X.label_cells_of_dim(label, 1)
    adj = {v: [] for v in verts}
    for e in edges:
        a, b = X.simplex(1, e)
        adj[a].append(b)
        adj[b].append(a)
    if any(len(nb) != 2 for nb in adj.values()) or len(edges) != len(verts):
        raise NotASubcomplex(f"label {label!r} is not a circle")
    order = [min(verts), adj[min(verts)][0]]
    while order[-1] != order[0]:
        a, b = adj[order[-1]]
        order.append(b if a == order[-2] else a)
    return _canonical_cycle(order[:-1])


def _canonical_cycle(order):
    """A circle's vertex order from its least vertex toward its lesser
    neighbour, the order every circle is read in."""
    i = order.index(min(order))
    order = order[i:] + order[:i]
    return order if order[1] < order[-1] else order[:1] + order[:0:-1]


def labeled_cycle(X, label):
    """Fundamental cycle of a labeled circle subcomplex as {edge: +-1}."""
    return fundamental_cycle(X, cycle_vertices_of_label(X, label))


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


def _rim_map(a, b, winding):
    return [j % b if winding else j // (a // b) for j in range(a)]


def _cylinder(a, f):
    """The triangles of :func:`mapping_cylinder` of circle(a) under the
    vertex list f (target vertex w is a + w); they close to all of it
    when f is onto the target edges, as a :func:`_rim_map` is."""
    tris = []
    for u in range(a):
        u, w = (u, u + 1) if u < a - 1 else (0, u)
        x, y = a + f[u], a + f[w]
        tris.append((u, w, y))
        if x != y:
            tris.append((u, x, y) if x < y else (u, y, x))
    return tris


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


def _glue_numbering(n_x, n_y, identify, levels):
    """The pushout numbering of :func:`glue` and ``towers.build_Mk``: X
    keeps its n_x ids, ``identify`` maps Y-vertices injectively to X's, and
    Y's other vertices follow in Y order.  Returns that map of Y's n_y
    vertices and the sorted images of the tuples in ``levels``."""
    for y, x in identify.items():
        if not 0 <= y < n_y:
            raise NotAVertex(f"{y} is not a vertex of the second complex")
        if not 0 <= x < n_x:
            raise NotAVertex(f"{x} is not a vertex of the first complex")
    fresh = iter(range(n_x, n_x + n_y))
    vmap = [identify[y] if y in identify else next(fresh) for y in range(n_y)]
    if len(set(identify.values())) != len(identify):
        # an injective map degenerates no simplex: name one this one does
        for level in levels:
            for i, verts in enumerate(level):
                if len(set(map(vmap.__getitem__, verts))) < len(verts):
                    raise NotIsomorphic(f"identification degenerates Y-cell "
                                        f"(dim {len(verts) - 1}, {i})")
        raise NotIsomorphic("identification sends two Y-vertices to one "
                            "X-vertex")
    images = [[tuple(sorted(map(vmap.__getitem__, verts))) for verts in level]
              for level in levels]
    return vmap, images


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


class Subdivision:
    """A subdivision with carrier bookkeeping.

    ``vertex_carriers[v]`` is the sorted vertex tuple of the base simplex
    whose interior contains vertex v of the refined complex.  The
    subdivisions here are linear, so a simplex lies in the interior of the
    base simplex spanned by its vertices' carriers
    (:func:`simplex_carrier`), and the vertex table is the whole carrier.
    """

    def __init__(self, complex, base, vertex_carriers=None,
                 middle_faces=None, apexes=None):
        self.complex = complex
        self.base = base
        self.vertex_carriers = [] if vertex_carriers is None else \
            vertex_carriers
        self.middle_faces = {} if middle_faces is None else middle_faces
        self.apexes = {} if apexes is None else apexes


def simplex_carrier(vertex_carriers, verts):
    """The base vertices carrying the simplex ``verts`` of a subdivision:
    the union of its vertices' carriers, as a frozenset."""
    return frozenset().union(*map(vertex_carriers.__getitem__, verts))


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


def midpoint_subdivision_global(X):
    """Edge-midpoint subdivision of every cell of a 2-dim simplicial complex.

    Vertices keep their indices and carriers; edge e gets midpoint vertex
    |X0| + e, carried by e.  Each face splits into three corner faces and a
    middle face; ``middle_faces`` maps each base face to its middle face in
    the refinement.
    """
    if not X.is_simplicial:
        raise NotSimplicial("midpoint subdivision needs a simplicial complex")
    if X.dim > 2:
        raise DimensionTooHigh("midpoint subdivision implemented for dim <= 2")
    n0 = X.n_cells(0)
    mid = lambda e: n0 + e
    simplices = []
    for e in range(X.n_cells(1)):
        u, v = X.simplices[1][e]
        simplices.append((u, mid(e)))
        simplices.append((mid(e), v))
    face_mids = {}
    for f in range(X.n_cells(2) if X.dim >= 2 else 0):
        a, b, c = X.simplices[2][f]
        eab = X.simplex_index((a, b))
        eac = X.simplex_index((a, c))
        ebc = X.simplex_index((b, c))
        face_mids[f] = (mid(eab), mid(eac), mid(ebc))
        simplices.append((a, mid(eab), mid(eac)))
        simplices.append((b, mid(eab), mid(ebc)))
        simplices.append((c, mid(eac), mid(ebc)))
        simplices.append((mid(eab), mid(eac), mid(ebc)))
    for v in range(n0):
        simplices.append((v,))
    sd = simplicial_complex(simplices)
    middle = {f: sd.simplex_index(tuple(sorted(mids)))
              for f, mids in face_mids.items()}
    return Subdivision(sd, X, list(chain(*X.simplices[:2])),
                       middle_faces=middle)


def midpoint_subdivision(X):
    """Midpoint subdivision of a single 2-simplex; middle face labeled.

    Returns the refined complex with labels "middle" (the central face) and
    "boundary" (the subdivided boundary circle).
    """
    if not (X.is_simplicial and X.dim == 2 and X.n_cells(2) == 1
            and X.n_cells(0) == 3 and X.n_cells(1) == 3):
        raise NotASimplex("input must be a single 2-simplex")
    sub = midpoint_subdivision_global(X)
    sd = sub.complex
    mid_face = sub.middle_faces[0]
    boundary_cells = []
    mids = set(sd.simplices[2][mid_face])
    for v in range(3):
        boundary_cells.append((0, v))
    for e in range(sd.n_cells(1)):
        u, v = sd.simplices[1][e]
        if not (u in mids and v in mids):
            boundary_cells.append((1, e))
    for v in sorted(mids):
        boundary_cells.append((0, v))
    middle_cells = [(2, mid_face)]
    for pair in combinations(sorted(mids), 2):
        middle_cells.append((1, sd.simplex_index(pair)))
    for v in sorted(mids):
        middle_cells.append((0, v))
    sd = sd.relabeled({
        "middle": [(2, mid_face)],
        "middle-boundary": [c for c in middle_cells if c != (2, mid_face)],
        "boundary": boundary_cells,
    })
    return Subdivision(sd, X, sub.vertex_carriers,
                       middle_faces=sub.middle_faces)


def cone_middle_subdivision(sub):
    """Midpoint subdivision with every middle face coned from a new apex.

    ``sub`` is the :func:`midpoint_subdivision_global` of the base.  The
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
