import random
import warnings

import pytest

from coarse_kit import (
    CellComplex,
    CellMap,
    annulus_triangulation,
    barycentric_subdivision,
    circle,
    coarsening_cylinder,
    filled_triangle,
    fundamental_cycle,
    glue,
    mapping_cylinder,
    midpoint_subdivision,
    new_complex,
    point,
    simplicial_complex,
    subcomplex_matching,
    wedge,
)
from coarse_kit.complexes import (
    _glue_numbering,
    cycle_vertices_of_label,
    interval_product,
    labeled_cycle,
    midpoint_subdivision_global,
    remove_cells,
)
from coarse_kit.errors import (
    NotAChainComplex,
    NotASimplex,
    NotASubcomplex,
    NotDivisible,
    NotIsomorphic,
    NotAVertex,
    NotSimplicial,
    ShapeMismatch,
    TooFewVertices,
)
from coarse_kit.interchange import parse_complex, serialize_complex

from oracles import (
    oracle_boundary_squared_failure,
    oracle_chain_map_failure,
    oracle_complex_homology,
    oracle_compose,
    oracle_from_vertex_map,
    oracle_glue,
    oracle_interval_product_columns,
    oracle_simplicial_columns,
    oracle_simplicial_complex,
    oracle_vertex_matching,
)


def cell_images(f):
    """Per dimension, the ``cell_image`` dict of every source cell."""
    return [[f.cell_image(k, i) for i in range(n)]
            for k, n in enumerate(f.source.counts)]


def random_circle_map(rng, a, b):
    """Random simplicial map circle(a) -> circle(b) of nonzero degree."""
    max_deg = a // b
    deg = rng.choice([d for d in range(-max_deg, max_deg + 1) if d != 0])
    # walk |deg| * b unit steps forward (or backward) spread over a edges,
    # at most one step per edge so adjacency is preserved
    slots = set(rng.sample(range(a), abs(deg) * b))
    vm = [0] * a
    pos = 0
    sgn = 1 if deg > 0 else -1
    for j in range(1, a):
        if (j - 1) in slots:
            pos += sgn
        vm[j] = pos % b
    return CellMap.from_vertex_map(circle(a), circle(b), vm), deg


class TestElementary:
    def test_point(self):
        P = point()
        assert P.dim == 0 and P.n_cells(0) == 1
        assert P.euler_characteristic() == 1

    def test_circle_counts_and_homology(self):
        C = circle(3)
        assert C.euler_characteristic() == 0
        assert oracle_complex_homology(C, 0) == (1, [])
        assert oracle_complex_homology(C, 1) == (1, [])

    def test_circle6_vertex_valence(self):
        C = circle(6)
        assert C.n_cells(1) == 6
        touch = [0] * 6
        for e in range(6):
            for v in C.simplex(1, e):
                touch[v] += 1
        assert touch == [2] * 6

    def test_relabeled_replaces_labels_on_a_shared_copy(self):
        C = circle(4)
        R = C.relabeled({"arc": [(0, 1), (1, 0), (0, 0)]})
        assert R.labels == {"arc": ((0, 0), (0, 1), (1, 0))}
        assert C.labels == {"rim": ((0, 0), (0, 1), (0, 2), (0, 3))}
        assert R.boundary_table(1) is C.boundary_table(1)
        assert R.simplices is C.simplices

    def test_circle_too_small(self):
        with pytest.raises(TooFewVertices):
            circle(2)

    def test_new_complex_rejects_broken_boundary(self):
        # two faces sharing an edge with inconsistent signs stays a chain
        # complex; an actual d.d != 0 must raise
        with pytest.raises(NotAChainComplex):
            new_complex(
                [2, 1, 1],
                [None, [{0: 1, 1: -1}], [{0: 1}]],
            )

    def test_new_complex_bad_edge_column_is_cell_mode_only(self):
        # two +1 entries in an edge column: dd = 0 is vacuous, so the cell
        # constructor accepts it; a file that gives the edge a simplex cannot
        # also give it that column, since its boundary block is refused
        X = new_complex([2, 1], [None, [{0: 1, 1: 1}]])
        assert X.dim == 1
        with pytest.raises(ShapeMismatch, match=BOUNDARY_BLOCK.format(4)):
            parse_complex(serialize_complex(X) + simplices_text(
                [[(0,), (1,)], [(0, 1)]]).split("counts 2 1\n")[1])

    def test_simplicial_boundary_checks(self):
        # a simplicial file's columns are the alternating boundaries of its
        # simplices: face i of (v0..vk) drops v_i with coefficient (-1)^i
        Y = parse_complex(simplices_text(filled_triangle().simplices))
        assert Y.boundary_columns(1) == [{0: -1, 1: 1}, {0: -1, 2: 1},
                                         {1: -1, 2: 1}]
        assert Y.boundary_columns(2) == [{2: 1, 1: -1, 0: 1}]
        # a boundary block beside the simplices is refused at its line,
        # before or after them, whether or not its columns are right
        X = filled_triangle()
        bnd = [None] + [[dict(c) for c in X.boundary_columns(k)]
                        for k in (1, 2)]
        bnd[2][0] = {r: -c for r, c in bnd[2][0].items()}
        text = simplices_text(X.simplices)
        with pytest.raises(ShapeMismatch, match=BOUNDARY_BLOCK.format(4)):
            parse_complex(serialize_complex(new_complex(X.counts, bnd))
                          + text.split("counts 3 3 1\n")[1])
        for column in ("0 0 1\n1 0 -1\n2 0 1\n", ""):
            with pytest.raises(ShapeMismatch,
                               match=BOUNDARY_BLOCK.format(17)):
                parse_complex(text + f"boundary 2\n{column}end\n")
        with pytest.raises(NotSimplicial, match="bad vertex tuple"):
            parse_complex(simplices_text([[(0,), (1,)], [(1, 0)]]))

    def test_from_simplices_refuses_bad_levels(self):
        # a tuple too long for its level, which a file cannot give
        with pytest.raises(NotSimplicial, match=r"bad vertex tuple \(0, 1, "
                           r"2\) at cell \(dim 1, 0\)"):
            CellComplex.from_simplices([[(0,), (1,), (2,)],
                                        [(0, 1, 2), (1, 2)]])
        with pytest.raises(NotSimplicial, match=r"\(0, 1\) at cell \(dim 1, "
                           r"0\) is repeated at cell \(dim 1, 2\)"):
            CellComplex.from_simplices([[(0,), (1,)],
                                        [(0, 1), (0, 1), (0, 1)]])

    def test_from_simplices_top_level_repeats(self):
        # the top level builds its dict only when it is not strictly
        # increasing; the refusal names the first repeat either way
        verts, edges = [(0,), (1,), (2,)], [(0, 1), (0, 2), (1, 2)]
        with pytest.raises(NotSimplicial, match=r"\(0, 1, 2\) at cell \(dim "
                           r"2, 0\) is repeated at cell \(dim 2, 1\)"):
            CellComplex.from_simplices([verts, edges, [(0, 1, 2)] * 2])
        with pytest.raises(NotSimplicial, match=r"\(0, 1\) at cell \(dim 1, "
                           r"1\) is repeated at cell \(dim 1, 3\)"):
            CellComplex.from_simplices([verts,
                                        [(1, 2), (0, 1), (0, 2), (0, 1)]])
        X = CellComplex.from_simplices([verts, [(1, 2), (0, 1), (0, 2)]])
        assert X.counts == [3, 3]
        assert X.simplices[1] == [(1, 2), (0, 1), (0, 2)]
        assert X.boundary_columns(1) == [{2: 1, 1: -1}, {1: 1, 0: -1},
                                         {2: 1, 0: -1}]

    def test_from_simplices_refuses_vertex_ids_that_are_not_positions(self):
        # the edge's faces are in the vertex level, but vertex 5 is cell 1
        with pytest.raises(NotSimplicial, match=r"vertex \(5,\) at cell "
                           r"\(dim 0, 1\): the vertex ids must be 0\.\.1"):
            CellComplex.from_simplices([[(0,), (5,)], [(0, 5)]])
        with pytest.raises(NotSimplicial, match=r"vertex \(1,\) at cell "
                           r"\(dim 0, 0\)"):
            CellComplex.from_simplices([[(1,), (0,)]])
        with pytest.raises(NotSimplicial, match=r"vertex \(-1,\) at cell "
                           r"\(dim 0, 0\)"):
            simplicial_complex([(-1, 0)])

    def test_remove_cells_refuses_cell_complex(self):
        X = new_complex([2, 1], [None, [{0: -1, 1: 1}]])
        with pytest.raises(NotSimplicial):
            remove_cells(X, [(1, 0)])

    def test_simplex_with_missing_face_is_not_simplicial(self):
        with pytest.raises(NotSimplicial, match=r"face \(2,\)"):
            parse_complex(simplices_text([[(0,), (1,)], [(0, 2)]]))


# how the reader names a boundary block in a file with simplex blocks
BOUNDARY_BLOCK = r"^line {}: a boundary block in a file with simplex blocks"


def simplices_text(levels):
    """The .ckx text of a simplicial complex given by its levels of vertex
    tuples, one simplex block per level."""
    return (f"coarse-kit-complex v2\ndim {len(levels) - 1}\ncounts "
            + " ".join(str(len(level)) for level in levels) + "\n"
            + "".join(f"simplices {k}\n" + "".join(
                " ".join(map(str, s)) + "\n" for s in level) + "end\n"
                for k, level in enumerate(levels)))


def random_simplices(rng, n_vertices, max_dim, count):
    """Random vertex tuples in random order, sizes 1..max_dim+1."""
    out = []
    for _ in range(count):
        size = rng.randint(1, min(max_dim + 1, n_vertices))
        out.append(tuple(rng.sample(range(n_vertices), size)))
    return out


def random_vertex_map(rng, X, complete=True, injective=False):
    """A vertex map of X into fewer or as many vertices (two more, one to
    one, when ``injective``), and a target that holds every image simplex
    plus unhit extras (one image left out when ``complete`` is false)."""
    n = X.n_cells(0)
    if injective:
        m = n + 2
        vm = rng.sample(range(m), n)
    else:
        m = rng.randint(1, n + 1)
        vm = [rng.randrange(m) for _ in range(n)]
    images = sorted({tuple(sorted({vm[v] for v in s}))
                     for level in X.simplices for s in level})
    extra = random_simplices(rng, m + 2, 3, rng.randint(0, 3))
    if not complete:
        images.remove(max(images, key=len))
    # (0,) keeps the target nonempty when its one image was left out
    return vm, simplicial_complex(images + extra + [(0,)])


class TestOnePassBuildersAgainstOracles:
    """The one-pass face closure and the vertex tables of simplicial maps
    against the all-subsets closure and the per-cell image dicts of the
    oracles."""

    def test_simplicial_complex_random(self):
        seen = {"sorted": 0, "unsorted": 0, "list": 0, "repeat": 0}
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randint(1, 9)
            labels = {"some": [(0, v) for v in range(0, n, 2)]}
            # tuples of mixed lengths in random order; sorted tuples of one
            # length, the rows the column check passes whole; and those
            # rows mixed with unsorted ones, lists and repeats
            size = rng.randint(1, min(4, n))
            same = [tuple(sorted(rng.sample(range(n), size)))
                    for _ in range(rng.randint(1, 8))]
            mixed = []
            for s in same:
                kind = rng.choice(list(seen))
                seen[kind] += 1
                if kind == "unsorted":
                    s = tuple(rng.sample(s, len(s)))
                elif kind == "list":
                    s = list(s)
                elif kind == "repeat":
                    mixed.append(s)
                mixed.append(s)
            for simplices in (random_simplices(rng, n, 3, rng.randint(1, 8)),
                              same, mixed):
                X = simplicial_complex(simplices, labels=labels)
                O = oracle_simplicial_complex(simplices, labels=labels)
                assert X.counts == O.counts
                assert X.simplices == O.simplices
                assert X.labels == O.labels
                for k in range(1, X.dim + 1):
                    # same columns with the same entry order
                    assert [list(c.items()) for c in X.boundary_columns(k)] \
                        == [list(c.items()) for c in O.boundary_columns(k)]
                for level in O.simplices:
                    for i, s in enumerate(level):
                        assert X.simplex_index(s) == i
        assert min(seen.values()) >= 50, seen

    @pytest.mark.parametrize("simplices", [[(0, 1), (2, 2)], [], [()],
                                           [(0, 1), ()]],
                             ids=["repeated-vertex", "no-simplices",
                                  "empty-simplex", "empty-among-others"])
    def test_malformed_input_not_simplicial(self, simplices):
        with pytest.raises(NotSimplicial):
            simplicial_complex(simplices)

    @pytest.mark.parametrize("simplices, message", [
        ([[0, 1], (3, 1, 1), (), (2, 2)], r"degenerate simplex \(3, 1, 1\)"),
        ([(1, 2), [], [4, 4]], "empty simplex"),
        ([(0, 1), [2, 1, 2]], r"degenerate simplex \[2, 1, 2\]"),
    ], ids=["degenerate-first", "empty-first", "degenerate-list"])
    def test_refusal_names_the_first_bad_simplex(self, simplices, message):
        with pytest.raises(NotSimplicial, match=f"^{message}$"):
            simplicial_complex(simplices)

    def test_vertex_tables_random(self):
        seen = {"degenerate": 0, "unhit": 0, "lower-dim": 0, "refused": 0,
                "composed-degenerate": 0, "dim-3-degenerate": 0,
                "dim-3-sign-minus": 0}
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randint(1, 8)
            X = simplicial_complex(random_simplices(rng, n, 3, rng.randint(1, 6)))
            vm, Y = random_vertex_map(rng, X, complete=rng.random() < 0.8)
            try:
                want = oracle_from_vertex_map(X, Y, vm)
            except NotSimplicial as exc:
                with pytest.raises(NotSimplicial) as got:
                    CellMap.from_vertex_map(X, Y, vm)
                assert str(got.value) == str(exc)
                seen["refused"] += 1
                continue
            f = CellMap.from_vertex_map(X, Y, vm)
            assert cell_images(f) == want
            assert f.vertex_map == vm
            assert oracle_chain_map_failure(X, Y, want) is None
            hit = {(k, j) for k, level in enumerate(want)
                   for img in level for j in img}
            seen["degenerate"] += any(img == {} for level in want
                                      for img in level)
            seen["unhit"] += len(hit) < Y.total_cells()
            seen["lower-dim"] += Y.dim < X.dim
            # simplicial after simplicial: table composition
            vm2, Z = random_vertex_map(rng, Y)
            g = CellMap.from_vertex_map(Y, Z, vm2)
            gf = g.compose(f)
            want_gf = oracle_compose(oracle_from_vertex_map(Y, Z, vm2), want)
            assert cell_images(gf) == want_gf
            assert gf.vertex_map == [vm2[w] for w in vm]
            assert want_gf == \
                cell_images(CellMap.from_vertex_map(X, Z, gf.vertex_map))
            seen["composed-degenerate"] += any(
                img == {} and f.cell_image(k, i)
                for k, level in enumerate(want_gf)
                for i, img in enumerate(level))
            # one to one on vertices, so every 3-simplex keeps its dimension
            vm3, W = random_vertex_map(rng, X, injective=True)
            h = CellMap.from_vertex_map(X, W, vm3)
            assert cell_images(h) == oracle_from_vertex_map(X, W, vm3)
            if X.dim >= 3:
                # the general sort: 3-simplices sent to zero, or reversed
                seen["dim-3-degenerate"] += {} in cell_images(f)[3]
                seen["dim-3-sign-minus"] += sum(
                    any(-1 in img.values() for img in cell_images(g)[3])
                    for g in (f, h))
        assert all(count >= 5 for count in seen.values()), seen


class TestCellMapIsItsVertexMap:
    """A simplicial map stores its vertex map and reads each cell's image
    off it, so every way of making one leaves the same three fields."""

    def test_only_the_vertex_map_is_stored(self):
        X, C = filled_triangle(), circle(3)
        f = CellMap.from_vertex_map(C, X, [0, 1, 2])
        g = CellMap.from_vertex_map(X, X, [1, 2, 0])
        for h in (f, CellMap.identity(X), g.compose(f)):
            assert set(vars(h)) == {"source", "target", "vertex_map"}

    def test_identity_refuses_a_complex_with_no_simplices(self):
        Z = interval_product(circle(3), 1).complex
        with pytest.raises(NotSimplicial):
            CellMap.identity(Z)


class TestFastPathTampering:
    """The checks that remain reject a bad table and name the cell: the
    level-wide sorted-tuple check of simplex levels and the row range check
    of raw columns.  What no test tampers with here needs no check: every
    map comes from a vertex map, and it and the tables of a simplicial
    complex are right by construction (see ``CellMap.from_vertex_map`` and
    ``CellComplex.from_simplices``)."""

    @pytest.mark.parametrize("edges, error, cell", [
        ([(0, 1), (2, 1)], NotSimplicial,
         r"\(2, 1\) at cell \(dim 1, 1\)"),
        ([(0, 1), (1, 1)], NotSimplicial,
         r"\(1, 1\) at cell \(dim 1, 1\)"),
        # a row of three ids in a block of edges is a line error
        ([(0, 1, 2), (1, 2)], ShapeMismatch,
         r"^line \d+: expected 2 vertex ids, got '0 1 2'"),
    ], ids=["unsorted", "repeated", "too-long"])
    def test_bad_vertex_tuple(self, edges, error, cell):
        with pytest.raises(error, match=cell):
            parse_complex(simplices_text([[(0,), (1,), (2,)], edges]))

    @pytest.mark.parametrize("row", [2, -1])
    def test_row_out_of_range(self, row):
        with pytest.raises(ShapeMismatch,
                           match=rf"row {row} out of range at cell \(dim 1, 1\)"):
            new_complex([2, 2], [None, [{0: -1, 1: 1}, {0: -1, row: 1}]])


def reachable_dicts(X):
    """Every dict reachable from the attributes of X through lists,
    tuples, sets and dicts."""
    seen, found, stack = set(), [], list(vars(X).values())
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            found.append(obj)
            stack += list(obj.keys()) + list(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack += obj
    return found


class TestFlatBoundaryTables:
    """The flat per-level boundary tables against one oracle dict per
    cell, and the checks that read them against the oracle checks."""

    def test_boundaries_against_oracle_columns(self):
        seen = set()
        for seed in range(200):
            rng = random.Random(seed)
            X = simplicial_complex(random_simplices(
                rng, rng.randint(2, 8), 3, rng.randint(1, 6)))
            kind = rng.choice(["simplicial", "glue", "remove", "ckx",
                               "product"])
            if kind == "product" and X.dim <= 2:
                n = rng.randint(1, 3)
                Z = interval_product(X, n).complex
                for k in range(1, Z.dim + 1):
                    want = oracle_interval_product_columns(X, n, k)
                    assert Z.boundary_columns(k) == want
                    assert [Z.boundary_of(k, i)
                            for i in range(Z.n_cells(k))] == want
                assert Z.edge_ends() == [
                    (min(col, key=col.get), max(col, key=col.get))
                    for col in oracle_interval_product_columns(X, n, 1)]
                seen.add(kind)
                continue
            if kind == "glue":
                Y = simplicial_complex(random_simplices(
                    rng, rng.randint(1, 6), 2, rng.randint(1, 4)))
                Z = wedge(X, Y, rng.randrange(X.n_cells(0)),
                          rng.randrange(Y.n_cells(0)))
            elif kind == "remove" and X.dim >= 1:
                # top cells are no faces, so any of them may go
                top = rng.sample(range(X.n_cells(X.dim)),
                                 rng.randint(1, X.n_cells(X.dim)))
                Z = remove_cells(X, [(X.dim, i) for i in top])
            elif kind == "ckx":
                Z = parse_complex(serialize_complex(X))
            else:
                Z, kind = X, "simplicial"
            for k in range(1, Z.dim + 1):
                # the same columns with the same entry order
                want = [list(c.items()) for c in oracle_simplicial_columns(Z, k)]
                assert [list(c.items()) for c in Z.boundary_columns(k)] == want
                assert [list(Z.boundary_of(k, i).items())
                        for i in range(Z.n_cells(k))] == want
            assert Z.edge_ends() == (Z.simplices[1] if Z.dim else [])
            seen.add(kind)
        assert seen == {"simplicial", "glue", "remove", "ckx", "product"}
        # a loop and an edge from vertex 1 to vertex 0 of a cell complex
        assert new_complex([2, 2], [None, [{}, {0: 1, 1: -1}]]).edge_ends() \
            == [None, (1, 0)]

    def test_simplicial_tables_hold_no_per_cell_dict(self):
        from coarse_kit.towers import MkParams, build_Mk

        rng = random.Random(5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            M = build_Mk(MkParams(5, 2, 1, reduce=True)).complex
        # build_Mk finds M's label edges by bisection in its sorted edge
        # level, so M, like the fresh others, has no face index yet
        for X, cached in ((circle(5), 0), (filled_triangle(), 0), (M, 0),
                          (simplicial_complex(random_simplices(rng, 9, 3, 12)
                                              + [(0, 1, 2, 3)]), 0)):
            for k in range(1, X.dim + 1):
                rows, coefs, ptr = X.boundary_table(k)
                assert len(rows) == len(coefs) == (k + 1) * X.n_cells(k)
                assert ptr == range(0, len(rows) + 1, k + 1)
                assert coefs == [(-1) ** i for i in range(k + 1)] * X.n_cells(k)
            # the labels, the memo of invariant factors and the face index
            # of each level above the vertices looked up so far: nothing
            # per cell
            assert len(reachable_dicts(X)) == 2 + cached
            for level in X.simplices:
                X.simplex_index(level[0])
            assert len(reachable_dicts(X)) == X.dim + 2

    def test_tampered_face_entry_fails_at_oracle_cell(self):
        seen = 0
        for seed in range(200):
            rng = random.Random(seed)
            X = simplicial_complex(random_simplices(
                rng, rng.randint(3, 8), 3, rng.randint(1, 6)))
            levels = [k for k in range(1, X.dim + 1) if X.n_cells(k - 1) >= 2]
            if not levels:
                continue
            k = rng.choice(levels)
            rows = X.boundary_table(k)[0]
            t = rng.randrange(len(rows))
            rows[t] = rng.choice([r for r in range(X.n_cells(k - 1))
                                  if r != rows[t]])
            expected = oracle_boundary_squared_failure(X)
            if expected is not None:
                with pytest.raises(NotAChainComplex) as exc:
                    X._validate()
                assert exc.value.cell == expected, seed
                seen += 1
            else:
                X._validate()
        assert seen >= 20, seen


class TestFaceIndexCache:
    """A simplicial complex keeps no face index: each level's is built on
    its first lookup and shared with relabeled copies."""

    def test_fresh_complex_holds_no_index(self):
        rng = random.Random(3)
        X = simplicial_complex(random_simplices(rng, 8, 3, 10))
        for Z in (X, CellComplex.from_simplices(X.simplices),
                  remove_cells(X, [(X.dim, 0)])):
            assert Z._simplex_index == [None] * (Z.dim + 1)

    def test_first_lookup_builds_its_level_only(self):
        for seed in range(20):
            rng = random.Random(seed)
            X = simplicial_complex(random_simplices(rng, 8, 3, 10)
                                   + [(0, 1, 2, 3)])
            built = set()
            for k in rng.sample(range(X.dim + 1), X.dim + 1):
                i = rng.randrange(X.n_cells(k))
                assert X.simplex_index(X.simplices[k][i]) == i
                built.add(k)
                # a vertex is its own index: level 0 is never built
                assert [d is not None for d in X._simplex_index] == \
                    [d in built and d > 0 for d in range(X.dim + 1)]
        # a vertex map looks up the target levels of the source's dimensions
        # above the vertices
        T = filled_triangle()
        CellMap.from_vertex_map(circle(3), T, [0, 1, 2])
        assert [d is not None for d in T._simplex_index] == \
            [False, True, False]

    def test_vertex_index_is_its_id(self):
        X = simplicial_complex([(0, 1, 2), (2, 5)])
        for v in range(6):
            assert X.simplex_index((v,)) == v
        for v in (-1, 6, 1.5, None):
            assert X.simplex_index((v,)) is None
        assert X._simplex_index == [None] * (X.dim + 1)

    def test_relabeled_copies_share_the_cache(self):
        X = filled_triangle()
        Y = X.relabeled({"corner": [(0, 0)]})
        assert Y.simplex_index((0, 2)) == 1
        assert X._simplex_index is Y._simplex_index
        assert X._simplex_index[1] is not None

    def test_sorted_tuples_are_kept(self):
        given = [(0, 1, 2), (1, 2, 3), (3, 4), (1, 2)]
        X = simplicial_complex(given + [(2, 1, 4), [4, 5]])
        for s in given:
            assert X.simplices[len(s) - 1][X.simplex_index(s)] is s
        assert X.simplices[2][X.simplex_index((1, 2, 4))] == (1, 2, 4)
        assert type(X.simplices[1][X.simplex_index((4, 5))]) is tuple


class TestAnnulus:
    def test_counts_and_chi(self):
        A, collapse = annulus_triangulation(6, 3)
        assert A.euler_characteristic() == 0
        assert oracle_complex_homology(A, 0) == (1, [])
        assert oracle_complex_homology(A, 1) == (1, [])
        assert oracle_complex_homology(A, 2) == (0, [])

    def test_degree_one_cylinder(self):
        A, collapse = annulus_triangulation(3, 3)
        assert A.euler_characteristic() == 0
        assert len(A.label_cells_of_dim("domain-rim", 1)) == 3
        assert len(A.label_cells_of_dim("target-rim", 1)) == 3

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            annulus_triangulation(7, 3)

    def test_rim_collapse_degree(self):
        # degree of the collapse on the domain rim = 2 for annulus(6, 3)
        A, collapse = annulus_triangulation(6, 3)
        cyc = labeled_cycle(A, "domain-rim")
        image = collapse.chain_image(1, cyc)
        target_cycle = fundamental_cycle(collapse.target)
        ratios = set()
        for e, c in image.items():
            ratios.add(c * target_cycle[e])
        assert ratios == {2}

    def test_coarsening_cylinder_degree_one(self):
        A, collapse = coarsening_cylinder(6, 3)
        cyc = labeled_cycle(A, "domain-rim")
        image = collapse.chain_image(1, cyc)
        target_cycle = fundamental_cycle(collapse.target)
        assert image == target_cycle

    @pytest.mark.parametrize("a,b", [(3, 3), (6, 3), (15, 3), (12, 6),
                                     (12, 4), (20, 5)])
    def test_rim_cylinders_are_mapping_cylinders(self, a, b):
        """The closed-form rim cylinders against mapping_cylinder of their
        circle maps: the same levels, labels and collapse."""
        for build, vm in ((annulus_triangulation, lambda j: j % b),
                          (coarsening_cylinder, lambda j: j // (a // b))):
            f = CellMap.from_vertex_map(circle(a), circle(b),
                                        [vm(j) for j in range(a)])
            ref, _, retr = mapping_cylinder(f)
            A, collapse = build(a, b)
            assert A.simplices == ref.simplices
            assert A.labels == ref.relabeled({
                **ref.labels, "domain-rim": ref.labels["domain"],
                "target-rim": ref.labels["target"]}).labels
            assert collapse.vertex_map == retr.vertex_map


class TestMappingCylinder:
    def test_identity_cylinder_matches_annulus(self):
        C = circle(3)
        cyl, incl, retr = mapping_cylinder(CellMap.identity(C))
        assert cyl.euler_characteristic() == 0
        assert oracle_complex_homology(cyl, 1) == (1, [])

    def test_degree2_collapse(self):
        f = CellMap.from_vertex_map(circle(6), circle(3), [j % 3 for j in range(6)])
        cyl, incl, retr = mapping_cylinder(f)
        assert oracle_complex_homology(cyl, 1) == (1, [])
        assert oracle_complex_homology(cyl, 2) == (0, [])

    def test_cone_is_contractible(self):
        f = CellMap.from_vertex_map(circle(3), point(), [0, 0, 0])
        cyl, incl, retr = mapping_cylinder(f)
        assert oracle_complex_homology(cyl, 0) == (1, [])
        assert oracle_complex_homology(cyl, 1) == (0, [])
        assert oracle_complex_homology(cyl, 2) == (0, [])

    def test_retraction_fixes_target(self):
        f = CellMap.from_vertex_map(circle(6), circle(3), [j % 3 for j in range(6)])
        cyl, incl, retr = mapping_cylinder(f)
        for (k, i) in cyl.label_cells("target"):
            img = retr.cell_image(k, i)
            assert len(img) == 1 and set(img.values()) == {1}

    def test_cylinder_homology_random_circle_maps(self):
        rng = random.Random(7)
        for _ in range(20):
            b = rng.choice([3, 4, 5])
            a = b * rng.choice([1, 2, 3])
            f, deg = random_circle_map(rng, a, b)
            cyl, incl, retr = mapping_cylinder(f)
            for k in range(3):
                assert oracle_complex_homology(cyl, k) == oracle_complex_homology(
                    f.target, k
                ), f"H_{k} mismatch for degree {deg} map {a}->{b}"


def _random_label(rng, X):
    """X with one more label, "part", on a random set of its cells."""
    cells = [(k, i) for k, n in enumerate(X.counts) for i in range(n)]
    part = rng.sample(cells, rng.randint(0, len(cells)))
    return X.relabeled({**X.labels, "part": part})


class TestWedgeGlue:
    def test_wedge_of_circles(self):
        W = wedge(circle(3), circle(3), 0, 0)
        assert oracle_complex_homology(W, 1) == (2, [])
        assert W.euler_characteristic() == -1

    def test_wedge_point_identity(self):
        X = circle(4)
        W = wedge(point(), X, 0, 0)
        assert W.counts == X.counts
        assert oracle_complex_homology(W, 1) == (1, [])

    def test_wedge_chi_additivity(self):
        W = wedge(circle(3), circle(4), 1, 2)
        assert W.euler_characteristic() == 0 + 0 - 1

    def test_glue_two_triangles_along_edge(self):
        T1 = filled_triangle()
        T2 = filled_triangle()
        lbl1 = T1.relabeled({"seam": [(0, 0), (0, 1), (1, 0)]})
        lbl2 = T2.relabeled({"seam": [(0, 0), (0, 1), (1, 0)]})
        matching = subcomplex_matching(lbl1, "seam", lbl2, "seam", {0: 0, 1: 1})
        Z = glue(lbl1, lbl2, matching)
        assert Z.counts == [4, 5, 2]
        assert Z.euler_characteristic() == 1

    def test_glue_disk_onto_circle(self):
        C = circle(3).relabeled({"rim3": [(0, 0), (0, 1), (0, 2),
                                          (1, 0), (1, 1), (1, 2)]})
        T = filled_triangle().relabeled(
            {"rim3": [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]}
        )
        matching = subcomplex_matching(C, "rim3", T, "rim3", {0: 0, 1: 1, 2: 2})
        Z = glue(C, T, matching)
        assert oracle_complex_homology(Z, 0) == (1, [])
        assert oracle_complex_homology(Z, 1) == (0, [])
        assert oracle_complex_homology(Z, 2) == (0, [])

    def test_glue_size_mismatch(self):
        A, _ = annulus_triangulation(6, 3)
        C = circle(4).relabeled({"rim4": [(0, i) for i in range(4)]
                                 + [(1, i) for i in range(4)]})
        with pytest.raises(NotIsomorphic):
            subcomplex_matching(A, "target-rim", C, "rim4",
                                {0: 6, 1: 7, 2: 8, 3: 6})

    def test_glue_refusals(self):
        edge = simplicial_complex([(0, 1)]).relabeled(
            {"all": [(0, 0), (0, 1), (1, 0)]})
        identify = subcomplex_matching(edge, "all", edge, "all", {0: 0, 1: 1})
        assert identify == {0: 0, 1: 1}
        assert glue(edge, edge, identify).counts == [2, 1]
        # an edge without its end vertices is no subcomplex
        open_edge = edge.relabeled({"all": [(0, 0), (1, 0)]})
        with pytest.raises(NotASubcomplex, match=r"\(dim 1, 0\)"):
            subcomplex_matching(open_edge, "all", open_edge, "all",
                                {0: 0, 1: 1})
        with pytest.raises(NotIsomorphic, match="degenerates Y-cell"):
            glue(edge, edge, {0: 0, 1: 0})
        two_points = simplicial_complex([(0,), (1,)])
        with pytest.raises(NotIsomorphic, match="two Y-vertices"):
            glue(edge, two_points, {0: 0, 1: 0})
        for bad in ({2: 0}, {-1: 0}, {0: 2}, {0: -1}):
            with pytest.raises(NotAVertex):
                glue(edge, edge, bad)
        cylinder = interval_product(circle(3), 1).complex
        with pytest.raises(NotSimplicial):
            glue(cylinder, edge, {0: 0})
        with pytest.raises(NotSimplicial):
            glue(edge, cylinder, {0: 0})

    def test_glue_numbering(self):
        # glue and build_Mk's assembly number the pushout by this one rule
        tri = [[(0, 1, 2)]]
        assert _glue_numbering(3, 4, {1: 2, 3: 0}, tri) == (
            [3, 2, 4, 0], [[(2, 3, 4)]])
        with pytest.raises(NotIsomorphic, match=r"degenerates Y-cell \(dim 2"):
            _glue_numbering(3, 3, {0: 0, 1: 0}, tri)
        with pytest.raises(NotIsomorphic, match="two Y-vertices"):
            _glue_numbering(3, 4, {0: 0, 3: 0}, tri)

    def test_glue_against_oracle(self):
        """Wedges at random vertices and gluings along labeled circles
        against the cell-matching pushout."""
        seen = {"wedge": 0, "circle": 0}
        for seed in range(240):
            rng = random.Random(seed)
            if rng.random() < 0.5:
                X, Y = (simplicial_complex(random_simplices(
                    rng, rng.randint(1, 7), 3, rng.randint(1, 5)))
                    for _ in range(2))
                x0 = rng.randrange(X.n_cells(0))
                y0 = rng.randrange(Y.n_cells(0))
                X, Y = _random_label(rng, X), _random_label(rng, Y)
                Z = wedge(X, Y, x0, y0)
                identify, cells, kind = {y0: x0}, [(0, y0)], "wedge"
            else:
                # mapping cylinders of circle maps onto n-circles, glued
                # along an n-circle rim of each, turned and maybe reflected
                n = rng.randint(3, 5)
                X, Y = (_random_label(rng, mapping_cylinder(random_circle_map(
                    rng, n * rng.randint(1, 3), n)[0])[0]) for _ in range(2))
                rim_x = cycle_vertices_of_label(X, "target")
                rim_y = cycle_vertices_of_label(Y, "target")
                if rng.random() < 0.5:
                    rim_y.reverse()
                turn = rng.randrange(n)
                vm = {rim_y[t]: rim_x[(t + turn) % n] for t in range(n)}
                identify = subcomplex_matching(X, "target", Y, "target", vm)
                assert identify == vm
                Z = glue(X, Y, identify)
                cells, kind = Y.label_cells("target"), "circle"
            ref = oracle_glue(X, Y, oracle_vertex_matching(X, Y, cells,
                                                           identify))
            assert Z.counts == ref.counts
            assert Z.simplices == ref.simplices
            for k in range(1, Z.dim + 1):
                assert Z.boundary_columns(k) == ref.boundary_columns(k)
            assert Z.labels == ref.labels
            seen[kind] += 1
        assert min(seen.values()) >= 100, seen

    def test_glue_chi_formula(self):
        rng = random.Random(13)
        for _ in range(5):
            n = rng.choice([3, 4, 5])
            A, _ = annulus_triangulation(n, n)
            C = circle(n)
            Crl = C.relabeled({"glue-rim": [(0, i) for i in range(n)]
                               + [(1, i) for i in range(n)]})
            vm = {n + i: i for i in range(n)}  # target rim verts -> C verts
            m = subcomplex_matching(Crl, "glue-rim", A, "target-rim", vm)
            Z = glue(Crl, A, m)
            chi_l = 0  # circle
            assert Z.euler_characteristic() == (
                Crl.euler_characteristic() + A.euler_characteristic() - chi_l
            )


class TestProducts:
    def test_point_times_interval(self):
        P = interval_product(point(), 3).complex
        assert P.counts == [4, 3]

    def test_circle_times_interval(self):
        P = interval_product(circle(3), 1).complex
        assert P.euler_characteristic() == 0
        assert oracle_complex_homology(P, 1) == (1, [])

    def test_chi_invariance(self):
        for X in [circle(4), filled_triangle()]:
            for n in (1, 2, 5):
                P = interval_product(X, n).complex
                assert P.euler_characteristic() == X.euler_characteristic()

    def test_slice_labels_are_chain_closed(self):
        prod = interval_product(filled_triangle(), 2)
        Z = prod.complex
        for l in range(3):
            cells = set(Z.label_cells(f"slice-{l}"))
            for (k, i) in cells:
                if k >= 1:
                    for r in Z.boundary_of(k, i):
                        assert (k - 1, r) in cells

    def test_product_boundary_squared(self):
        # implicit in construction, but exercise a 2-dim base fully
        prod = interval_product(filled_triangle(), 3)
        assert prod.complex.dim == 3

    def test_tables_are_those_of_the_cell_constructor(self):
        # the tables written straight from the base's equal, entry for
        # entry, those the cell constructor makes of the formula's columns,
        # on simplicial bases and on bases whose cells were reoriented
        kinds = set()
        for seed in range(100):
            rng = random.Random(seed)
            X = simplicial_complex(random_simplices(
                rng, rng.randint(1, 7), 2, rng.randint(1, 6)))
            if seed % 2:
                flip = [[rng.choice((1, -1)) for _ in range(c)]
                        for c in X.counts]
                X = new_complex(X.counts, [None] + [
                    [{r: flip[k - 1][r] * flip[k][j] * c
                      for r, c in col.items()}
                     for j, col in enumerate(X.boundary_columns(k))]
                    for k in range(1, X.dim + 1)])
            kinds.add(X.is_simplicial)
            n = rng.randint(1, 3)
            Z = interval_product(X, n).complex
            want = CellComplex(Z.counts, [None] + [
                oracle_interval_product_columns(X, n, k)
                for k in range(1, Z.dim + 1)], labels=Z.labels)
            assert Z.counts == want.counts and Z.labels == want.labels
            for k in range(Z.dim + 1):
                assert [list(t) for t in Z.boundary_table(k)] == \
                    [list(t) for t in want.boundary_table(k)], (seed, k)
            Z._validate()
        assert kinds == {True, False}


class TestSubdivisions:
    def test_barycentric_of_triangle(self):
        sub = barycentric_subdivision(filled_triangle())
        assert sub.complex.counts == [7, 12, 6]

    def test_barycentric_circle_is_double(self):
        sub = barycentric_subdivision(circle(3))
        assert sub.complex.counts == [6, 6]

    def test_barycentric_preserves_chi_random(self):
        rng = random.Random(5)
        for _ in range(10):
            n = rng.randrange(4, 8)
            tris = set()
            for _ in range(rng.randrange(1, 5)):
                tris.add(tuple(sorted(rng.sample(range(n), 3))))
            X = simplicial_complex(sorted(tris))
            sub = barycentric_subdivision(X)
            assert sub.complex.euler_characteristic() == X.euler_characteristic()
            for k in range(3):
                assert oracle_complex_homology(sub.complex, k) == \
                    oracle_complex_homology(X, k)

    def test_midpoint_subdivision_counts(self):
        sub = midpoint_subdivision(filled_triangle())
        assert sub.complex.counts == [6, 9, 4]
        assert sub.complex.euler_characteristic() == 1
        assert len(sub.complex.label_cells_of_dim("boundary", 1)) == 6

    def test_midpoint_requires_single_simplex(self):
        with pytest.raises(NotASimplex):
            midpoint_subdivision(circle(3))

    def test_holed_triangle_homology(self):
        sub = midpoint_subdivision(filled_triangle())
        (middle,) = sub.complex.label_cells("middle")
        D = remove_cells(sub.complex, [middle])
        assert oracle_complex_homology(D, 1) == (1, [])
        assert oracle_complex_homology(D, 2) == (0, [])

    def test_global_midpoint_carrier(self):
        X = simplicial_complex([(0, 1, 2), (1, 2, 3)])
        sub = midpoint_subdivision_global(X)
        assert sub.complex.euler_characteristic() == X.euler_characteristic()
        assert set(sub.middle_faces) == {0, 1}
