import random
import warnings
from fractions import Fraction

import pytest

from coarse_kit import CellMap, circle, filled_triangle, simplicial_complex
from coarse_kit import cochains
from coarse_kit.cochains import (
    Cochain,
    RING_Q,
    RING_Z,
    _bellman_potentials,
    _field_rank_kernel,
    _least_bound,
    _subcomplex_cells,
    coboundary,
    cohomology,
    exactness_check,
    fundamental_class,
    is_prime,
    min_norm_primitive,
    pullback_cochain,
    relative_coboundary_matrix,
    relative_cohomology,
    ring_zp,
    zero_cochain,
)
from coarse_kit.complexes import midpoint_subdivision, remove_cells
from coarse_kit.errors import (
    DegreeOutOfRange,
    InvalidParams,
    NodeLimitExceeded,
    NotACoboundary,
    ShapeMismatch,
    WrongShape,
)
from coarse_kit.exact_linalg import _box_lp
from coarse_kit.towers import MkParams, build_Mk

from oracles import (
    coboundary_matrix,
    densify,
    ilp_min_linf,
    oracle_cohomology_mod_p,
    oracle_complex_homology,
    oracle_homology,
    oracle_potential_minimax,
    oracle_rank,
    oracle_rank_mod_p,
    oracle_relative_coboundary,
)
from test_complexes import random_circle_map


def random_two_complex(rng, n_min=4, n_max=8, tri_max=5):
    n = rng.randrange(n_min, n_max)
    tris = set()
    for _ in range(rng.randrange(1, tri_max)):
        tris.add(tuple(sorted(rng.sample(range(n), 3))))
    return simplicial_complex(sorted(tris))


def boundary_label(X):
    """Label X with a random boundary-closed subcomplex and return its name."""
    return X


class TestCoboundary:
    def test_circle_k0_shape_and_row_sums(self):
        # delta of constants vanishes, so every row has zero sum (the spec
        # phrases this as columns under the transposed convention)
        M = coboundary_matrix(circle(3), 0)
        assert len(M) == 3 and len(M[0]) == 3
        assert all(sum(row) == 0 for row in M)

    def test_filled_triangle_k1(self):
        M = coboundary_matrix(filled_triangle(), 1)
        assert len(M) == 1 and sorted(abs(v) for v in M[0]) == [1, 1, 1]

    def test_delta_squared_zero_random(self):
        rng = random.Random(11)
        for _ in range(20):
            X = random_two_complex(rng)
            if X.dim < 2:
                continue
            d0 = coboundary_matrix(X, 0)
            d1 = coboundary_matrix(X, 1)
            prod = [
                [sum(d1[i][k] * d0[k][j] for k in range(len(d0)))
                 for j in range(len(d0[0]))]
                for i in range(len(d1))
            ]
            assert all(v == 0 for row in prod for v in row)

    def test_relative_rows_are_sparse(self):
        # the relative coboundary of M(5,2,1) out of degree 1 stays the
        # sparse rows the complex stores: at most 3 edges per 2-cell
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            M = build_Mk(MkParams(5, 2, 1, reduce=True)).complex
        A_cells = _subcomplex_cells(M, "boundary")
        mat, cols, rows = relative_coboundary_matrix(M, A_cells, 1)
        assert all(isinstance(row, dict) and len(row) <= 3 for row in mat)
        assert densify(mat, len(cols)) == \
            oracle_relative_coboundary(M, A_cells, 1)

    def test_pairing_identity(self):
        # <delta g, s> = <g, ds> on a sample of cochains
        rng = random.Random(3)
        X = random_two_complex(rng)
        g = Cochain(X, 0, RING_Z, [rng.randint(-3, 3) for _ in range(X.n_cells(0))])
        dg = coboundary(g)
        for e in range(X.n_cells(1)):
            pair = sum(c * g.values[v] for v, c in X.boundary_of(1, e).items())
            assert dg.values[e] == pair


class TestCohomology:
    def test_circle_h1(self):
        assert cohomology(circle(3), 1).free_rank == 1
        assert cohomology(circle(3), 0).free_rank == 1

    def test_presentation_complex_mk_ranks(self):
        # wedge of 3 circles with a 2-cell along -e + p^k a + q^k b, as a
        # cell complex: H^1 rank 2, H^2 = 0 (gcd of the relation is 1)
        for (p, q, k) in [(5, 2, 1), (5, 2, 2), (7, 2, 1)]:
            counts = [1, 3, 1]
            boundaries = [None, [{}, {}, {}],
                          [{0: -1, 1: p ** k, 2: q ** k}]]
            from coarse_kit import new_complex

            X = new_complex(counts, boundaries)
            assert cohomology(X, 1).free_rank == 2
            h2 = cohomology(X, 2)
            assert h2.free_rank == 0 and h2.torsion == []

    def test_torsion_detected(self):
        # one circle, 2-cell of degree 2: H^2 = Z/2
        from coarse_kit import new_complex

        X = new_complex([1, 1, 1], [None, [{}], [{0: 2}]])
        h2 = cohomology(X, 2)
        assert h2.free_rank == 0 and h2.torsion == [2]

    def test_zp_matches_gf_oracle_random(self):
        rng = random.Random(29)
        for _ in range(20):
            X = random_two_complex(rng)
            p = rng.choice([2, 3, 5])
            for k in range(X.dim + 1):
                mine = cohomology(X, k, ring_zp(p)).free_rank
                assert mine == oracle_cohomology_mod_p(X, k, p)

    @pytest.mark.parametrize("p", [0, 1, 4, -3, 9])
    def test_zp_needs_a_prime(self, p):
        with pytest.raises(InvalidParams, match=f"prime p, got {p}"):
            ring_zp(p)

    def test_is_prime_against_trial_division(self):
        for n in range(-5, 400):
            assert is_prime(n) == (n > 1 and all(n % f for f in range(2, n)))

    def test_zp_norm_is_zero(self):
        c = Cochain(circle(3), 1, ring_zp(5), [4, 3, 2])
        assert c.norm() == 0
        z = Cochain(circle(3), 1, RING_Z, [4, 3, 2])
        assert z.norm() == 4


def random_presentation_complex(rng):
    """One vertex, loops, and 2-cells along random words: often torsion."""
    from coarse_kit import new_complex

    n_edges = rng.randrange(1, 5)
    faces = [{e: rng.randint(-4, 4) for e in range(n_edges)}
             for _ in range(rng.randrange(0, 5))]
    return new_complex([1, n_edges, len(faces)],
                       [None, [{}] * n_edges, faces])


def closed_random_subcomplex(rng, X):
    """Boundary closure of a random set of cells."""
    closed = {(k, i) for k in range(X.dim + 1) for i in range(X.n_cells(k))
              if rng.random() < 0.3}
    todo = list(closed)
    while todo:
        k, i = todo.pop()
        for r in X.boundary_of(k, i):
            if (k - 1, r) not in closed:
                closed.add((k - 1, r))
                todo.append((k - 1, r))
    return sorted(closed)


class TestSparseCohomologyAgainstOracles:
    """Cohomology reads invariant factors off the sparse Smith kernel
    without factors; the dense oracles know nothing of it."""

    def complexes(self, seed):
        rng = random.Random(seed)
        for trial in range(40):
            yield rng, (random_two_complex(rng) if trial % 2
                        else random_presentation_complex(rng))

    def test_integer_matches_homology_oracle(self):
        torsion_seen = False
        for _, X in self.complexes(83):
            for k in range(X.dim + 1):
                h = cohomology(X, k)
                # H^k = free part of H_k + torsion of H_{k-1}
                assert h.free_rank == oracle_complex_homology(X, k)[0]
                below = oracle_complex_homology(X, k - 1)[1] if k else []
                assert h.torsion == below
                torsion_seen = torsion_seen or bool(h.torsion)
        assert torsion_seen

    @pytest.mark.parametrize("p", [2, 3])
    def test_mod_p_matches_gf_oracle(self, p):
        for _, X in self.complexes(89):
            for k in range(X.dim + 1):
                assert cohomology(X, k, ring_zp(p)).free_rank == \
                    oracle_cohomology_mod_p(X, k, p)

    def test_relative_matches_homology_oracle(self):
        for rng, X in self.complexes(97):
            A = set(closed_random_subcomplex(rng, X))
            cells = [[i for i in range(X.n_cells(k)) if (k, i) not in A]
                     for k in range(X.dim + 2)]

            def boundary(k):  # relative d_k, dense: rows (k-1)-cells
                if k < 1 or k > X.dim:
                    return []
                pos = {i: t for t, i in enumerate(cells[k - 1])}
                mat = [[0] * len(cells[k]) for _ in cells[k - 1]]
                for t, j in enumerate(cells[k]):
                    for r, c in X.boundary_of(k, j).items():
                        if r in pos:
                            mat[pos[r]][t] = c
                return mat

            def homology(k):
                if k < 0:
                    return 0, []
                return oracle_homology(boundary(k), boundary(k + 1),
                                       len(cells[k]))

            for k in range(X.dim + 1):
                h = relative_cohomology(X, A, k)
                assert (h.free_rank, h.torsion) == \
                    (homology(k)[0], sorted(homology(k - 1)[1]))

    def test_each_coboundary_factored_once(self, monkeypatch):
        import coarse_kit.cochains as cochains
        from coarse_kit.towers import MkParams, build_Mk
        from coarse_kit.verify import homology_summary

        calls = []
        real = cochains.smith_normal_form

        def counting(A, *args, **kwargs):
            calls.append(len(A))
            return real(A, *args, **kwargs)

        monkeypatch.setattr(cochains, "smith_normal_form", counting)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            X = build_Mk(MkParams(5, 2, 3, reduce=True)).complex
        tables = [homology_summary(X, ring) for ring in (RING_Z, ring_zp(3))]
        # delta_0 (357 rows) and delta_1 (249 rows), once for both tables
        assert sorted(calls) == [249, 357]
        for table in tables:
            assert [(r["free_rank"], r["torsion"]) for r in table] == \
                [(1, []), (2, []), (0, [])]


class TestRelative:
    def test_disk_rel_boundary(self):
        T = filled_triangle().relabeled(
            {"rim": [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]}
        )
        assert relative_cohomology(T, "rim", 2).free_rank == 1
        assert relative_cohomology(T, "rim", 1).free_rank == 0

    def test_holed_triangle_rel_outer(self):
        sub = midpoint_subdivision(filled_triangle())
        D = remove_cells(sub.complex, sub.complex.label_cells("middle"))
        assert relative_cohomology(D, "boundary", 2).free_rank == 0

    def test_rel_self_vanishes(self):
        X = filled_triangle()
        everything = [(k, i) for k in range(X.dim + 1) for i in range(X.n_cells(k))]
        lbl = X.relabeled({"all": everything})
        for k in range(X.dim + 1):
            s = relative_cohomology(lbl, "all", k)
            assert s.free_rank == 0 and s.torsion == []


class TestFieldEliminator:
    def test_rank_and_kernel_random(self):
        rng = random.Random(53)
        for field in (RING_Q, ring_zp(2), ring_zp(3)):
            p = field[1] if field != RING_Q else None
            for _ in range(40):
                m, n = rng.randrange(1, 6), rng.randrange(1, 7)
                M = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
                rank, kernel = _field_rank_kernel(
                    [{j: v for j, v in enumerate(row) if v} for row in M],
                    field, n)
                assert rank == (oracle_rank(M) if p is None
                                else oracle_rank_mod_p(M, p))
                assert len(kernel) == n
                vectors = [list(col) for col in zip(*densify(kernel,
                                                              n - rank))]
                assert len(vectors) == n - rank
                for v in vectors:
                    Mv = [sum(Fraction(a) * x for a, x in zip(row, v))
                          for row in M]
                    assert all(e == 0 if p is None else e % p == 0
                               for e in Mv)

    def test_no_rows_gives_identity_kernel(self):
        rank, kernel = _field_rank_kernel([], RING_Q, 3)
        assert rank == 0
        assert kernel == [{0: 1}, {1: 1}, {2: 1}]


class TestExactness:
    def test_disk_pair_exact(self):
        T = filled_triangle().relabeled(
            {"rim": [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]}
        )
        ok, report = exactness_check(T, "rim")
        assert ok, report

    def test_empty_subcomplex_degenerates(self):
        ok, report = exactness_check(filled_triangle(), None)
        assert ok

    def test_random_pairs_exact(self):
        rng = random.Random(31)
        done = 0
        while done < 20:
            X = random_two_complex(rng)
            # random boundary-closed subcomplex: closure of random cells
            seed_cells = []
            for k in range(X.dim + 1):
                for i in range(X.n_cells(k)):
                    if rng.random() < 0.3:
                        seed_cells.append((k, i))
            closed = set(seed_cells)
            changed = True
            while changed:
                changed = False
                for (k, i) in list(closed):
                    for r in X.boundary_of(k, i):
                        if (k - 1, r) not in closed:
                            closed.add((k - 1, r))
                            changed = True
            lbl = X.relabeled({"sub": sorted(closed)})
            for ring in (RING_Q, ring_zp(2)):
                ok, report = exactness_check(lbl, "sub", ring)
                assert ok, (report, sorted(closed))
            done += 1


class TestFundamentalClass:
    def test_single_simplex(self):
        mu = fundamental_class(filled_triangle(), 2)
        assert mu.values == [1] and mu.norm() == 1

    def test_five_disjoint(self):
        X = simplicial_complex(
            [(3 * t, 3 * t + 1, 3 * t + 2) for t in range(5)]
        )
        mu = fundamental_class(X, 2)
        assert mu.norm() == 1 and len(mu.support()) == 5

    def test_wrong_shape(self):
        with pytest.raises(WrongShape):
            fundamental_class(simplicial_complex([(0, 1, 2), (1, 2, 3)]), 2)


class TestPullback:
    def test_identity(self):
        X = circle(4)
        c = Cochain(X, 1, RING_Z, [1, 2, 3, 4])
        assert pullback_cochain(CellMap.identity(X), c) == c

    def test_degree_sum(self):
        rng = random.Random(37)
        for _ in range(10):
            b = rng.choice([3, 4])
            a = b * rng.choice([1, 2, 3])
            f, deg = random_circle_map(rng, a, b)
            # 1-cocycle summing to 1 along the oriented fundamental cycle
            from coarse_kit import fundamental_cycle

            cyc = fundamental_cycle(f.target)
            vals = [0] * b
            e0 = next(iter(cyc))
            vals[e0] = cyc[e0]
            c = Cochain(f.target, 1, RING_Z, vals)
            fc = pullback_cochain(f, c)
            src_cyc = fundamental_cycle(f.source)
            total = sum(fc.values[e] * src_cyc[e] for e in src_cyc)
            assert total == deg

    def test_commutes_with_delta_random(self):
        rng = random.Random(41)
        for _ in range(20):
            b = rng.choice([3, 4])
            a = b * rng.choice([1, 2])
            f, _ = random_circle_map(rng, a, b)
            c = Cochain(f.target, 0, RING_Z,
                        [rng.randint(-2, 2) for _ in range(b)])
            lhs = coboundary(pullback_cochain(f, c))
            rhs = pullback_cochain(f, coboundary(c))
            assert lhs == rhs

    def test_functorial_composition(self):
        rng = random.Random(43)
        for _ in range(10):
            f, _ = random_circle_map(rng, 12, 6)
            g, _ = random_circle_map(rng, 6, 3)
            gf = g.compose(f)
            c = Cochain(g.target, 1, RING_Z, [rng.randint(-2, 2) for _ in range(3)])
            assert pullback_cochain(gf, c) == pullback_cochain(
                f, pullback_cochain(g, c)
            )


class TestMinNormPrimitive:
    def test_zero(self):
        X = filled_triangle()
        res = min_norm_primitive(zero_cochain(X, 2))
        assert res.certificate.optimum == 0
        assert res.gamma.values == [0, 0, 0]

    def test_upper_bound_by_construction(self):
        rng = random.Random(47)
        for _ in range(10):
            X = random_two_complex(rng)
            if X.dim < 2:
                continue
            g = Cochain(X, 1, RING_Z,
                        [rng.choice([-1, 0, 1]) for _ in range(X.n_cells(1))])
            c = coboundary(g)
            res = min_norm_primitive(c)
            assert res.certificate.optimum <= g.norm()
            assert coboundary(res.gamma) == c

    def test_relative_edges_without_relative_faces(self):
        # the pair (triangle + pendant edge, closed triangle) has the edge
        # (2, 3) outside the subcomplex but no 2-cell outside it
        X = simplicial_complex([(0, 1, 2), (2, 3)])
        triangle = [(k, i) for k in range(3)
                    for i, verts in enumerate(X.simplices[k])
                    if set(verts) <= {0, 1, 2}]
        res = min_norm_primitive(zero_cochain(X, 2), vanishing_on=triangle)
        assert res.certificate.optimum == 0
        assert res.certificate.infeasibility_proof["kind"] == "trivial"
        assert res.gamma.values == [0] * X.n_cells(1)

    def test_522_decides_each_rejected_point_in_one_run(self, monkeypatch):
        # the first lattice point of M(5,2,2), u = 0, is already optimal, so
        # each later integer probe is one Bellman-Ford run at bound 5 whose
        # cycle cuts the line, and one rational probe, at a u with
        # denominator 50, finds the LP probe's point
        import coarse_kit.cochains as cochains

        runs, calls = [], []
        bellman, least = cochains._bellman_potentials, cochains._least_bound

        def counted(*args, **kwargs):
            before = len(runs)
            B, h = least(*args, **kwargs)
            calls.append((h is not None, len(runs) - before))
            return B, h

        monkeypatch.setattr(cochains, "_bellman_potentials",
                            lambda *args: runs.append(args[3]) or
                            bellman(*args))
        monkeypatch.setattr(cochains, "_least_bound", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bundle = build_Mk(MkParams(5, 2, 2, reduce=True))
        res = min_norm_primitive(bundle.obstruction,
                                 vanishing_on=bundle.boundary_label)
        assert res.certificate.optimum == 6
        assert res.certificate.node_count == 3
        assert len(calls) == 1 and calls[0][0]  # u = 0 is solved exactly
        assert runs[calls[0][1]:] == [5, 5, 250]
        assert res.certificate.infeasibility_proof["kind"] == \
            "search-exhausted"

    @pytest.mark.parametrize("limit", [0, -1])
    def test_node_limit_below_one_rejected(self, limit):
        with pytest.raises(InvalidParams, match="below 1"):
            min_norm_primitive(zero_cochain(filled_triangle(), 2),
                               node_limit=limit)

    def test_degree_one_rejected(self):
        X = filled_triangle()
        with pytest.raises(DegreeOutOfRange):
            min_norm_primitive(zero_cochain(X, 1))

    def test_not_a_coboundary(self):
        # the degree-2 attaching cell complex: c = 1 on the 2-cell needs
        # gamma with 2*gamma = 1, impossible over Z
        from coarse_kit import new_complex

        X = new_complex([1, 1, 1], [None, [{}], [{0: 2}]])
        c = Cochain(X, 2, RING_Z, [1])
        with pytest.raises(NotACoboundary):
            min_norm_primitive(c)

    def test_loop_edge_goes_on_the_ground(self):
        # one vertex, a loop edge and a 2-cell on it: |gamma(loop)| = 3
        # whatever the potential of the vertex
        from coarse_kit import new_complex

        X = new_complex([1, 1, 1], [None, [{}], [{0: 1}]])
        c = Cochain(X, 2, RING_Z, [3])
        res = min_norm_primitive(c)
        mat, cols, rows = relative_coboundary_matrix(X, set(), 1)
        assert res.certificate.optimum == 3
        assert ilp_min_linf(densify(mat, len(cols)),
                            [c.values[j] for j in rows]).optimum == 3
        assert res.gamma.values == [3]

    def test_edge_that_is_no_graph_edge_is_named(self):
        # edge 0 has boundary 2 v0 - 2 v1; the system gamma(edge 1) = 3
        # is solvable, but the potentials cannot carry edge 0
        from coarse_kit import new_complex

        X = new_complex([2, 2, 1], [None, [{0: 2, 1: -2}, {}], [{1: 1}]])
        with pytest.raises(ShapeMismatch, match=r"^edge 0 has boundary"):
            min_norm_primitive(Cochain(X, 2, RING_Z, [3]))


def random_relative_problems(rng, trials):
    """Minimal-primitive problems (X, A, A_cells, mat, rows, c) on random
    simplicial complexes over 8 vertices, c the coboundary of a random
    1-cochain vanishing on the random subcomplex A and mat its dense
    relative system; pairs with no relative 2-cell, where the zero
    primitive is optimal, are skipped."""
    for _ in range(trials):
        X = simplicial_complex(sorted(
            {tuple(sorted(rng.sample(range(8), 3)))
             for _ in range(rng.randint(1, 5))}
            | {tuple(sorted(rng.sample(range(8), 2)))
               for _ in range(rng.randint(0, 5))}))
        A = closed_random_subcomplex(rng, X) if rng.random() < 0.4 else []
        A_cells = _subcomplex_cells(X, A)
        mat, cols, rows = relative_coboundary_matrix(X, A_cells, 1)
        if not mat:
            continue
        g = Cochain(X, 1, RING_Z, [
            0 if (1, e) in A_cells else rng.randint(-2, 2)
            for e in range(X.n_cells(1))])
        yield X, A, A_cells, densify(mat, len(cols)), rows, coboundary(g)


class TestMinNormPrimitiveAgainstReference:
    """The lattice search against a generic branch and bound that knows
    nothing of the cocycle lattice, at every rank of it up to 3 and past."""

    def test_random_pairs(self):
        betas = set()
        for X, A, A_cells, mat, rows, c in random_relative_problems(
                random.Random(2013), 200):
            res = min_norm_primitive(c, vanishing_on=A)
            ref = ilp_min_linf(mat, [c.values[j] for j in rows])
            assert res.certificate.optimum == ref.optimum
            assert res.gamma.norm() == ref.optimum
            assert coboundary(res.gamma) == c
            assert all(res.gamma.values[i] == 0 for k, i in A_cells if k == 1)
            betas.add(min(relative_cohomology(X, A, 1).free_rank, 3))
        assert betas == {0, 1, 2, 3}

    def test_budget_cut_brackets_the_optimum(self):
        # a search the node limit cuts short reports a true interval, and
        # one it does not cut is the full search
        outcomes = set()
        for X, A, A_cells, mat, rows, c in random_relative_problems(
                random.Random(2014), 120):
            ref = ilp_min_linf(mat, [c.values[j] for j in rows]).optimum
            full = min_norm_primitive(c, vanishing_on=A).certificate
            n = full.node_count
            for limit in {min(n, 2), n - 1, n} - {0}:
                try:
                    got = min_norm_primitive(c, node_limit=limit,
                                             vanishing_on=A).certificate
                except NodeLimitExceeded as exc:
                    assert exc.lower <= ref <= exc.upper
                    assert exc.node_count == limit < full.node_count
                    outcomes.add("cut")
                else:
                    assert (got.optimum, got.node_count) == \
                        (ref, full.node_count)
                    outcomes.add("full")
        assert outcomes == {"cut", "full"}


class TestLpProbe:
    """The LP probe at m_k - 1 decides as the simplex does: from the cut
    loop's point when the cocycle lattice has rank 1 and the loop finds
    one, else from the simplex, whose (x, farkas) it returns."""

    @staticmethod
    def problems(rng):
        """(X, A, c) from random simplicial pairs, then from presentation
        complexes, whose 2-cells wind loops many times: there the probe
        often has a rational point, as on M(p, q, k)."""
        for X, A, _, _, _, c in random_relative_problems(rng, 150):
            yield X, A, c
        for _ in range(300):
            X = random_presentation_complex(rng)
            if X.dim == 2:
                yield X, [], coboundary(Cochain(X, 1, RING_Z, [
                    rng.randint(-3, 3) for _ in range(X.n_cells(1))]))

    def test_random_problems(self, monkeypatch):
        probes = []
        probe = cochains.box_feasibility

        def recorded(A, b, t, point=None, ncols=None):
            out = probe(A, b, t, point=point, ncols=ncols)
            probes.append((A, b, t, point, ncols, out))
            return out

        monkeypatch.setattr(cochains, "box_feasibility", recorded)
        seen = set()
        for X, A, c in self.problems(random.Random(7)):
            probes.clear()
            min_norm_primitive(c, vanishing_on=A)
            if not probes:
                continue  # m_k = 0: no probe
            (M, b, t, point, n, (x, farkas)), = probes
            simplex = _box_lp(M, b, [-t] * n, [t] * n, ncols=n)
            beta = min(relative_cohomology(X, A, 1).free_rank, 2)
            if point is None:
                assert (x, farkas) == simplex
            else:
                assert x is point and simplex[1] is None
            seen.add((beta, "cut" if point else "simplex", x is not None))
        assert seen == {(0, "simplex", False), (1, "simplex", False),
                        (1, "cut", True), (2, "simplex", False),
                        (2, "simplex", True)}


def random_potential_system(rng):
    """(edge_ends, w, n_nodes, ground) with ground loops, parallel edges,
    isolated nodes and, now and then, no edges at all."""
    n_nodes = rng.randint(1, 8)
    ground = n_nodes - 1
    edge_ends = []
    for _ in range(rng.randint(0, 14)):
        u, v = rng.randrange(n_nodes), rng.randrange(n_nodes)
        if u == v:
            u = v = ground  # edges with both ends on the subcomplex
        edge_ends.append((u, v))
    w = [rng.randint(-6, 6) for _ in edge_ends]
    return edge_ends, w, n_nodes, ground


class TestPotentialMinimax:
    def test_matches_binary_search_random(self):
        rng = random.Random(1978)
        seen = {"empty": 0, "ground-loop": 0, "parallel": 0, "isolated": 0,
                "rejected": 0, "solved-below": 0}
        for _ in range(300):
            edge_ends, w, n_nodes, ground = random_potential_system(rng)
            B, h_ref = oracle_potential_minimax(edge_ends, w, n_nodes, ground)
            # 2B + 3 makes the bisection step down from a feasible bound
            for below in [None, *range(B + 2), 2 * B + 3]:
                got, h = _least_bound(n_nodes, edge_ends, w, below)
                if below is not None and B >= below:
                    assert (got, h) == (below, None)
                    seen["rejected"] += 1
                    continue
                seen["solved-below"] += below is not None
                assert got == B
                assert [v - h[ground] for v in h] == h_ref
                assert B == max((abs(we + h[v] - h[u])
                                 for (u, v), we in zip(edge_ends, w)),
                                default=0)
            pairs = [frozenset(e) for e in edge_ends]
            ends = {x for e in edge_ends for x in e}
            seen["empty"] += not edge_ends
            seen["ground-loop"] += (ground, ground) in edge_ends
            seen["parallel"] += len(set(pairs)) < len(pairs)
            seen["isolated"] += len(ends) < n_nodes
        assert all(seen.values()), seen

    def test_bellman_cycle_decides_every_bound(self):
        rng = random.Random(1999)
        cycles = 0
        for _ in range(300):
            edge_ends, w, n_nodes, ground = random_potential_system(rng)
            B, _ = oracle_potential_minimax(edge_ends, w, n_nodes, ground)
            # with no edges B = 0 and no cycle can show that it exceeds -1
            for bound in range(-1 if edge_ends else 0, B + 2):
                h, cycle = _bellman_potentials(n_nodes, edge_ends, w, bound)
                assert (cycle is None) == (B <= bound)
                if cycle is None:
                    assert all(abs(we + h[v] - h[u]) <= bound
                               for (u, v), we in zip(edge_ends, w))
                    continue
                cycles += 1
                assert cycle and all(0 <= e < len(edge_ends) and d in (1, -1)
                                     for e, d in cycle)
                steps = [edge_ends[e] if d == 1 else edge_ends[e][::-1]
                         for e, d in cycle]
                # a closed walk: each step ends where the next one starts
                assert all(steps[i - 1][1] == steps[i][0]
                           for i in range(len(steps)))
                assert sum(d * w[e] for e, d in cycle) > bound * len(cycle)
        assert cycles >= 300
