import random
import warnings
from fractions import Fraction

import pytest

from coarse_kit import CellMap, circle, filled_triangle, simplicial_complex
from coarse_kit.errors import NotACover
from coarse_kit.metric_nerve import (
    INFINITY,
    CoverSpec,
    canonical_projection,
    lebesgue_number,
    lipschitz_constant,
    mesh,
    multiplicity,
    nerve,
    open_star_cover,
    per_simplex_lipschitz_bound,
    refines,
    skeleton_metric,
    star_refines,
)

from coarse_kit.towers import MkParams, build_tower, build_Y_stage
from oracles import oracle_complex_homology, oracle_floyd_warshall
from test_complexes import random_circle_map


class TestSkeletonMetric:
    def test_circle6_antipodal(self):
        t = skeleton_metric(circle(6))
        assert t.d(0, 3) == 3
        assert t.connected

    def test_filled_triangle_all_ones(self):
        t = skeleton_metric(filled_triangle())
        for u in range(3):
            for v in range(3):
                assert t.d(u, v) == (0 if u == v else 1)

    def test_symmetry_and_triangle_inequality_random(self):
        rng = random.Random(67)
        X = simplicial_complex(
            sorted({tuple(sorted(rng.sample(range(9), 3))) for _ in range(8)})
        )
        t = skeleton_metric(X)
        n = X.n_cells(0)
        for _ in range(100):
            a, b, c = (rng.randrange(n) for _ in range(3))
            if t.d(a, b) is None or t.d(b, c) is None or t.d(a, c) is None:
                continue
            assert t.d(a, b) == t.d(b, a)
            assert t.d(a, c) <= t.d(a, b) + t.d(b, c)

    def test_components(self):
        X = simplicial_complex([(0, 1), (2, 3)])
        t = skeleton_metric(X)
        assert len(t.components) == 2
        assert t.d(0, 2) is None

    def test_mk_metric_against_floyd_warshall(self):
        import warnings

        from coarse_kit.towers import MkParams, build_Mk
        from oracles import oracle_floyd_warshall

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            b = build_Mk(MkParams(5, 2, 1, reduce=True))
        M = b.complex
        t = skeleton_metric(M)
        ref = oracle_floyd_warshall(M)
        rng = random.Random(11)
        n = M.n_cells(0)
        for _ in range(100):
            a, bb, c = (rng.randrange(n) for _ in range(3))
            assert t.d(a, bb) == ref[a][bb] == t.d(bb, a)
            assert t.d(a, c) <= t.d(a, bb) + t.d(bb, c)


def all_pairs_lipschitz(f):
    """The vertex-level Lipschitz constant read off the target's all-pairs
    distances: max over edges (u, v) of d(f(u), f(v))."""
    d = oracle_floyd_warshall(f.target)
    vm = f.vertex_map
    return max((d[vm[u]][vm[v]] for u, v in filter(None,
                                                     f.source.edge_ends())),
               default=0)


@pytest.fixture(scope="module")
def stage_maps():
    """The stage-1 tau maps and projections of the two-stage towers (3,2,2)
    and (5,2,2), and the stage-2 tau map of the y-stage segment (3,2,1)."""
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for p in (3, 5):
            stage = build_tower(MkParams(p, 2, 2, reduce=True), 1)[1]
            out[f"tower-{p}22-tau"] = stage.tau_map
            out[f"tower-{p}22-projection"] = stage.projection
        stage = build_Y_stage(MkParams(3, 2, 1, reduce=True), 2,
                              size_guard=3_000_000)[1]
        out["y-stage-321-tau"] = stage.tau_map
    return out


class TestLipschitz:
    def test_identity(self):
        assert lipschitz_constant(CellMap.identity(circle(5))) == 1

    def test_constant(self):
        C = circle(4)
        f = CellMap.from_vertex_map(C, C, [0, 0, 0, 0])
        assert lipschitz_constant(f) == 0

    def test_collapse_is_one(self):
        from coarse_kit import annulus_triangulation

        A, collapse = annulus_triangulation(6, 3)
        assert lipschitz_constant(collapse) <= 1

    def test_matches_all_pairs_distances_small(self):
        from coarse_kit import annulus_triangulation

        C = circle(4)
        maps = [CellMap.identity(circle(5)),
                CellMap.identity(filled_triangle()),
                CellMap.from_vertex_map(C, C, [0, 0, 0, 0]),
                annulus_triangulation(6, 3)[1]]
        rng = random.Random(211)
        for _ in range(30):
            b = rng.choice([3, 4, 5])
            f, _ = random_circle_map(rng, b * rng.choice([1, 2, 3]), b)
            g, _ = random_circle_map(rng, b, rng.choice(range(3, b + 1)))
            maps += [f, g.compose(f)]
        for f in maps:
            assert lipschitz_constant(f) == all_pairs_lipschitz(f)

    @pytest.mark.parametrize("name", [
        "tower-322-tau", "tower-322-projection", "tower-522-tau",
        "tower-522-projection", "y-stage-321-tau"])
    def test_matches_all_pairs_distances_on_stages(self, stage_maps, name):
        f = stage_maps[name]
        assert lipschitz_constant(f) == all_pairs_lipschitz(f) == 1


class TestLebesgue:
    def test_single_full_set(self):
        C = circle(6)
        cov = CoverSpec(carrier=C, sets=[set(range(6))])
        assert lebesgue_number(cov) is INFINITY

    def test_two_arcs(self):
        # arcs of 4: the seam vertices sit one step from both complements
        C = circle(6)
        cov = CoverSpec(carrier=C, sets=[{0, 1, 2, 3}, {3, 4, 5, 0}])
        assert lebesgue_number(cov) == 1
        # arcs of 5: every vertex is >= 2 deep inside one of the arcs
        cov5 = CoverSpec(carrier=C, sets=[{0, 1, 2, 3, 4}, {3, 4, 5, 0, 1}])
        assert lebesgue_number(cov5) == 2

    def test_singleton_cover_vertex_floor(self):
        # vertex-level evaluation: nearest complement vertex is one edge away
        C = circle(6)
        cov = CoverSpec(carrier=C, sets=[{v} for v in range(6)])
        assert lebesgue_number(cov) == 1

    def test_not_a_cover(self):
        with pytest.raises(NotACover):
            CoverSpec(carrier=circle(6), sets=[{0, 1}, {2, 3}])


class TestNerve:
    def test_three_arcs_give_circle(self):
        C = circle(6)
        cov = CoverSpec(carrier=C, sets=[{0, 1, 2}, {2, 3, 4}, {4, 5, 0}])
        N = nerve(cov)
        assert N.counts == [3, 3]
        assert oracle_complex_homology(N, 1) == (1, [])

    def test_one_set_gives_point(self):
        C = circle(3)
        cov = CoverSpec(carrier=C, sets=[set(range(3))])
        N = nerve(cov)
        assert N.counts == [1]

    def test_open_star_nerve_isomorphic(self):
        for X in [circle(4), circle(6), filled_triangle(),
                  simplicial_complex([(0, 1, 2), (1, 2, 3), (3, 4)])]:
            cov = open_star_cover(X)
            N = nerve(cov)
            assert N.counts == X.counts
            assert sorted(N.simplices[min(1, N.dim)]) == sorted(
                X.simplices[min(1, X.dim)]
            )
            for k in range(X.dim + 1):
                assert sorted(N.simplices[k]) == sorted(X.simplices[k])

    def test_multiplicity_is_dim_plus_one(self):
        rng = random.Random(71)
        for _ in range(10):
            X = simplicial_complex(
                sorted({tuple(sorted(rng.sample(range(8), 3))) for _ in range(6)})
            )
            cov = open_star_cover(X)
            assert nerve(cov).dim + 1 == multiplicity(cov)

    def test_multiplicity_explicit_random(self):
        rng = random.Random(73)
        for _ in range(20):
            C = circle(rng.randrange(4, 9))
            n = C.n_cells(0)
            sets = []
            for _ in range(rng.randrange(2, 5)):
                size = rng.randrange(1, n)
                start = rng.randrange(n)
                sets.append({(start + t) % n for t in range(size)})
            covered = set().union(*sets)
            sets.append(set(range(n)) - covered | {0})
            cov = CoverSpec(carrier=C, sets=sets)
            assert nerve(cov).dim + 1 == multiplicity(cov)


class TestCanonicalProjection:
    def test_interior_vertex_weight_one(self):
        C = circle(6)
        cov = CoverSpec(carrier=C, sets=[{0, 1, 2, 3, 4}, {4, 5, 0}])
        w = canonical_projection(cov, 2)
        assert w[0] == 1 and w[1] == 0

    def test_symmetric_split(self):
        C = circle(6)
        cov = CoverSpec(carrier=C, sets=[{0, 1, 2, 3}, {3, 4, 5, 0}])
        w = canonical_projection(cov, 0)
        assert w == [Fraction(1, 2), Fraction(1, 2)]

    def test_weights_sum_to_one_random(self):
        rng = random.Random(79)
        trials = 0
        while trials < 200:
            C = circle(rng.randrange(4, 9))
            n = C.n_cells(0)
            sets = []
            for _ in range(rng.randrange(2, 4)):
                size = rng.randrange(2, n)
                start = rng.randrange(n)
                sets.append({(start + t) % n for t in range(size)})
            if set().union(*sets) != set(range(n)):
                continue
            cov = CoverSpec(carrier=C, sets=sets)
            v = rng.randrange(n)
            w = canonical_projection(cov, v)
            assert sum(w) == 1
            assert all(x >= 0 for x in w)
            # support spans a nerve simplex: all supporting sets contain v
            for t, x in enumerate(w):
                if x > 0 and lebesgue_number(cov) is not INFINITY:
                    assert v in cov.sets[t]
            trials += 1


class TestRefinement:
    def test_self_refines(self):
        C = circle(6)
        cov = CoverSpec(carrier=C, sets=[{0, 1, 2, 3}, {3, 4, 5, 0}])
        ok, _ = refines(cov, cov)
        assert ok

    def test_star_refinement_implies_refinement(self):
        rng = random.Random(83)
        for _ in range(30):
            C = circle(rng.randrange(5, 9))
            n = C.n_cells(0)
            fine = CoverSpec(
                carrier=C, sets=[{v, (v + 1) % n} for v in range(n)]
            )
            coarse_sets = [
                {(s + t) % n for t in range(n - 1)} for s in range(0, n, 2)
            ]
            coarse = CoverSpec(carrier=C, sets=coarse_sets)
            star_ok, _ = star_refines(fine, coarse)
            plain_ok, _ = refines(fine, coarse)
            if star_ok:
                assert plain_ok

    def test_mesh_below_lebesgue_implies_refines(self):
        rng = random.Random(89)
        done = 0
        while done < 100:
            C = circle(rng.randrange(6, 12))
            n = C.n_cells(0)
            coarse_sets = []
            for s in range(0, n, 2):
                coarse_sets.append({(s + t) % n for t in range(5)})
            coarse = CoverSpec(carrier=C, sets=coarse_sets)
            L = lebesgue_number(coarse)
            fine_sets = [{v, (v + 1) % n} for v in range(n)]
            fine = CoverSpec(carrier=C, sets=fine_sets)
            if L is INFINITY or mesh(fine) >= L:
                done += 1
                continue
            ok, _ = refines(fine, coarse)
            assert ok
            done += 1


class TestPerSimplexBound:
    def test_zero(self):
        assert per_simplex_lipschitz_bound(0, 3, 2) == 0

    def test_dominates_lambda(self):
        assert per_simplex_lipschitz_bound(Fraction(3, 2), 1, 2) >= Fraction(3, 2)

    def test_dominates_vertex_level_random(self):
        rng = random.Random(97)
        for _ in range(20):
            b = rng.choice([3, 4])
            a = b * rng.choice([1, 2])
            f, _ = random_circle_map(rng, a, b)
            measured = lipschitz_constant(f)
            # per-simplex (edge) bound of a simplicial map is 1; target
            # diameter bounds b
            diam = b // 2
            bound = per_simplex_lipschitz_bound(1, max(diam, 1), 1)
            assert bound >= measured
