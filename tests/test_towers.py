import gc
import random
import warnings
from types import SimpleNamespace

import pytest

from coarse_kit.cochains import (
    Cochain,
    RING_Z,
    coboundary,
    fundamental_class,
    min_norm_primitive,
    pullback_cochain,
)
from coarse_kit.complexes import (
    CellComplex,
    CellMap,
    Subdivision,
    filled_triangle,
    labeled_cycle,
    midpoint_subdivision,
    midpoint_subdivision_global,
    path_complex,
    simplex_carrier,
    simplicial_complex,
)
from coarse_kit.constructions import (
    annulus_triangulation,
    barycentric_subdivision,
    cone_middle_subdivision,
    interval_product,
)
from coarse_kit.degrees import circle_map_degree
from coarse_kit.errors import (
    DivisibilityViolated,
    InvalidParams,
    NotSimplicial,
    NoValidAssignment,
    SizeGuardExceeded,
)
from coarse_kit.exact_linalg import solve_integer
from coarse_kit.homology import cohomology, exactness_check
from coarse_kit.rings import ring_zp
from coarse_kit.towers import (
    DEFAULT_SIZE_GUARD,
    MkParams,
    TowerStage,
    build_Mk,
    build_Y_stage,
    build_beta,
    build_tower,
    check_stage_carriers,
    dimension_coloring,
    is_light,
    open_star_refinement_witnesses,
    pick_n,
    product_obstruction_cocycle,
    pullback_complex,
    pullback_subdivision,
    replace_faces,
    simplicial_approx_identity,
    stage_carriers,
)

from oracles import (
    densify,
    oracle_build_Mk,
    oracle_cell_carriers,
    oracle_check_stage_carriers,
    oracle_complex_homology,
    oracle_from_vertex_map,
    oracle_is_light,
    oracle_open_star_refinement_witnesses,
    oracle_product_cellmap,
    oracle_pullback_complex,
    oracle_pullback_subdivision,
    oracle_simplicial_approx_identity,
    relative_cohomology,
)
from test_complexes import cell_images, random_simplices, random_vertex_map


@pytest.fixture(scope="module")
def mk521():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_Mk(MkParams(5, 2, 1, reduce=True))


@pytest.fixture(scope="module")
def towers():
    """The two-stage towers (3,2,2) and (5,2,2) in reduce mode."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return {pqk: build_tower(MkParams(*pqk, reduce=True), 1)
                for pqk in ((3, 2, 2), (5, 2, 2))}


@pytest.fixture(scope="module")
def gamma521(mk521):
    return min_norm_primitive(mk521.obstruction, vanishing_on="boundary")


class TestParams:
    def test_rejects_non_prime(self):
        with pytest.raises(InvalidParams):
            MkParams(4, 2, 1)

    def test_rejects_equal(self):
        with pytest.raises(InvalidParams):
            MkParams(5, 5, 1)

    def test_warns_small_p(self):
        with pytest.warns(UserWarning) as record:
            MkParams(3, 2, 1)
        # the warning names the line that made the params
        assert record[0].filename == __file__

    @pytest.mark.parametrize("reduce", ["false", "true", 0, 1, None])
    def test_rejects_non_boolean_reduce(self, reduce):
        # a truthy string would build the reduced complex under a report
        # that records the string
        with pytest.raises(InvalidParams, match="is not a boolean"):
            MkParams(5, 2, 1, reduce=reduce)


class TestWindingStage:
    def test_stage_is_annulus(self):
        A, collapse = annulus_triangulation(12, 6)
        assert A.euler_characteristic() == 0
        # reduce mode: circle(12) -> circle(6), rim degree 2
        assert len(A.label_cells_of_dim("domain-rim", 1)) == 12
        assert len(A.label_cells_of_dim("target-rim", 1)) == 6

    def test_rim_degree(self):
        # the degree-5 stage of a reduce-mode tower: circle(15) -> circle(3)
        A, collapse = annulus_triangulation(15, 3)
        src = labeled_cycle(A, "domain-rim")
        from coarse_kit import fundamental_cycle

        dst = fundamental_cycle(collapse.target)
        assert circle_map_degree(collapse, src, dst) == 5

    def test_composite_degree_squares(self):
        # two consecutive stage collapses restricted to their domain rims
        from coarse_kit import circle, fundamental_cycle

        p, base = 2, 6
        f2 = CellMap.from_vertex_map(circle(p * p * base), circle(p * base),
                                     [j % (p * base) for j in range(p * p * base)])
        f1 = CellMap.from_vertex_map(circle(p * base), circle(base),
                                     [j % base for j in range(p * base)])
        comp = f1.compose(f2)
        src = fundamental_cycle(f2.source)
        dst = fundamental_cycle(f1.target)
        assert circle_map_degree(comp, src, dst) == p * p


class TestBuildMk:
    def test_homology_all_triples(self):
        for (p, q, k) in [(5, 2, 1), (5, 2, 2), (7, 2, 1)]:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                b = build_Mk(MkParams(p, q, k, reduce=True))
            M = b.complex
            assert oracle_complex_homology(M, 0) == (1, [])
            assert oracle_complex_homology(M, 1) == (2, [])
            assert oracle_complex_homology(M, 2) == (0, [])
            assert M.euler_characteristic() == -1

    def test_holes_are_triangles(self, mk521):
        M = mk521.complex
        assert len(M.label_cells_of_dim("p-hole", 1)) == 3
        assert len(M.label_cells_of_dim("q-hole", 1)) == 3

    def test_boundary_is_subdivided_triangle(self, mk521):
        M = mk521.complex
        assert len(M.label_cells_of_dim("boundary", 1)) == 6
        assert len(M.label_cells_of_dim("boundary", 0)) == 6

    def test_phi_fixes_boundary(self, mk521):
        for (k, i) in mk521.complex.label_cells("boundary"):
            img = mk521.phi.cell_image(k, i)
            assert list(img.values()) == [1]

    def test_obstruction_is_unit_vortex(self, mk521):
        sup = mk521.obstruction.support()
        assert len(sup) == 1
        assert abs(mk521.obstruction.values[sup[0]]) == 1

    def test_obstruction_solvable_absolute_and_relative(self, mk521):
        from coarse_kit.cochains import relative_coboundary_matrix, _subcomplex_cells

        M = mk521.complex
        # absolute
        A0, cols0, rows0 = relative_coboundary_matrix(M, set(), 1)
        assert solve_integer(densify(A0, len(cols0)),
                             [mk521.obstruction.values[j] for j in rows0])
        # relative to the boundary circle
        A_cells = _subcomplex_cells(M, "boundary")
        A1, cols1, rows1 = relative_coboundary_matrix(M, A_cells, 1)
        assert solve_integer(densify(A1, len(cols1)),
                             [mk521.obstruction.values[j] for j in rows1])

    def test_min_primitive_meets_growth_bound(self, gamma521):
        assert gamma521.certificate.optimum >= 2 ** 1 - 1

    def test_cohomology_ranks(self, mk521):
        assert cohomology(mk521.complex, 1).free_rank == 2
        h2 = cohomology(mk521.complex, 2)
        assert h2.free_rank == 0 and h2.torsion == []

    def test_pair_exactness_mod2(self, mk521):
        ok, report = exactness_check(mk521.complex, "boundary", ring_zp(2))
        assert ok, [r for r in report if not r["exact"]]

    def test_size_guard(self):
        from coarse_kit.errors import SizeGuardExceeded

        with pytest.raises(SizeGuardExceeded):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                build_Mk(MkParams(5, 2, 4), size_guard=2000)

    def test_size_guard_counts_every_cell(self):
        # (5,2,3) --reduce has 713 cells: every smaller budget refuses it
        params = MkParams(5, 2, 3, reduce=True)
        with pytest.raises(SizeGuardExceeded, match="713 cells"):
            build_Mk(params, size_guard=600)
        with pytest.raises(SizeGuardExceeded):
            build_Mk(params, size_guard=712)
        assert build_Mk(params, size_guard=713).complex.total_cells() == 713

    def test_size_guard_refuses_before_building(self, monkeypatch):
        """A k past every budget is refused on the closed-form count,
        before any piece of M is made."""
        def no_tower(u, params):
            raise AssertionError("a tower was built")

        monkeypatch.setattr("coarse_kit.mk._tower", no_tower)
        for reduce in (True, False):
            with pytest.raises(SizeGuardExceeded):
                build_Mk(MkParams(5, 2, 10 ** 9, reduce=reduce))

    @pytest.mark.parametrize("pqk,reduce", [
        *((pqk, True) for pqk in ((5, 2, 1), (7, 2, 1), (2, 3, 1), (3, 2, 2),
                                  (5, 2, 2), (7, 2, 2), (3, 2, 3), (5, 2, 3),
                                  (5, 2, 6), (11, 3, 2))),
        *((pqk, False) for pqk in ((5, 2, 1), (7, 2, 1), (2, 3, 1),
                                   (3, 2, 2), (5, 2, 2))),
    ], ids=lambda v: "".join(map(str, v)) if isinstance(v, tuple)
        else ("reduce" if v else "full"))
    def test_against_glued_complexes(self, pqk, reduce):
        """The triangle-list assembly against the chain of glue pushouts:
        the same levels, labels, phi, tau and obstruction, and a size
        guard that refuses one cell short of the complex."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            params = MkParams(*pqk, reduce=reduce)
        ref = oracle_build_Mk(params)
        cells = ref.complex.total_cells()
        b = build_Mk(params, size_guard=cells)
        assert b.complex.simplices == ref.complex.simplices
        assert b.complex.labels == ref.complex.labels
        assert b.phi.vertex_map == ref.phi.vertex_map
        assert b.tau.complex.simplices == ref.tau.complex.simplices
        assert b.obstruction.values == ref.obstruction.values
        with pytest.raises(SizeGuardExceeded):
            build_Mk(params, size_guard=cells - 1)

    def test_one_complex_per_build(self, monkeypatch):
        """M is made by one simplicial_complex call whatever k is: a build
        that makes one complex per gluing step makes more at k = 6."""
        made = []
        from_simplices = CellComplex.from_simplices

        def spy(cls, *args, **kwargs):
            made.append(args)
            return from_simplices(*args, **kwargs)

        monkeypatch.setattr(CellComplex, "from_simplices", classmethod(spy))
        build_Mk(MkParams(5, 2, 1, reduce=True))
        at_k1 = len(made)
        build_Mk(MkParams(5, 2, 6, reduce=True))
        assert len(made) == 2 * at_k1


def collapse_xi(n):
    """xi: [0, n] -> [0, 1], everything below n - 1 to 0, the last edge
    onto the unit edge."""
    return CellMap.from_vertex_map(path_complex(n), path_complex(1),
                                   [0] * n + [1])


class TestCollapseXi:
    """xi kills every edge but the last, which is why the product
    obstruction cocycle is a cross product (see
    ``towers.product_obstruction_cocycle``)."""

    def test_identity_at_one(self):
        xi = collapse_xi(1)
        assert xi.cell_image(1, 0) == {0: 1}

    def test_collapse_three(self):
        xi = collapse_xi(3)
        assert xi.cell_image(1, 0) == {}
        assert xi.cell_image(1, 1) == {}
        assert xi.cell_image(1, 2) == {0: 1}

    def test_fundamental_chain_image(self):
        xi = collapse_xi(4)
        image = xi.chain_image(1, {0: 1, 1: 1, 2: 1, 3: 1})
        assert image == {0: 1}


class TestProductObstruction:
    def test_closed_form_against_product_map_oracle(self):
        """The closed form against the pullback of the unit 3-cocycle of
        triangle x [0, 1] along the oracle's product map q x xi, for n = 1
        to 6: random 2-complexes mapped onto the triangle, and the bundles
        (5,2,1) and (7,2,1) with q = rho . phi."""
        T = filled_triangle()
        mu = fundamental_class(T, 2)
        cases = []
        for seed in range(40):
            rng = random.Random(seed)
            X = simplicial_complex(random_simplices(
                rng, rng.randint(3, 7), 2, rng.randint(1, 6)) + [(0, 1, 2)])
            # the triangle (0, 1, 2) keeps its dimension, with either sign
            vm = rng.sample(range(3), 3) + [
                rng.randrange(3) for _ in range(X.n_cells(0) - 3)]
            q = CellMap.from_vertex_map(X, T, vm)
            cases.append((X, pullback_cochain(q, mu), vm))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for p in (5, 7):
                b = build_Mk(MkParams(p, 2, 1, reduce=True))
                q = simplicial_approx_identity(b.tau).compose(b.phi)
                cases.append((b.complex, b.obstruction, q.vertex_map))
        unit = interval_product(T, 1)
        values = set()
        for X, obstruction, vm in cases:
            q_dicts = oracle_from_vertex_map(X, T, vm)
            values.update(obstruction.values)
            for n in range(1, 7):
                prod = interval_product(X, n)
                xi_dicts = oracle_from_vertex_map(
                    path_complex(n), path_complex(1), [0] * n + [1])
                images = oracle_product_cellmap(prod, unit, q_dicts,
                                                xi_dicts)[3]
                want = [sum(img.values()) for img in images]
                got = product_obstruction_cocycle(obstruction, prod)
                assert got.values == want, (X.counts, n)
        assert values == {-1, 0, 1}


class TestBeta:
    def test_zero_gamma(self, mk521):
        g = Cochain(mk521.complex, 1, RING_Z, [0] * mk521.complex.n_cells(1))
        cert = build_beta(g, 1)
        assert cert.beta.norm() == 0

    def test_telescope_single_edge(self):
        # edge with gamma = 3, n = 6: prisms at 0, 2, 4 get +1 and the
        # total over [0, n] telescopes back to 3
        X = filled_triangle()
        g = Cochain(X, 1, RING_Z, [3, 0, 0])
        cert = build_beta(g, 6)
        prod = cert.product
        marked = [l for l in range(6)
                  if cert.beta.values[prod.prism_cell(2, 0, l)] == 1]
        assert marked == [0, 2, 4]
        total = sum(cert.beta.values[prod.prism_cell(2, 0, l)] for l in range(6))
        assert total == 3

    def test_divisibility_guard(self):
        X = filled_triangle()
        g = Cochain(X, 1, RING_Z, [3, 0, 0])
        with pytest.raises(DivisibilityViolated):
            build_beta(g, 4)

    def test_full_certificate_52_1(self, mk521, gamma521):
        gamma = gamma521.gamma
        n = pick_n(gamma, "lcm")
        cert = build_beta(gamma, n)
        c = product_obstruction_cocycle(mk521.obstruction, cert.product)
        assert coboundary(cert.beta) == c
        assert cert.beta.norm() <= 4

    def test_random_small_gammas_bounded(self, mk521):
        # coboundary of the transported cochain stays |delta gamma| + 3
        rng = random.Random(3)
        X = mk521.complex
        for _ in range(5):
            vals = [rng.choice([-1, 0, 1]) for _ in range(X.n_cells(1))]
            g = Cochain(X, 1, RING_Z, vals)
            n = pick_n(g, "lcm")
            cert = build_beta(g, 2 * n)
            assert cert.beta.norm() <= coboundary(g).norm() + 3

    def test_factorial_mode(self):
        X = filled_triangle()
        g = Cochain(X, 1, RING_Z, [2, -1, 1])
        assert pick_n(g, "factorial") == 2
        assert pick_n(g, "lcm") == 2


class TestTower:
    def test_depth_zero(self, mk521):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            stages = build_tower(MkParams(5, 2, 1, reduce=True), 0)
        assert len(stages) == 1

    def test_depth_bound(self):
        with pytest.raises(InvalidParams):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                build_tower(MkParams(5, 2, 1, reduce=True), 1)

    @pytest.mark.parametrize("depth", [-1, -3])
    def test_negative_depth_refused(self, depth):
        # depth 0 is M_k alone; a tower has no fewer stages
        with pytest.raises(InvalidParams, match="at least one stage"):
            build_tower(MkParams(5, 2, 2, reduce=True), depth)

    def test_stage_builds_no_face_index(self):
        # the hole labels are placed by vertex id and by bisection in the
        # sorted edge level, with no lookup table
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            host, stage = (s.complex for s in build_tower(
                MkParams(5, 2, 2, reduce=True), 1))
        assert stage._simplex_index == [None] * (stage.dim + 1)
        labels = {name: cells for name, cells in stage.labels.items()
                  if name.startswith(("p-hole-", "q-hole-"))}
        assert len(labels) == 2 * host.n_cells(2)
        for cells in labels.values():
            # each label is a hole's rim: a cycle through its own vertices
            verts = {i for k, i in cells if k == 0}
            edges = [stage.simplices[1][i] for k, i in cells if k == 1]
            assert len(edges) == len(verts) >= 3
            assert {v for e in edges for v in e} == verts

    def test_two_stage_tower(self, towers):
        stages = towers[(5, 2, 2)]
        assert len(stages) == 2
        s1 = stages[1]
        carriers = stage_carriers(s1)
        ok, offending = check_stage_carriers(s1, carriers)
        assert ok, offending
        ok2, w = open_star_refinement_witnesses(s1, carriers)
        assert ok2 and all(u is not None for u in w.values())

    def test_impure_host_refused(self, mk521):
        # a dangling edge would be lost: stages are built from triangles
        host = simplicial_complex([(0, 1, 2), (2, 3)])
        with pytest.raises(NotSimplicial, match="the host"):
            replace_faces(host, mk521)


# the two builders that pause the cyclic collector, each on its smallest
# input: a one-stage tower and a one-stage Y segment at (5, 2, 1)
PAUSED_BUILDERS = {
    "tower": lambda **kw: build_tower(MkParams(5, 2, 1, reduce=True), 0, **kw),
    "y-stage": lambda **kw: build_Y_stage(MkParams(5, 2, 1, reduce=True), 1,
                                          **kw),
}


@pytest.fixture
def gc_state():
    """Restores the collector's state after a test that switches it."""
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


class TestCollectorPause:
    @pytest.mark.parametrize("builder", sorted(PAUSED_BUILDERS))
    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_state_restored(self, gc_state, monkeypatch, builder, enabled):
        seen = []

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return build_Mk(*args, **kwargs)

        monkeypatch.setattr("coarse_kit.towers.build_Mk", spy)
        (gc.enable if enabled else gc.disable)()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            PAUSED_BUILDERS[builder]()
        assert seen == [False]
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("builder", sorted(PAUSED_BUILDERS))
    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_state_restored_after_size_guard(self, gc_state, builder,
                                             enabled):
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(SizeGuardExceeded):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                PAUSED_BUILDERS[builder](size_guard=10)
        assert gc.isenabled() is enabled


class TestApproxIdentity:
    def test_midpoint(self):
        sub = midpoint_subdivision(filled_triangle())
        rho = simplicial_approx_identity(sub)
        for v, carrier in enumerate(sub.vertex_carriers):
            assert rho.vertex_map[v] in carrier

    def test_trivial_subdivision(self):
        X = filled_triangle()
        triv = Subdivision(X, X, list(X.simplices[0]))
        rho = simplicial_approx_identity(triv)
        assert rho.vertex_map == [0, 1, 2]

    def test_barycentric(self):
        sub = barycentric_subdivision(filled_triangle())
        rho = simplicial_approx_identity(sub)
        assert rho.target.counts == [3, 3, 1]

    @pytest.mark.parametrize("edit", [lambda c: c[:-1], lambda c: c + c[:1]],
                             ids=["one-short", "one-long"])
    def test_table_of_wrong_length_refused(self, edit):
        sub = midpoint_subdivision(filled_triangle())
        with pytest.raises(NoValidAssignment,
                           match="^[0-9]+ vertex carriers for 6 vertices$"):
            simplicial_approx_identity(Subdivision(
                sub.complex, sub.base, edit(sub.vertex_carriers),
                sub.middle_faces, sub.apexes))


def _subdivisions(X):
    """The barycentric, midpoint and cone subdivisions of X, by kind."""
    mid = midpoint_subdivision_global(X)
    return {"barycentric": barycentric_subdivision(X), "midpoint": mid,
            "cone": cone_middle_subdivision(mid)}


class TestVertexCarriers:
    """The join of the vertex carriers against the carrier table the
    builders once filled cell by cell."""

    @staticmethod
    def assert_join_matches(sub, kind):
        cells = oracle_cell_carriers(sub, kind)
        assert len(cells) == sub.complex.total_cells()
        # each entry is the base simplex's own sorted tuple
        assert sub.vertex_carriers == [
            sub.base.simplices[d][j] for d, j in (
                cells[(0, v)] for v in range(sub.complex.n_cells(0)))]
        for (k, i), (d, j) in cells.items():
            join = simplex_carrier(sub.vertex_carriers,
                                   sub.complex.simplices[k][i])
            assert tuple(sorted(join)) == sub.base.simplices[d][j], (k, i)

    @pytest.mark.parametrize("kind", ["barycentric", "midpoint", "cone"])
    def test_triangle(self, kind):
        self.assert_join_matches(_subdivisions(filled_triangle())[kind],
                                 kind)

    @pytest.mark.parametrize("pqk", [(3, 2, 2), (5, 2, 1), (5, 2, 2)],
                             ids=["322", "521", "522"])
    def test_bundles(self, towers, mk521, pqk):
        X = mk521.complex if pqk == (5, 2, 1) else towers[pqk][0].complex
        for kind, sub in _subdivisions(X).items():
            self.assert_join_matches(sub, kind)

    @pytest.mark.parametrize("pqk", [(3, 2, 2), (5, 2, 2)],
                             ids=["322", "522"])
    def test_tower_stage_tau(self, towers, pqk):
        self.assert_join_matches(towers[pqk][1].tau, "cone")


def _outcome(check, *args):
    """A check's result (a map as its vertex map), or the type of what it
    raised."""
    try:
        result = check(*args)
    except (KeyError, NotSimplicial, NoValidAssignment) as exc:
        return type(exc)
    return result.vertex_map if isinstance(result, CellMap) else result


class TestCarrierOracles:
    """The shared carrier table against the three per-simplex loops it
    replaced, on stage 1 of each tower and on tampered copies: a q vertex
    moved out of its carrier, and a tau vertex carrier pointed at a
    disjoint host face."""

    @pytest.mark.parametrize("pqk", [(3, 2, 2), (5, 2, 2)],
                             ids=["322", "522"])
    def test_checks_match_references(self, towers, pqk):
        stage = towers[pqk][1]
        tau, host = stage.tau, stage.tau.base
        cells = oracle_cell_carriers(tau, "cone")
        rng = random.Random(sum(pqk))

        carriers = stage_carriers(stage)
        ok_c = check_stage_carriers(stage, carriers)
        assert ok_c == (True, None)
        assert ok_c == oracle_check_stage_carriers(stage, cells)
        ost = open_star_refinement_witnesses(stage, carriers)
        assert ost[0]
        assert ost == oracle_open_star_refinement_witnesses(stage, cells)
        approx = _outcome(simplicial_approx_identity, tau)
        assert approx == _outcome(oracle_simplicial_approx_identity, tau,
                                  cells)

        vm_tau, vm_q = stage.tau_map.vertex_map, stage.projection.vertex_map
        for v in rng.sample(range(stage.complex.n_cells(0)), 3):
            outside = set(range(host.n_cells(0))) - set(
                tau.vertex_carriers[vm_tau[v]])
            moved = list(vm_q)
            moved[v] = min(outside)
            q = SimpleNamespace(vertex_map=moved)
            assert check_stage_carriers(stage, carriers, q) == (False, (0, v))
            assert oracle_check_stage_carriers(stage, cells, q) == \
                (False, (0, v))

        for w in rng.sample(sorted(set(vm_tau)), 3):
            old = set(tau.vertex_carriers[w])
            face = next(f for f in host.simplices[2] if not old & set(f))
            vertex_carriers = list(tau.vertex_carriers)
            vertex_carriers[w] = face
            tampered = TowerStage(
                stage.complex, stage.projection, stage.level,
                Subdivision(tau.complex, tau.base, vertex_carriers,
                            tau.middle_faces, tau.apexes),
                stage.tau_map)
            # the per-cell reference with tau vertex w pointed at the face
            tampered_cells = {**cells, (0, w): (2, host.simplices[2].index(
                face))}
            first = (0, vm_tau.index(w))
            assert check_stage_carriers(
                tampered, stage_carriers(tampered)) == (False, first)
            assert oracle_check_stage_carriers(
                tampered, tampered_cells) == (False, first)
            # every simplex at v carries v's own carrier, so a witness
            # is still found at every vertex: the smallest carrier vertex
            ok_o, witnesses = open_star_refinement_witnesses(
                tampered, stage_carriers(tampered))
            assert ok_o and witnesses == {
                v: min(vertex_carriers[x]) for v, x in enumerate(vm_tau)}


class TestPullback:
    def test_identity_chi(self):
        tau = midpoint_subdivision(filled_triangle())
        chi = CellMap.identity(filled_triangle())
        phi = CellMap.identity(tau.complex)
        res = pullback_complex(chi, phi, tau)
        assert res.complex.counts == tau.complex.counts

    def test_two_sheets(self):
        tau = midpoint_subdivision(filled_triangle())
        two = simplicial_complex([(0, 1, 2), (3, 4, 5)])
        chi = CellMap.from_vertex_map(two, filled_triangle(), [0, 1, 2, 0, 1, 2])
        phi = CellMap.identity(tau.complex)
        res = pullback_complex(chi, phi, tau)
        assert res.complex.counts == [2 * c for c in tau.complex.counts]

    def test_square_commutes(self):
        tau = midpoint_subdivision(filled_triangle())
        two = simplicial_complex([(0, 1, 2), (3, 4, 5)])
        chi = CellMap.from_vertex_map(two, filled_triangle(), [0, 1, 2, 0, 1, 2])
        phi = CellMap.identity(tau.complex)
        res = pullback_complex(chi, phi, tau)
        chi_tilde_vm = res.tau_vertex_map
        for k in range(res.complex.dim + 1):
            for i in range(res.complex.n_cells(k)):
                verts = res.complex.simplices[k][i]
                lhs = sorted({phi.vertex_map[res.proj_base.vertex_map[v]]
                              for v in verts})
                rhs = sorted({chi_tilde_vm[res.fiber_vertex_map[v]]
                              for v in verts})
                assert lhs == rhs

    def test_lightness_detected(self):
        from coarse_kit.errors import NotLight

        tau = midpoint_subdivision(filled_triangle())
        degenerate = CellMap.from_vertex_map(
            simplicial_complex([(0, 1)]), filled_triangle(), [0, 0])
        with pytest.raises(NotLight):
            pullback_complex(degenerate, CellMap.identity(tau.complex), tau)

    def test_is_light_matches_vertex_images(self):
        seen = {"light": 0, "not-light": 0, "composed-light": 0,
                "composed-not-light": 0}
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randint(1, 8)
            X = simplicial_complex(random_simplices(rng, n, 3, rng.randint(1, 6)))
            vm, Y = random_vertex_map(rng, X, injective=rng.random() < 0.5)
            f = CellMap.from_vertex_map(X, Y, vm)
            vm2, Z = random_vertex_map(rng, Y, injective=rng.random() < 0.5)
            gf = CellMap.from_vertex_map(Y, Z, vm2).compose(f)
            for prefix, h in (("", f), ("composed-", gf)):
                light = oracle_is_light(h)
                assert is_light(h) == light
                seen[prefix + ("light" if light else "not-light")] += 1
        assert all(count >= 5 for count in seen.values()), seen

    def test_dimension_coloring_light(self):
        sd = barycentric_subdivision(filled_triangle())
        chi = dimension_coloring(sd)
        assert is_light(chi)


def _y_stage_inputs(p):
    """chi, phi and tau of the second Y-stage at (p, 2, 1) in reduce mode,
    as ``build_Y_stage`` makes them."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        b1 = build_Mk(MkParams(p, 2, 1, reduce=True))
        b2 = build_Mk(MkParams(p, 2, 2, reduce=True))
    return dimension_coloring(barycentric_subdivision(b2.complex)), b1.phi, b1.tau


class TestPullbackReference:
    """The fiber product made level by level against the all-pairs
    reference, on the second Y-stage and on impure inputs."""

    @pytest.mark.parametrize("p", [3, 5], ids=["321", "521"])
    def test_y_stage_matches_all_pairs(self, p):
        chi, phi, tau = _y_stage_inputs(p)
        ref, base, fiber, pairs = oracle_pullback_complex(
            chi, phi, tau, DEFAULT_SIZE_GUARD)
        res = pullback_complex(chi, phi, tau)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            stage = build_Y_stage(MkParams(p, 2, 1, reduce=True), 2)[1]
        for P in (res.complex, stage.complex):
            assert P.counts == ref.counts
            assert P.simplices == ref.simplices
            for k in range(1, P.dim + 1):
                assert P.boundary_columns(k) == ref.boundary_columns(k)
        assert dict(zip(zip(base, fiber), range(len(base)))) == pairs
        assert res.proj_base.vertex_map == base
        assert stage.projection.vertex_map == base
        assert res.fiber_vertex_map == fiber
        assert stage.tau_map.vertex_map == [phi.vertex_map[v] for v in base]
        assert cell_images(stage.tau_map) == oracle_from_vertex_map(
            stage.complex, phi.target, [phi.vertex_map[v] for v in base])

    @pytest.mark.parametrize("p", [3, 5], ids=["321", "521"])
    def test_subdivision_matches_per_cell_reference(self, p):
        chi, _, tau = _y_stage_inputs(p)
        tau_M, chi_vm = pullback_subdivision(chi, tau)
        ref, ref_vm = oracle_pullback_subdivision(
            chi, tau, oracle_cell_carriers(tau, "midpoint"))
        assert tau_M.simplices == ref.simplices
        assert chi_vm == ref_vm

    def test_size_guard_counts_every_simplex(self):
        # 108071 simplices in P at (3,2,1), in every dimension
        chi, phi, tau = _y_stage_inputs(3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            params = MkParams(3, 2, 1, reduce=True)
            stages = build_Y_stage(params, 2, size_guard=108071)
            assert stages[1].complex.total_cells() == 108071
            for build in (
                    lambda: build_Y_stage(params, 2, size_guard=108070),
                    lambda: oracle_pullback_complex(chi, phi, tau, 108070)):
                with pytest.raises(SizeGuardExceeded,
                                   match="^pullback exceeds 108070 simplices$"):
                    build()

    def test_impure_inputs_match_all_pairs(self):
        tau = midpoint_subdivision(filled_triangle())
        # a triangle with a dangling edge, light over the triangle and
        # simplicial into tau: impure chi, impure phi, and both
        impure = simplicial_complex([(0, 1, 2), (2, 3)])
        chi = CellMap.from_vertex_map(impure, filled_triangle(), [0, 1, 2, 0])
        phi = CellMap.from_vertex_map(impure, tau.complex, [0, 3, 4, 2])
        cases = [(chi, CellMap.identity(tau.complex), [8, 11, 4]),
                 (CellMap.identity(filled_triangle()), phi, [4, 4, 1]),
                 (chi, phi, [6, 6, 1])]
        for chi_, phi_, counts in cases:
            ref, base, fiber, _ = oracle_pullback_complex(
                chi_, phi_, tau, DEFAULT_SIZE_GUARD)
            res = pullback_complex(chi_, phi_, tau)
            assert res.complex.counts == ref.counts == counts
            assert res.complex.simplices == ref.simplices
            assert res.proj_base.vertex_map == base
            assert res.fiber_vertex_map == fiber


class TestYStages:
    def test_stage_maps_pass_the_vertex_map_checks(self):
        # pullback_complex trusts its base projection; the checked
        # constructor accepts the same vertex maps
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            stages = build_Y_stage(MkParams(5, 2, 1, reduce=True), 2)
        for f in (stages[1].projection, stages[1].tau_map):
            checked = CellMap.from_vertex_map(f.source, f.target, f.vertex_map)
            assert checked.vertex_map == f.vertex_map

    def test_single_stage(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            stages = build_Y_stage(MkParams(3, 2, 1, reduce=True), 1)
        assert len(stages) == 1

    def test_two_stages(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            stages = build_Y_stage(MkParams(3, 2, 1, reduce=True), 2,
                                   size_guard=3_000_000)
        s2 = stages[1]
        assert is_light(s2.projection)
        rho = simplicial_approx_identity(s2.tau)
        q_delta = rho.compose(s2.tau_map)
        ok2, off = check_stage_carriers(s2, stage_carriers(s2), q=q_delta)
        assert ok2, off
