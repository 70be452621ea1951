"""Acceptance criteria, one test per criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion; each line carries the measured runtime against the budget.
"""

import hashlib
import random
import time
import warnings
from fractions import Fraction

import pytest

from coarse_kit import (
    CellMap,
    annulus_triangulation,
    circle,
    coarsening_cylinder,
    filled_triangle,
    fundamental_cycle,
    glue,
    interval_product,
    mapping_cylinder,
    simplicial_complex,
    subcomplex_matching,
)
from coarse_kit.cochains import min_norm_primitive, relative_coboundary_matrix
from coarse_kit.complexes import _subcomplex_cells, midpoint_subdivision
from coarse_kit.constructions import remove_cells
from coarse_kit.homology import cohomology, exactness_check
from coarse_kit.rings import ring_zp
from coarse_kit.degrees import DegreeReport, bezout, check_degree_relation, circle_map_degree
from coarse_kit.exact_linalg import solve_integer
from coarse_kit.metric_nerve import (
    CoverSpec,
    canonical_projection,
    multiplicity,
    nerve,
    open_star_cover,
)
from coarse_kit.cochains import coboundary
from coarse_kit.towers import (
    MkParams,
    build_Mk,
    build_beta,
    build_tower,
    pick_n,
    product_obstruction_cocycle,
    pullback_complex,
)
from coarse_kit.report import VerificationReport
from coarse_kit.records import _add_stage_records

from oracles import (
    densify,
    ilp_min_linf,
    oracle_cohomology_mod_p,
    oracle_complex_homology,
    oracle_min_linf,
)

TRIPLES = [(5, 2, 1), (5, 2, 2), (7, 2, 1)]
# sha256 of the comma-joined values of the (5,2,2) minimal primitive, the
# witness the cut loop picks on the lattice of the Smith factors
PRIMITIVE_522_VALUES = \
    "1756dadc1f0bdc0cbe22c6c995bb6423dad5e055db8825dae798cb0a687d12c4"


def _criterion(num, name, ok, started, budget, detail=""):
    elapsed = time.time() - started
    status = "PASS" if (ok and elapsed < budget) else "FAIL"
    extra = f" ({detail})" if detail else ""
    line = (f"[criterion {num:02d}] {status} {name}{extra} "
            f"[{elapsed:.1f}s / budget {budget:.0f}s]")
    print(line)
    assert ok, line
    assert elapsed < budget, line


@pytest.fixture(scope="module")
def bundles():
    # building all three is ~0.2 s; every criterion that uses them re-checks
    # within its own budget
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for t in TRIPLES:
            out[t] = build_Mk(MkParams(*t, reduce=True))
    return out


def _build_tower_522():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_tower(MkParams(5, 2, 2, reduce=True), depth=1)


def _validate(X):
    """Exact boundary-squared check, independent of construction paths."""
    for k in range(2, X.dim + 1):
        for j in range(X.n_cells(k)):
            acc = {}
            for r, c in X.boundary_of(k, j).items():
                for r2, c2 in X.boundary_of(k - 1, r).items():
                    acc[r2] = acc.get(r2, 0) + c * c2
            if any(v != 0 for v in acc.values()):
                return False
    return True


def _mini_two_hole():
    """A shrunken winding instance with at most 30 edges."""
    tau = midpoint_subdivision(filled_triangle())
    D = remove_cells(tau.complex, tau.complex.label_cells("middle"))
    A, _ = annulus_triangulation(6, 3)
    g_order = [v for v in range(6, 9)]  # target rim of the annulus
    from coarse_kit.complexes import cycle_vertices_of_label

    d_order = cycle_vertices_of_label(D, "middle-boundary")
    a_order = cycle_vertices_of_label(A, "target-rim")
    vm = {a_order[t]: d_order[t] for t in range(3)}
    matching = subcomplex_matching(D, "middle-boundary", A, "target-rim", vm)
    Z = glue(D, A, matching)
    return Z


def test_criterion_01_chain_complex_validity(bundles):
    t0 = time.time()
    built = [circle(3), circle(6), annulus_triangulation(6, 3)[0],
             coarsening_cylinder(6, 3)[0],
             mapping_cylinder(CellMap.from_vertex_map(
                 circle(6), circle(3), [j % 3 for j in range(6)]))[0],
             interval_product(circle(3), 2).complex,
             interval_product(filled_triangle(), 3).complex]
    built += [b.complex for b in bundles.values()]
    built += [s.complex for s in _build_tower_522()]
    tau = midpoint_subdivision(filled_triangle())
    two = simplicial_complex([(0, 1, 2), (3, 4, 5)])
    chi = CellMap.from_vertex_map(two, filled_triangle(), [0, 1, 2, 0, 1, 2])
    pb = pullback_complex(chi, CellMap.identity(tau.complex), tau)
    built.append(pb.complex)
    ok = all(_validate(X) for X in built)
    _criterion(1, "boundary squared vanishes on the full build matrix", ok,
               t0, 10, f"{len(built)} complexes")


def test_criterion_02_mk_homology(bundles):
    t0 = time.time()
    ok = True
    for t in TRIPLES:
        M = bundles[t].complex
        ok = ok and oracle_complex_homology(M, 0) == (1, [])
        ok = ok and oracle_complex_homology(M, 1) == (2, [])
        ok = ok and oracle_complex_homology(M, 2) == (0, [])
    _criterion(2, "M_k homology is (Z, Z^2, 0) via the dense Smith oracle",
               ok, t0, 30)


def test_criterion_03_obstruction_solvable(bundles):
    t0 = time.time()
    ok = True
    for t in TRIPLES:
        b = bundles[t]
        M = b.complex
        A0, cols0, rows0 = relative_coboundary_matrix(M, set(), 1)
        ok = ok and bool(solve_integer(
            densify(A0, len(cols0)), [b.obstruction.values[j] for j in rows0]))
        A_cells = _subcomplex_cells(M, "boundary")
        A1, cols1, rows1 = relative_coboundary_matrix(M, A_cells, 1)
        ok = ok and bool(solve_integer(
            densify(A1, len(cols1)), [b.obstruction.values[j] for j in rows1]))
    _criterion(3, "retraction obstruction has integer primitives", ok, t0, 30)


def test_criterion_04_norm_growth_and_bruteforce(bundles):
    t0 = time.time()
    ok = True
    values = {}
    for (p, q, k) in [(5, 2, 1), (5, 2, 2)]:
        prim = min_norm_primitive(
            bundles[(p, q, k)].obstruction, vanishing_on="boundary",
            node_limit=10_000_000)
        m = prim.certificate.optimum
        values[(p, q, k)] = m
        ok = ok and m >= q ** k - 1
        if (p, q, k) == (5, 2, 2):
            digest = hashlib.sha256(
                ",".join(map(str, prim.gamma.values)).encode()).hexdigest()
            ok = ok and digest == PRIMITIVE_522_VALUES
    # shrunken instance, compared against complete enumeration
    mini = _mini_two_hole()
    edges = mini.n_cells(1)
    ok = ok and edges <= 30
    hole_edges = mini.label_cells_of_dim("domain-rim", 1)
    boundary_cells = [c for c in mini.label_cells("boundary")]
    A_cells = _subcomplex_cells(mini, boundary_cells)
    mat, cols, rows = relative_coboundary_matrix(mini, A_cells, 1)
    mat = densify(mat, len(cols))
    # vortex cocycle on the one face carrying the subdivided corner
    from coarse_kit.cochains import Cochain, RING_Z
    c_vals = [0] * mini.n_cells(2)
    c_vals[0] = 1
    c = Cochain(mini, 2, RING_Z, c_vals)
    prim = min_norm_primitive(c, vanishing_on=boundary_cells)
    rhs = [c.values[j] for j in rows]
    oracle = oracle_min_linf(mat, rhs, max_bound=prim.certificate.optimum + 1)
    ok = ok and oracle is not None and oracle[0] == prim.certificate.optimum
    generic = ilp_min_linf(mat, rhs)
    ok = ok and generic.optimum == prim.certificate.optimum
    _criterion(4, "exact minimal norms meet q^k - 1 and the brute force",
               ok, t0, 600,
               f"m={values}, mini optimum {prim.certificate.optimum} on "
               f"{edges} edges")


def test_criterion_05_beta_certificate(bundles):
    t0 = time.time()
    b = bundles[(5, 2, 1)]
    gamma = min_norm_primitive(b.obstruction, vanishing_on="boundary").gamma
    n = pick_n(gamma, "lcm")
    cert = build_beta(gamma, n)
    target = product_obstruction_cocycle(b.obstruction, cert.product)
    ok = coboundary(cert.beta) == target and cert.beta.norm() <= 4
    _criterion(5, "product primitive matches the pulled-back cocycle, norm <= 4",
               ok, t0, 60, f"n={n}, norm={cert.beta.norm()}")


def test_criterion_06_bezout_bound():
    t0 = time.time()
    primes = [2, 3, 5, 7, 11, 13]
    ok = True
    for p in primes:
        for q in primes:
            if p == q:
                continue
            for k in (1, 2, 3):
                P, Q = p ** k, q ** k
                n, m = bezout(p, q, k)
                ok = ok and n * P + m * Q == 1
                ok = ok and Fraction(abs(m)) >= Fraction(P - 1, Q)
                best = min(abs(mm) for mm in range(-P, P + 1)
                           if mm != 0 and (1 - mm * Q) % P == 0)
                ok = ok and abs(m) == best
    ok = ok and abs(bezout(5, 2, 2)[1]) == 6
    _criterion(6, "minimal Bezout coefficients meet (p^k-1)/q^k exactly",
               ok, t0, 5)


def test_criterion_07_degree_relation():
    t0 = time.time()
    rng = random.Random(101)
    ok = True
    for _ in range(60):
        p, q = 5, 2
        k = rng.choice([1, 2])
        n, m = bezout(p, q, k)
        d = rng.randint(1, 3)
        t = rng.randint(-3, 3)
        rep = DegreeReport(p=p, q=q, k=k, d_p=d * (n + t * q ** k),
                           d_q=d * (m - t * p ** k), d=d)
        good, _ = check_degree_relation(rep)
        ok = ok and good
    # multiplicativity over 50 random tower composites
    for _ in range(50):
        base = rng.choice([3, 4])
        mid = base * rng.choice([2, 3])
        top = mid * rng.choice([2, 3])
        f = CellMap.from_vertex_map(circle(top), circle(mid),
                                    [j % mid for j in range(top)])
        g = CellMap.from_vertex_map(circle(mid), circle(base),
                                    [j % base for j in range(mid)])
        comp = g.compose(f)
        d1 = circle_map_degree(f, fundamental_cycle(f.source),
                               fundamental_cycle(f.target))
        d2 = circle_map_degree(g, fundamental_cycle(g.source),
                               fundamental_cycle(g.target))
        dd = circle_map_degree(comp, fundamental_cycle(f.source),
                               fundamental_cycle(g.target))
        ok = ok and dd == d1 * d2
    _criterion(7, "degree relation and composite multiplicativity", ok, t0, 10)


def _random_cover(rng, n):
    sets = []
    for _ in range(rng.randrange(2, 5)):
        size = rng.randrange(1, n)
        start = rng.randrange(n)
        sets.append({(start + t) % n for t in range(size)})
    covered = set().union(*sets)
    if covered != set(range(n)):
        sets.append(set(range(n)) - covered)
    return sets


def test_criterion_08_nerve_identities():
    t0 = time.time()
    rng = random.Random(103)
    ok = True
    for _ in range(100):
        C = circle(rng.randrange(4, 10))
        cov = CoverSpec(carrier=C, sets=_random_cover(rng, C.n_cells(0)))
        ok = ok and nerve(cov).dim + 1 == multiplicity(cov)
    smalls = [circle(4), circle(5), circle(6), circle(7), filled_triangle(),
              simplicial_complex([(0, 1, 2), (1, 2, 3)]),
              simplicial_complex([(0, 1, 2), (2, 3, 4)]),
              simplicial_complex([(0, 1, 2), (1, 2, 3), (3, 4)]),
              simplicial_complex([(0, 1), (1, 2), (2, 3)]),
              simplicial_complex([(0, 1, 2), (0, 2, 3), (0, 1, 3), (1, 2, 3)])]
    for X in smalls:
        N = nerve(open_star_cover(X))
        ok = ok and N.counts == X.counts
        ok = ok and all(sorted(N.simplices[k]) == sorted(X.simplices[k])
                        for k in range(X.dim + 1))
    done = 0
    while done < 200:
        C = circle(rng.randrange(4, 10))
        cov = CoverSpec(carrier=C, sets=_random_cover(rng, C.n_cells(0)))
        v = rng.randrange(C.n_cells(0))
        w = canonical_projection(cov, v)
        ok = ok and sum(w) == 1 and all(x >= 0 for x in w)
        done += 1
    _criterion(8, "nerve dimension, open-star identity, projection weights",
               ok, t0, 30)


def test_criterion_09_tower_regularity():
    # the stage records verify-tower writes and check-witness recomputes
    t0 = time.time()
    report = VerificationReport(command="verify-tower", params={})
    _add_stage_records(report, MkParams(5, 2, 2, reduce=True), 2)
    records = {r["name"]: r for r in report.records}
    ok = list(records) == [
        "stage-1-lipschitz", "stage-1-carrier-containment",
        "stage-1-star-refinement"]
    ok = ok and all(r["status"] == "PASS" for r in records.values())
    _criterion(9, "two-stage tower regularity at (5,2,2)", ok, t0, 120,
               "stage-1 cells "
               f"{records['stage-1-lipschitz']['values']['cells']}")


def test_criterion_10_zp_coincidence():
    t0 = time.time()
    rng = random.Random(107)
    ok = True
    for _ in range(20):
        n = rng.randrange(4, 8)
        tris = sorted({tuple(sorted(rng.sample(range(n), 3)))
                       for _ in range(rng.randrange(1, 5))})
        X = simplicial_complex(tris)
        p = rng.choice([2, 3, 5])
        for k in range(X.dim + 1):
            ok = ok and cohomology(X, k, ring_zp(p)).free_rank == \
                oracle_cohomology_mod_p(X, k, p)
    _criterion(10, "mod-p cohomology equals the GF(p) elimination oracle",
               ok, t0, 30)


def test_criterion_11_pair_exactness(bundles):
    t0 = time.time()
    rng = random.Random(109)
    ok = True
    done = 0
    while done < 20:
        n = rng.randrange(4, 8)
        tris = sorted({tuple(sorted(rng.sample(range(n), 3)))
                       for _ in range(rng.randrange(1, 5))})
        X = simplicial_complex(tris)
        closed = set()
        for k in range(X.dim + 1):
            for i in range(X.n_cells(k)):
                if rng.random() < 0.3:
                    closed.add((k, i))
        changed = True
        while changed:
            changed = False
            for (k, i) in list(closed):
                for r in X.boundary_of(k, i):
                    if (k - 1, r) not in closed:
                        closed.add((k - 1, r))
                        changed = True
        lbl = X.relabeled({"sub": sorted(closed)})
        good, _ = exactness_check(lbl, "sub")
        ok = ok and good
        done += 1
    good, report = exactness_check(bundles[(5, 2, 1)].complex, "boundary")
    ok = ok and good
    _criterion(11, "pair sequence rank-exact on random pairs and (M_1, bdry)",
               ok, t0, 60)
