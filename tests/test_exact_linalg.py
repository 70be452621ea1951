import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
import sympy
from sympy.polys.domains import ZZ
from sympy.polys.matrices import DomainMatrix

from coarse_kit import cochains
from coarse_kit.errors import NoIntegerSolution, ShapeMismatch, SizeGuardExceeded
from coarse_kit.exact_linalg import (
    _box_lp,
    _unimodular_inverse,
    box_feasibility,
    check_lp_lower_bound,
    lattice_quotient_complement,
    smith_normal_form,
    solve_integer,
)

from coarse_kit.towers import MkParams, build_Mk
from coarse_kit.verify import _relative_system

from oracles import (
    check_norm_certificate,
    densify,
    ilp_min_linf,
    oracle_box_lp,
    oracle_lattice_quotient_complement,
    oracle_min_linf,
    oracle_smith_diagonal,
    oracle_smith_normal_form,
    oracle_solve_integer,
    verify_snf,
)


def random_matrix(rng, m, n, lo=-3, hi=3):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


class TestSmithNormalForm:
    def test_diag_2_3(self):
        snf = smith_normal_form([[2, 0], [0, 3]])
        verify_snf([[2, 0], [0, 3]], snf)
        assert snf.diagonal() == [1, 6]

    def test_zero_matrix(self):
        A = [[0, 0], [0, 0]]
        snf = smith_normal_form(A)
        verify_snf(A, snf)
        assert snf.diagonal() == [0, 0]
        assert snf.rank == 0

    def test_identity(self):
        A = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        snf = smith_normal_form(A)
        verify_snf(A, snf)
        assert snf.diagonal() == [1, 1, 1]

    def test_empty(self):
        snf = smith_normal_form([])
        assert snf.D == []

    def test_deterministic(self):
        rng = random.Random(1)
        A = random_matrix(rng, 5, 7)
        s1 = smith_normal_form(A)
        s2 = smith_normal_form(A)
        assert s1.D == s2.D and s1.U == s2.U and s1.V == s2.V

    def test_random_against_oracle_and_sympy(self):
        rng = random.Random(42)
        for trial in range(30):
            m = rng.randrange(1, 6)
            n = rng.randrange(1, 6)
            A = random_matrix(rng, m, n, -6, 6)
            snf = smith_normal_form(A)
            verify_snf(A, snf)
            mine = [d for d in snf.diagonal() if d != 0]
            oracle = [d for d in oracle_smith_diagonal(A) if d != 0]
            assert mine == oracle, f"trial {trial}: {mine} vs {oracle}"
            dm = DomainMatrix([[ZZ(v) for v in row] for row in A], (m, n), ZZ)
            ref = sympy.polys.matrices.normalforms.smith_normal_form(dm)
            ref_diag = [abs(int(ref[i, i].element)) for i in range(min(m, n))]
            ref_diag = [d for d in ref_diag if d != 0]
            assert mine == ref_diag


def _sparse(A):
    return [{j: v for j, v in enumerate(row) if v} for row in A]


class TestSmithAgainstOracle:
    """The sparse kernel runs the dense routine's pivot rule and operation
    order, so with factors U, D and V agree entry for entry."""

    def _agree(self, A, events=None):
        U, D, V, rank = oracle_smith_normal_form(A, events=events)
        snf = smith_normal_form(A)
        assert (snf.U, snf.D, snf.V, snf.rank) == (U, D, V, rank), A
        if A:
            sparse = smith_normal_form(_sparse(A), ncols=len(A[0]))
            assert (sparse.U, sparse.D, sparse.V) == (U, D, V)
        bare = smith_normal_form(A, factors=False)
        assert (bare.u_rows, bare.v_cols) == (None, None)
        assert bare.diagonal() == snf.diagonal()
        return snf

    def test_random_matrices(self):
        rng = random.Random(71)
        events = set()
        shapes = set()
        for trial in range(600):
            m, n = rng.randrange(0, 8), rng.randrange(0, 8)
            if trial % 10 == 0:
                m = 1
            elif trial % 10 == 1:
                n = 1
            spread = rng.choice([1, 2, 4, 9])
            density = rng.choice([0.2, 0.5, 1.0])
            A = [[rng.randint(-spread, spread) if rng.random() < density else 0
                  for _ in range(n)] for _ in range(m)]
            self._agree(A, events)
            if m == 0:
                shapes.add("empty")
            elif n == 0:
                shapes.add("no-columns")
            if m == 1 and n > 1:
                shapes.add("1xn")
            if n == 1 and m > 1:
                shapes.add("nx1")
            if any(not any(row) for row in A):
                shapes.add("zero-row")
            if m and any(not any(row[j] for row in A) for j in range(n)):
                shapes.add("zero-column")
        assert events == {"non-unit-pivot", "negative-pivot", "non-clean",
                          "bad-row-fold"}
        assert shapes == {"empty", "no-columns", "1xn", "nx1", "zero-row",
                          "zero-column"}

    def test_mk_relative_system(self):
        # the system the minimal-primitive search factors at (5,2,1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bundle = build_Mk(MkParams(5, 2, 1, reduce=True))
        A, _, cols, _ = _relative_system(bundle)
        self._agree(densify(A, len(cols)))

    def test_sparse_rows_need_columns_in_range(self):
        with pytest.raises(ShapeMismatch):
            smith_normal_form([{3: 1}], ncols=2)
        with pytest.raises(ShapeMismatch, match="need ncols"):
            smith_normal_form([{0: 1}])

    def test_size_guard_counts_nonzeros(self):
        A = [[0] * 50 for _ in range(50)]
        A[0][0] = A[1][1] = 2
        assert smith_normal_form(A, size_guard=2).diagonal()[:3] == [2, 2, 0]
        with pytest.raises(SizeGuardExceeded):
            smith_normal_form(A, size_guard=1)


class TestSolveInteger:
    def test_simple_divisible(self):
        res = solve_integer([[2]], [4])
        assert res.solution == [2]

    def test_simple_indivisible(self):
        res = solve_integer([[2]], [3])
        assert not res
        assert "divide" in res.obstruction

    def test_bezout_row(self):
        res = solve_integer([[5, 2]], [1])
        assert res
        x = res.solution
        assert 5 * x[0] + 2 * x[1] == 1

    def test_agrees_with_exhaustive_search(self):
        rng = random.Random(99)
        np_rng = np.random.default_rng(99)
        grid = np.array(
            np.meshgrid(*[np.arange(-3, 4)] * 6, indexing="ij")
        ).reshape(6, -1)
        for trial in range(100):
            A = np_rng.integers(-3, 4, size=(4, 6))
            x_true = np_rng.integers(-3, 4, size=6)
            if trial % 2 == 0:
                b = A @ x_true  # guaranteed solvable
            else:
                b = np_rng.integers(-6, 7, size=4)
            res = solve_integer(A.tolist(), b.tolist())
            hits = np.all(A @ grid == b[:, None], axis=0)
            small_solution_exists = bool(hits.any())
            if res:
                assert (A @ np.array(res.solution, dtype=object) == b).all()
            if small_solution_exists:
                assert res, f"trial {trial}: oracle found a solution, solver did not"


    def test_many_rhs_on_one_factorization(self):
        # the columns of U are derived once and shared by every solve on
        # the factorization: each solve must equal a solve on a fresh
        # factorization and the dense row-by-row solve, obstruction
        # strings included
        rng = random.Random(83)
        seen = set()
        for _ in range(150):
            m, n = rng.randrange(1, 7), rng.randrange(1, 7)
            A = [[rng.choice((0, 0, 1, -1, 2, -3, 4)) for _ in range(n)]
                 for _ in range(m)]
            snf = smith_normal_form(A)
            for _ in range(8):
                if rng.random() < 0.4:
                    x = [rng.randint(-3, 3) for _ in range(n)]
                    b = [sum(a * v for a, v in zip(row, x)) for row in A]
                else:
                    b = [rng.choice((0, 0, 1, -1, 2, 5)) for _ in range(m)]
                shared = solve_integer(A, b, snf=snf)
                fresh = solve_integer(A, b)
                got = (shared.solution, shared.obstruction)
                assert got == (fresh.solution, fresh.obstruction), (A, b)
                assert got == oracle_solve_integer(snf, b), (A, b)
                if shared:
                    assert [sum(a * v for a, v in zip(row, shared.solution))
                            for row in A] == b
                    seen.add("solved")
                else:
                    seen.add(shared.obstruction.split(": ")[1].split()[1])
        assert seen == {"solved", "does", "="}


class TestUnimodularInverse:
    def test_inverse_of_elementary_product(self):
        rng = random.Random(61)
        for n in (1, 2, 3, 5, 8):
            for _ in range(5):
                U = [[int(i == j) for j in range(n)] for i in range(n)]
                for _ in range(6 * n):
                    i, j = rng.randrange(n), rng.randrange(n)
                    if i == j:
                        U[i] = [-v for v in U[i]]
                    elif rng.random() < 0.2:
                        U[i], U[j] = U[j], U[i]
                    else:
                        q = rng.randint(-3, 3)
                        U[i] = [a + q * b for a, b in zip(U[i], U[j])]
                inv = _unimodular_inverse(U)
                assert all(type(v) is int for row in inv for v in row)
                prod = [[sum(inv[i][t] * U[t][j] for t in range(n))
                         for j in range(n)] for i in range(n)]
                assert prod == [[int(i == j) for j in range(n)]
                                for i in range(n)]

    def test_dict_rows_give_the_dense_inverse(self):
        rng = random.Random(67)
        for n in (1, 2, 4, 7):
            for _ in range(5):
                U = [[int(i == j) for j in range(n)] for i in range(n)]
                for _ in range(5 * n):
                    i, j = rng.randrange(n), rng.randrange(n)
                    if i != j:
                        q = rng.randint(-2, 2)
                        U[i] = [a + q * b for a, b in zip(U[i], U[j])]
                rows = [{j: v for j, v in enumerate(row) if v} for row in U]
                assert _unimodular_inverse(rows) == _unimodular_inverse(U)

    @pytest.mark.parametrize("U", [
        [[2]],
        [[1, 2], [2, 4]],
        [[1, 0, 0], [0, 1, 0]],
        [[1, 0], [0, 1], [1, 1]],
        [{0: 1, 2: 1}, {1: 1}],
        [{0: 2}],
    ], ids=["det-2", "singular", "non-square", "tall", "dict-non-square",
            "dict-det-2"])
    def test_non_unimodular_raises(self, U):
        with pytest.raises(ArithmeticError):
            _unimodular_inverse(U)


class TestBoxFeasibility:
    def test_feasible_box_returns_point(self):
        x, farkas = box_feasibility([[5, 2]], [1], 1)
        assert farkas is None
        assert 5 * x[0] + 2 * x[1] == 1 and max(abs(v) for v in x) <= 1

    def test_farkas_certifies_bezout_row(self):
        x, farkas = box_feasibility([[5, 2]], [1], 0)
        assert x is None
        assert farkas == [Fraction(1, 7)]
        assert check_lp_lower_bound([[5, 2]], [1], farkas, Fraction(1, 8))

    def test_doubled_farkas_fails(self):
        # ||A^T y||_1 = 2 > 1: the dual no longer bounds the sup-norm
        dual = [Fraction(2, 7)]
        assert not check_lp_lower_bound([[5, 2]], [1], dual, Fraction(1, 8))

    def test_dual_of_wrong_length_fails(self):
        for dual in ([], [Fraction(1, 7), 0]):
            assert not check_lp_lower_bound([[5, 2]], [1], dual, 0)
            assert not check_lp_lower_bound([{0: 5, 1: 2}], [1], dual, 0,
                                            ncols=2)


class TestLatticeQuotientComplement:
    """Sparse rows against the dense routine they replaced: the factored
    Smith forms are equal, so the free vectors and torsion must be too."""

    def test_random_lattices(self):
        rng = random.Random(37)
        seen = set()
        for _ in range(300):
            n = rng.randrange(1, 7)
            r = rng.randrange(1, n + 1)
            K = [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(n)]
                 for _ in range(r)]
            if smith_normal_form(K).rank < r:
                continue  # the vectors of K must be a basis
            kind = rng.random()
            if kind < 0.15:
                M = []
            elif kind < 0.3:
                # K itself, shuffled with extra combinations: M spans K
                M = [list(vec) for vec in K] + [
                    [a + b for a, b in zip(K[0], K[-1])]]
                rng.shuffle(M)
            else:
                M = []
                for _ in range(rng.randrange(1, r + 2)):
                    coeffs = [rng.choice((0, 0, 1, -1, 2, 3)) for _ in K]
                    scale = rng.choice((1, 1, 2, 3))
                    M.append([scale * sum(c * vec[i]
                                          for c, vec in zip(coeffs, K))
                              for i in range(n)])
            free, torsion = lattice_quotient_complement(K, M)
            assert (free, torsion) == oracle_lattice_quotient_complement(K, M)
            if not M:
                seen.add("empty M")
            elif not free and not torsion:
                seen.add("M spans K")
            if torsion:
                seen.add("torsion")
            if free and M:
                seen.add("free part")
        assert seen == {"empty M", "M spans K", "torsion", "free part"}

    @pytest.mark.parametrize("pqk", [(5, 2, 1), (7, 2, 1), (5, 2, 2)],
                             ids=["521", "721", "522"])
    def test_mk_systems(self, monkeypatch, pqk):
        # the two lattices the minimal-primitive search splits: the
        # cocycles over the coboundaries, and the cycles over the
        # boundaries of relative faces
        seen = []

        def recording(K, M):
            seen.append((K, M))
            return lattice_quotient_complement(K, M)

        monkeypatch.setattr(cochains, "lattice_quotient_complement",
                            recording)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bundle = build_Mk(MkParams(*pqk, reduce=True))
        cochains.min_norm_primitive(bundle.obstruction,
                                    vanishing_on=bundle.boundary_label)
        assert len(seen) == 2
        for K, M in seen:
            assert lattice_quotient_complement(K, M) == \
                oracle_lattice_quotient_complement(K, densify(M, len(K[0])))


def _outcome(lp, *args, **kwargs):
    """(x, farkas) from an LP, or the type of the exception it raised."""
    try:
        return lp(*args, **kwargs)
    except Exception as exc:  # the exception type is what is compared
        return type(exc)


def _random_box(rng):
    """A small box LP with the shapes that stress a simplex: zero-width
    columns, zero and duplicate rows, right-hand sides at a box vertex or
    zero (degenerate), random ones (often infeasible) and empty boxes.
    Returns (A, b, lo, hi, tags)."""
    m = rng.randrange(0, 6)
    n = rng.randrange(1, 8) if m else 0
    A = [[rng.choice((0, 0, 0, 1, -1, 2, -2, 3, -5)) for _ in range(n)]
         for _ in range(m)]
    tags = set()
    if m and rng.random() < 0.2:
        A[rng.randrange(m)] = [0] * n
    if m > 1 and rng.random() < 0.2:
        A[rng.randrange(m)] = list(A[rng.randrange(m)])
    lo = [rng.randint(-3, 2) for _ in range(n)]
    hi = [v + rng.choice((0, 0, 1, 2, 5)) for v in lo]
    if n and rng.random() < 0.01:
        hi[rng.randrange(n)] -= 100
        tags.add("empty box")
    kind = rng.random()
    if kind < 0.4:
        x = [rng.choice((lo[j], hi[j])) for j in range(n)]
        b = [sum(a * v for a, v in zip(row, x)) for row in A]
    elif kind < 0.55:
        b = [0] * m
    else:
        b = [rng.randint(-8, 8) for _ in range(m)]
    if any(not any(row) for row in A):
        tags.add("zero row")
    if len({tuple(row) for row in A if any(row)}) < sum(map(any, A)):
        tags.add("duplicate row")
    if any(u == v for u, v in zip(lo, hi)):
        tags.add("zero-width column")
    if m and not any(b):
        tags.add("zero rhs")
    return A, b, lo, hi, tags


class TestBoxLpAgainstDense:
    """The sparse tableau against the fraction-free dense one it replaced:
    the same points, the same Farkas vectors, the same exceptions."""

    def test_random_boxes(self):
        rng = random.Random(5)
        seen = set()
        for _ in range(2000):
            A, b, lo, hi, tags = _random_box(rng)
            got = _outcome(_box_lp, A, b, lo, hi)
            assert got == _outcome(oracle_box_lp, A, b, lo, hi), (A, b, lo, hi)
            # the same LP as dict rows, and a symmetric box of it
            rows, n = _sparse(A), len(lo)
            assert _outcome(_box_lp, rows, b, lo, hi, ncols=n) == got
            t = abs(lo[0]) if n else 0
            assert _outcome(box_feasibility, rows, b, t, ncols=n) == \
                _outcome(box_feasibility, A, b, t)
            seen |= tags
            if isinstance(got, tuple):
                seen.add("feasible" if got[1] is None else "infeasible")
        assert seen >= {"zero row", "duplicate row", "zero-width column",
                        "zero rhs", "empty box", "feasible", "infeasible"}

    @pytest.mark.parametrize("pqk, m_k", [
        ((5, 2, 1), 1), ((7, 2, 1), 2), ((2, 3, 1), 1), ((3, 2, 2), 3),
    ], ids=["521", "721", "231", "322"])
    def test_mk_systems_every_bound(self, pqk, m_k):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bundle = build_Mk(MkParams(*pqk, reduce=True))
        rows, b, cols, _ = _relative_system(bundle)
        n = len(cols)
        A = densify(rows, n)
        for t in range(m_k):
            lo, hi = [-t] * n, [t] * n
            out = _box_lp(A, b, lo, hi)
            assert out == oracle_box_lp(A, b, lo, hi)
            assert _box_lp(rows, b, lo, hi, ncols=n) == out
            assert box_feasibility(rows, b, t, ncols=n) == \
                box_feasibility(A, b, t) == out


def _mk_point(monkeypatch, pqk):
    """The relative system (rows, b, column count) of M(p, q, k) --reduce,
    and the point its minimal-primitive search hands the LP probe (None if
    the cut loop found none)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bundle = build_Mk(MkParams(*pqk, reduce=True))
    points = []
    probe = cochains.box_feasibility
    monkeypatch.setattr(cochains, "box_feasibility", lambda *args, **kwargs:
                        points.append(kwargs["point"]) or
                        probe(*args, **kwargs))
    cochains.min_norm_primitive(bundle.obstruction,
                                vanishing_on=bundle.boundary_label)
    rows, b, cols, _ = _relative_system(bundle)
    return rows, b, len(cols), points[0]


class TestCutLoop:
    """The cut loop finds the LP probe's point on the potentials, and
    box_feasibility checks a given point instead of pivoting."""

    @pytest.mark.parametrize("pqk, m_k", [
        ((5, 2, 1), 1), ((7, 2, 1), 2), ((2, 3, 1), 1), ((3, 2, 2), 3),
        ((5, 2, 2), 6),
    ], ids=["521", "721", "231", "322", "522"])
    def test_mk_systems_every_bound(self, monkeypatch, pqk, m_k):
        # the loop runs at m_k - 1 only, and has a point there exactly when
        # the simplex does; at a lower bound with no LP point, the box
        # refuses it
        rows, b, n, point = _mk_point(monkeypatch, pqk)
        A = densify(rows, n)
        for t in range(m_k):
            x, farkas = _box_lp(A, b, [-t] * n, [t] * n)
            assert _box_lp(rows, b, [-t] * n, [t] * n, ncols=n) == \
                (x, farkas)
            if t == m_k - 1:
                assert (point is None) == (x is None)
                if point is not None:
                    assert box_feasibility(A, b, t, point=point) == \
                        box_feasibility(rows, b, t, point=point, ncols=n) \
                        == (point, None)
            elif point is not None and x is None:
                with pytest.raises(ArithmeticError, match="violates the box"):
                    box_feasibility(rows, b, t, point=point, ncols=n)

    def test_given_point_returned_unchanged(self):
        point = [Fraction(1, 5), Fraction(0)]
        x, farkas = box_feasibility([[5, 2]], [1], 1, point=point)
        assert x is point and farkas is None

    @pytest.mark.parametrize("point, reason", [
        ([Fraction(1, 5), Fraction(1, 2)], "does not solve"),
        ([Fraction(1, 5)], "does not solve"),
        ([Fraction(1), Fraction(-2)], "violates the box"),
    ], ids=["off-the-system", "too-short", "outside-the-box"])
    def test_bad_point_raises(self, point, reason):
        with pytest.raises(ArithmeticError, match=reason):
            box_feasibility([[5, 2]], [1], 1, point=point)


class TestBoxFeasibilityInPlace:
    """The tableau rows are rewritten in place: they must be the LP's own
    copies, so A and b are left as they were and a second call returns the
    same point or the same Farkas vector."""

    def _twice(self, A, b, t, ncols=None):
        A0, b0 = [type(row)(row) for row in A], list(b)
        first = box_feasibility(A, b, t, ncols=ncols)
        assert (A, b) == (A0, b0)
        assert box_feasibility(A, b, t, ncols=ncols) == first
        assert (A, b) == (A0, b0)
        return first

    def test_random_boxes(self):
        rng = random.Random(13)
        seen = set()
        for _ in range(400):
            A, b, _, _, _ = _random_box(rng)
            x, _ = self._twice(A, b, rng.randint(0, 3))
            seen.add("feasible" if x is not None else "infeasible")
        assert seen == {"feasible", "infeasible"}

    @pytest.mark.parametrize("pqk, t, certified", [
        ((5, 2, 1), 0, True), ((2, 3, 1), 0, True), ((7, 2, 1), 1, False),
        ((5, 2, 2), 5, False),
    ], ids=["521", "231", "721", "522"])
    def test_mk_probe(self, pqk, t, certified):
        # the certify probe at m_k - 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bundle = build_Mk(MkParams(*pqk, reduce=True))
        A, b, cols, _ = _relative_system(bundle)
        x, farkas = self._twice(A, b, t, ncols=len(cols))
        assert (farkas is not None) == certified


class TestIlpMinLinf:
    def test_bezout_row(self):
        cert = ilp_min_linf([[5, 2]], [1])
        assert cert.optimum == 2
        assert cert.witness == [1, -2]
        ok, msg = check_norm_certificate([[5, 2]], [1], cert)
        assert ok, msg

    def test_two_ones(self):
        cert = ilp_min_linf([[1, 1]], [2])
        assert cert.optimum == 1
        assert cert.witness == [1, 1]

    def test_no_solution(self):
        with pytest.raises(NoIntegerSolution):
            ilp_min_linf([[2]], [3])

    def test_zero_rhs(self):
        cert = ilp_min_linf([[3, 1], [0, 2]], [0, 0])
        assert cert.optimum == 0 and cert.witness == [0, 0]

    def test_optimum_at_least_lp_ceiling(self):
        rng = random.Random(17)
        for _ in range(20):
            m, n = rng.randrange(1, 4), rng.randrange(2, 6)
            A = random_matrix(rng, m, n)
            x = [rng.randint(-2, 2) for _ in range(n)]
            b = [sum(A[i][j] * x[j] for j in range(n)) for i in range(m)]
            cert = ilp_min_linf(A, b)
            assert cert.optimum >= cert.lp_bound
            assert cert.optimum <= max((abs(v) for v in x), default=0)

    def test_matches_bruteforce(self):
        rng = random.Random(23)
        done = 0
        while done < 25:
            m, n = rng.randrange(1, 4), rng.randrange(2, 6)
            A = random_matrix(rng, m, n, -2, 2)
            x = [rng.randint(-2, 2) for _ in range(n)]
            b = [sum(A[i][j] * x[j] for j in range(n)) for i in range(m)]
            oracle = oracle_min_linf(A, b, max_bound=3)
            if oracle is None:
                continue
            cert = ilp_min_linf(A, b)
            assert cert.optimum == oracle[0], f"{A} {b}"
            ok, msg = check_norm_certificate(A, b, cert)
            assert ok, msg
            done += 1

    def test_matches_bruteforce_eight_vars(self):
        # up to 8 variables with optimum <= 3
        rng = random.Random(29)
        done = 0
        while done < 8:
            m, n = rng.randrange(2, 5), 8
            A = random_matrix(rng, m, n, -2, 2)
            x = [rng.randint(-2, 2) for _ in range(n)]
            b = [sum(A[i][j] * x[j] for j in range(n)) for i in range(m)]
            oracle = oracle_min_linf(A, b, max_bound=3)
            if oracle is None or oracle[0] > 3:
                continue
            cert = ilp_min_linf(A, b)
            assert cert.optimum == oracle[0], f"{A} {b}"
            done += 1

    def test_witness_deterministic(self):
        certs = [ilp_min_linf([[1, 1, 0], [0, 0, 1]], [0, 2]) for _ in range(3)]
        assert all(c.optimum == 2 for c in certs)
        assert certs[0].witness == certs[1].witness == certs[2].witness
        assert max(abs(v) for v in certs[0].witness) == 2
