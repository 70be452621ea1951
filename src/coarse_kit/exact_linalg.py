"""Exact integer and rational linear algebra.

Smith normal form with unimodular witnesses is the one elimination routine:
integer solving, kernel lattices, lattice complements and unimodular
inverses are all read off it.  ``verify_snf`` checks its output with a
separate Bareiss determinant, so Smith is not used to verify Smith.  Beside
it sits one exact LP: feasibility of A x = b in an integer box, which hands
back a Farkas vector when the box holds no rational solution.  That vector
is the re-checkable certificate behind every sup-norm lower bound
(``check_lp_lower_bound``, ``check_norm_certificate``).

No floating point anywhere: integers are arbitrary precision, the LP runs on
a sparse tableau of integer rows, each over its own denominator, and values
are Fractions.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import ShapeMismatch, SizeGuardExceeded

DEFAULT_SNF_BUDGET = 4_000_000


def _shape(A):
    m = len(A)
    n = len(A[0]) if m else 0
    for row in A:
        if len(row) != n:
            raise ShapeMismatch("ragged matrix")
    return m, n


def mat_vec(A, x):
    """A x, summed over the nonzero entries of x only."""
    nonzero = [(j, v) for j, v in enumerate(x) if v]
    return [sum(row[j] * v for j, v in nonzero) for row in A]


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _mat_mul(A, B):
    if not A or not B or not B[0]:
        return [[] for _ in A]
    m, n, l = len(A), len(B), len(B[0])
    out = [[0] * l for _ in range(m)]
    for i in range(m):
        Ai = A[i]
        for k in range(n):
            a = Ai[k]
            if a:
                Bk = B[k]
                for j in range(l):
                    out[i][j] += a * Bk[j]
    return out


@dataclass
class SnfDecomposition:
    """U * A * V = D with U, V unimodular and D a divisibility-chain diagonal."""

    U: list
    D: list
    V: list
    rank: int = 0

    def diagonal(self):
        m = len(self.D)
        n = len(self.D[0]) if m else 0
        return [self.D[i][i] for i in range(min(m, n))]


def smith_normal_form(A, size_guard=DEFAULT_SNF_BUDGET):
    """Smith normal form over Z with unimodular factors.

    Pivot rule: smallest nonzero absolute value, ties broken by (row, col).
    Deterministic for a fixed input.
    """
    m, n = _shape(A)
    if m * n > size_guard:
        raise SizeGuardExceeded(f"matrix has {m * n} cells (budget {size_guard})")
    D = [list(map(int, row)) for row in A]
    U = _identity(m)
    V = _identity(n)

    def row_op(i1, i2, q):
        # row i2 -= q * row i1
        Di1, Di2 = D[i1], D[i2]
        for j in range(n):
            Di2[j] -= q * Di1[j]
        Ui1, Ui2 = U[i1], U[i2]
        for j in range(m):
            Ui2[j] -= q * Ui1[j]

    def col_op(j1, j2, q):
        for i in range(m):
            D[i][j2] -= q * D[i][j1]
        for i in range(n):
            V[i][j2] -= q * V[i][j1]

    def row_swap(i1, i2):
        D[i1], D[i2] = D[i2], D[i1]
        U[i1], U[i2] = U[i2], U[i1]

    def col_swap(j1, j2):
        for i in range(m):
            D[i][j1], D[i][j2] = D[i][j2], D[i][j1]
        for i in range(n):
            V[i][j1], V[i][j2] = V[i][j2], V[i][j1]

    def row_negate(i):
        for j in range(n):
            D[i][j] = -D[i][j]
        for j in range(m):
            U[i][j] = -U[i][j]

    t = 0
    while True:
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = D[i][j]
                if v != 0 and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
        if pivot is None:
            break
        i0, j0 = pivot
        row_swap(t, i0)
        col_swap(t, j0)
        if D[t][t] < 0:
            row_negate(t)
        clean = True
        for i in range(t + 1, m):
            if D[i][t] != 0:
                q = D[i][t] // D[t][t]
                row_op(t, i, q)
                if D[i][t] != 0:
                    clean = False
        for j in range(t + 1, n):
            if D[t][j] != 0:
                q = D[t][j] // D[t][t]
                col_op(t, j, q)
                if D[t][j] != 0:
                    clean = False
        if not clean:
            continue  # remainders became new, smaller pivot candidates
        # pivot must divide the rest of the block; otherwise fold a bad row in
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if D[i][j] % D[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_op(bad, t, -1)  # row t += row bad, creates reducible entries
            continue
        t += 1
    rank = t
    return SnfDecomposition(U=U, D=D, V=V, rank=rank)


def verify_snf(A, snf):
    """Exact check of all Smith-form invariants; returns True or raises."""
    m, n = _shape(A)
    if _mat_mul(_mat_mul(snf.U, A), snf.V) != snf.D:
        raise ArithmeticError("U*A*V != D")
    for i in range(m):
        for j in range(n):
            if i != j and snf.D[i][j] != 0:
                raise ArithmeticError("D is not diagonal")
    diag = snf.diagonal()
    for a, b in zip(diag, diag[1:]):
        if a < 0 or (a == 0 and b != 0) or (a > 0 and b % a != 0):
            raise ArithmeticError("diagonal is not a divisibility chain")
    if abs(_det_unimodular(snf.U)) != 1 or abs(_det_unimodular(snf.V)) != 1:
        raise ArithmeticError("U or V is not unimodular")
    return True


def _det_unimodular(M):
    """Determinant by fraction-free Gaussian elimination (Bareiss)."""
    n = len(M)
    if n == 0:
        return 1
    A = [list(row) for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k] != 0), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def kernel_lattice_basis(A, snf=None):
    """Integer basis of the saturated kernel lattice {x in Z^n : A x = 0}.

    Columns of the Smith V factor beyond the rank; returned as a list of
    basis vectors.
    """
    m, n = _shape(A)
    if snf is None:
        snf = smith_normal_form(A)
    rank = snf.rank
    return [[snf.V[i][j] for i in range(n)] for j in range(rank, n)]


def lattice_quotient_complement(K, M):
    """Split a kernel lattice over a sublattice: span(K) = span(M) + free part.

    ``K``: basis vectors of the ambient lattice; ``M``: generating vectors of
    the sublattice (each expressible in K).  Returns (free, divisors) where
    ``free`` are basis vectors of a complement of the saturation and
    ``divisors`` are the nontrivial invariant factors (torsion of the
    quotient; empty when the quotient is free).
    """
    if not K:
        return [], []
    n = len(K[0])
    r = len(K)
    # coordinates of M in the basis K: solve K^T s = M^T columnwise
    KT = [[K[j][i] for j in range(r)] for i in range(n)]
    snf_k = smith_normal_form(KT)
    S = []
    for vec in M:
        res = solve_integer(KT, vec, snf=snf_k)
        if not res:
            raise ArithmeticError("sublattice vector escapes the lattice")
        S.append(res.solution)
    if not S:
        return list(K), []
    Smat = [[S[t][i] for t in range(len(S))] for i in range(r)]
    dec = smith_normal_form(Smat)
    # rows of U^-1 give the adapted basis
    Uinv = _unimodular_inverse(dec.U)
    adapted = [mat_vec(KT, [Uinv[i][t] for i in range(r)]) for t in range(r)]
    diag = dec.diagonal()
    free = [adapted[t] for t in range(len(diag), r)]
    free += [adapted[t] for t in range(len(diag)) if diag[t] == 0]
    torsion = [d for d in diag if d > 1]
    return free, torsion


def _unimodular_inverse(U):
    """Integer inverse of a unimodular matrix, read off its Smith form.

    The factors satisfy W U V = I, so U^-1 = V W.  Raises ArithmeticError
    unless U is square with every invariant factor 1 (determinant +-1).
    """
    m, n = _shape(U)
    if m != n:
        raise ArithmeticError(f"{m}x{n} matrix is not square")
    snf = smith_normal_form(U)
    if any(d != 1 for d in snf.diagonal()):
        raise ArithmeticError("matrix is not unimodular")
    return _mat_mul(snf.V, snf.U)


@dataclass
class IntegerSolveResult:
    """Outcome of solving A x = b over Z."""

    solution: list = None
    obstruction: str = None

    def __bool__(self):
        return self.solution is not None


def solve_integer(A, b, snf=None):
    """Solve A x = b over the integers via Smith normal form.

    Returns an :class:`IntegerSolveResult`; when unsolvable, ``obstruction``
    names the violated divisibility (or inconsistency) condition.
    """
    m, n = _shape(A)
    if len(b) != m:
        raise ShapeMismatch(f"rhs length {len(b)} != {m} rows")
    if snf is None:
        snf = smith_normal_form(A)
    c = mat_vec(snf.U, [int(v) for v in b])
    y = [0] * n
    for i in range(min(m, n)):
        d = snf.D[i][i]
        if d == 0:
            if c[i] != 0:
                return IntegerSolveResult(
                    obstruction=f"row {i}: 0 = {c[i]} is inconsistent")
            continue
        if c[i] % d != 0:
            return IntegerSolveResult(
                obstruction=f"row {i}: {d} does not divide {c[i]}")
        y[i] = c[i] // d
    for i in range(n, m):
        if c[i] != 0:
            return IntegerSolveResult(
                obstruction=f"row {i}: 0 = {c[i]} is inconsistent")
    x = mat_vec(snf.V, y)
    return IntegerSolveResult(solution=x)


# -- exact box LP with Farkas certificates -------------------------------------


def check_lp_lower_bound(A, b, dual, bound):
    """Verify the dual certificate shows min ||x||_inf > bound.

    Needs one entry of y per row of A, ||A^T y||_1 <= 1 and b . y > bound;
    then ||x||_inf >= b.y for every solution of A x = b.  Pure evaluation,
    no search.
    """
    m, n = _shape(A)
    if len(dual) != m:
        return False
    norm1 = sum(abs(g) for g in _mat_t_vec(A, dual, n))
    dot = sum((Fraction(bi) * yi for bi, yi in zip(b, dual) if bi and yi),
              Fraction(0))
    return norm1 <= 1 and dot > bound


def _mat_t_vec(A, y, n):
    """A^T y for an A with n columns, summed over the nonzero terms only."""
    g = [0] * n
    for row, v in zip(A, y):
        if v:
            for j, a in enumerate(row):
                if a:
                    g[j] += a * v
    return g


def _eliminate(row, rhs, den, f, prow, prhs, piv):
    """Subtract f/piv times the pivot row (prow, prhs) from a sparse row
    (row, rhs) over den, where f and piv are the two rows' numerators in the
    entering column: (T piv - f T_l) / (den piv).  Returns (row, rhs, den)
    in lowest terms."""
    new = {j: v * piv for j, v in row.items()}
    for j, v in prow.items():
        t = new.get(j, 0) - f * v
        if t:
            new[j] = t
        else:
            del new[j]
    return _reduce_row(new, rhs * piv - f * prhs, den * piv)


def _reduce_row(row, rhs, den):
    """Lowest terms for a sparse row over its denominator: den > 0 and
    gcd(den, rhs, entries) = 1.  Returns (row, rhs, den)."""
    if den < 0:
        row = {j: -v for j, v in row.items()}
        rhs, den = -rhs, -den
    g = gcd(den, rhs, *row.values())
    if g > 1:
        row = {j: v // g for j, v in row.items()}
        rhs, den = rhs // g, den // g
    return row, rhs, den


def _box_lp(A, b, lo, hi, max_pivots=2_000_000):
    """Exact feasibility of A x = b with lo_j <= x_j <= hi_j (integers).

    Phase-1 bounded-variable simplex on z = x - lo in [0, U_j]; upper bounds
    handled by column substitutions z -> U - z so every nonbasic variable
    sits at zero in the working frame.  The tableau is sparse and rational:
    row i is a dict {column: int} over its own positive denominator, which
    its right-hand side shares, and so is the cost row, whose right-hand
    side is the objective cell; every row is kept in lowest terms.  A pivot
    rewrites only the rows with a nonzero in the entering column (plus the
    pivot and cost rows); every other row is unchanged as a rational.
    Dantzig pricing with ties to the lowest column, then Bland's rule after
    a degeneracy stall; ratio ties go to the lowest basic variable.
    Returns (x, None) with a rational basic solution when feasible, else
    (None, farkas) where farkas . b > sum_j max(g_j lo_j, g_j hi_j) for
    g = A^T farkas, exactly.
    """
    m, n = _shape(A)
    b = [int(v) for v in b]
    if any(lo[j] > hi[j] for j in range(n)):
        raise ShapeMismatch("empty box")
    U = [hi[j] - lo[j] for j in range(n)]
    bp = [b[i] - sum(A[i][j] * lo[j] for j in range(n)) for i in range(m)]
    if n == 0 or all(u == 0 for u in U):
        x = [Fraction(lo[j]) for j in range(n)]
        if mat_vec_fraction(A, x) == [Fraction(v) for v in b]:
            return x, None
        i = next(i for i in range(m) if bp[i] != 0)
        pi = [Fraction(0)] * m
        pi[i] = Fraction(1 if bp[i] > 0 else -1)
        return None, _normalize_farkas(A, b, lo, hi, pi)
    row_sign = [1 if v >= 0 else -1 for v in bp]
    rows = []
    for i in range(m):
        row = {j: row_sign[i] * a for j, a in enumerate(A[i]) if a}
        row[n + i] = 1
        rows.append(row)
    rhs = [row_sign[i] * bp[i] for i in range(m)]
    den = [1] * m
    cost = {}       # canonical phase-1 reduced costs, over dc
    for row in rows:
        for j, a in row.items():
            if j < n:
                cost[j] = cost.get(j, 0) - a
    cost = {j: c for j, c in cost.items() if c}
    obj = -sum(rhs)  # rhs cell of the cost row (= -objective * dc)
    dc = 1
    basis = [n + i for i in range(m)]
    basic_pos = {n + i: i for i in range(m)}
    fixed = {j for j in range(n) if U[j] == 0}
    flipped = [False] * n  # z_j currently substituted as U_j - z_j

    def flip_column(j):
        nonlocal obj
        u = U[j]
        for i, row in enumerate(rows):
            a = row.get(j)
            if a:
                rhs[i] -= u * a
                row[j] = -a
        c = cost.get(j)
        if c:
            obj -= u * c
            cost[j] = -c
        flipped[j] = not flipped[j]

    pivots = 0
    stall = 0
    stall_limit = 20 * (m + n)
    while True:
        pivots += 1
        if pivots > max_pivots:
            raise SizeGuardExceeded("phase-1 pivot budget exhausted")
        # Dantzig rule (most negative reduced cost, lowest column on ties)
        # until a degeneracy stall, then Bland's rule (lowest column with a
        # negative cost) for guaranteed termination
        priced = [(c, j) for j, c in cost.items()
                  if c < 0 and j not in basic_pos and j not in fixed]
        if not priced:
            break
        if stall <= stall_limit:
            enter = min(priced)[1]
        else:
            enter = min(j for _, j in priced)
        cap = U[enter] if enter < n else None
        leave = None
        leave_upper = False
        best = None
        for i, row in enumerate(rows):
            c = row.get(enter)
            if not c:
                continue
            if c > 0:  # basic value decreases toward 0
                cand = Fraction(rhs[i], c)
                upperhit = False
            elif basis[i] < n:  # basic value increases toward its U
                cand = Fraction(U[basis[i]] * den[i] - rhs[i], -c)
                upperhit = True
            else:
                continue
            if best is None or cand < best or (
                cand == best and basis[i] < basis[leave]
            ):
                best, leave, leave_upper = cand, i, upperhit
        if leave is None and cap is None:
            raise ArithmeticError("phase-1 unbounded (cannot happen)")
        if leave is None or (cap is not None and best > cap):
            flip_column(enter)  # entering variable jumps to its other bound
            stall = 0
            continue
        stall = stall + 1 if best == 0 else 0
        out = basis[leave]
        prow, prhs = rows[leave], rhs[leave]
        piv = prow[enter]
        # rows with a zero in the entering column keep their value; the
        # pivot row becomes T_l / piv
        for i, row in enumerate(rows):
            f = row.get(enter)
            if f and i != leave:
                rows[i], rhs[i], den[i] = _eliminate(
                    row, rhs[i], den[i], f, prow, prhs, piv)
        rows[leave], rhs[leave], den[leave] = _reduce_row(prow, prhs, piv)
        cost, obj, dc = _eliminate(cost, obj, dc, cost[enter], prow, prhs, piv)
        basis[leave] = enter
        del basic_pos[out]
        basic_pos[enter] = leave
        if leave_upper and out < n:
            flip_column(out)  # the leaving variable parks at its upper bound

    value = Fraction(-obj, dc)
    if value == 0:
        z = [Fraction(0)] * n
        for i in range(m):
            if basis[i] < n:
                z[basis[i]] = Fraction(rhs[i], den[i])
        for j in range(n):
            if flipped[j]:
                z[j] = U[j] - z[j]
        x = [zj + lo[j] for j, zj in enumerate(z)]
        if mat_vec_fraction(A, x) != [Fraction(v) for v in b]:
            raise ArithmeticError("phase-1 produced an invalid point")
        if any(not lo[j] <= x[j] <= hi[j] for j in range(n)):
            raise ArithmeticError("phase-1 point violates the box")
        return x, None
    # infeasible: Farkas vector from the artificial reduced costs
    y = [1 - Fraction(cost.get(n + i, 0), dc) for i in range(m)]
    pi = [row_sign[i] * y[i] for i in range(m)]
    return None, _normalize_farkas(A, b, lo, hi, pi)


def _normalize_farkas(A, b, lo, hi, pi):
    """Scale a Farkas vector and verify it separates the box exactly."""
    m, n = _shape(A)
    g = _mat_t_vec(A, pi, n)
    cap = sum(max(gj * lo[j], gj * hi[j]) for j, gj in enumerate(g))
    dot = sum(Fraction(b[i]) * pi[i] for i in range(m) if b[i] and pi[i])
    if dot <= cap:
        raise ArithmeticError("phase-1 produced an invalid Farkas certificate")
    norm1 = sum(abs(gj) for gj in g)
    if norm1 > 0:
        pi = [v / norm1 for v in pi]
    return pi


def box_feasibility(A, b, t, max_pivots=2_000_000):
    """Feasibility of A x = b in the symmetric box |x_j| <= t.

    Returns (x, None) when feasible, else (None, farkas) with
    farkas . b > t * ||A^T farkas||_1 and ||A^T farkas||_1 <= 1 — the
    checkable sup-norm lower-bound certificate at bound t.
    """
    m, n = _shape(A)
    return _box_lp(A, b, [-t] * n, [t] * n, max_pivots=max_pivots)


def mat_vec_fraction(A, x):
    """A x over the rationals, summed over the nonzero terms only."""
    return [sum((Fraction(a) * v for a, v in zip(row, x) if a and v),
                Fraction(0)) for row in A]


# -- integer L-infinity certificates -------------------------------------------


@dataclass
class NormCertificate:
    """Exact integer optimum of min ||x||_inf s.t. Ax = b with certificates.

    ``infeasibility_proof`` certifies that no solution exists with norm
    <= optimum - 1: either the LP dual vector (kind "lp-dual", re-checkable
    without search) or the exhausted search log (kind "search-exhausted").
    """

    optimum: int
    witness: list
    infeasibility_proof: dict
    node_count: int
    lp_bound: Fraction = None


def check_norm_certificate(A, b, cert):
    """Re-validate a NormCertificate without re-running any search."""
    m, n = _shape(A)
    if mat_vec(A, cert.witness) != [int(v) for v in b]:
        return False, "witness does not solve the system"
    norm = max((abs(v) for v in cert.witness), default=0)
    if norm != cert.optimum:
        return False, f"witness norm {norm} != claimed optimum {cert.optimum}"
    proof = cert.infeasibility_proof
    if cert.optimum == 0:
        return True, "optimum 0 needs no lower-bound certificate"
    if proof.get("kind") == "lp-dual":
        ok = check_lp_lower_bound(A, b, proof["dual"], cert.optimum - 1)
        return ok, "lp dual certificate " + ("valid" if ok else "INVALID")
    if proof.get("kind") == "search-exhausted":
        return True, "exhausted-search certificate (re-check requires re-search)"
    if proof.get("kind") == "trivial":
        return True, "trivial certificate"
    return False, f"unknown certificate kind {proof.get('kind')!r}"
