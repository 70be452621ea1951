"""Exact integer and rational linear algebra.

Every matrix here is a list of sparse {column: int} rows, the form the
complexes store their boundaries in; each entry point also takes dense rows
(tests pass them), which ``_sparse_rows`` converts, and dict rows come with
``ncols``, their column count.  Smith normal form is the one elimination
routine.  It builds the unimodular factors U and V only
for callers that read them: integer solving, kernel lattices, lattice
complements and unimodular inverses are read off the factors, in a fixed
pivot order; cohomology reads only the invariant factors, which any pivot
order gives, so it takes unit pivots from the shortest rows first.  A solve
sums U b over the columns of U that b's nonzeros pick, and the lattice
complement hands Smith sparse rows.
The tests check the output against independent oracles (``verify_snf``
in ``tests/oracles.py`` uses a separate Bareiss determinant), so Smith is
not used to verify Smith.  Beside it sits one exact LP:
feasibility of A x = b in an integer box, which hands back a Farkas vector
when the box holds no rational solution.  That vector is the re-checkable
certificate behind every sup-norm lower bound (``check_lp_lower_bound``).
A point found some other way is checked, not pivoted for.

No floating point anywhere: integers are arbitrary precision, the LP runs on
a sparse tableau of integer rows, each over its own denominator and
rewritten in place, and values are Fractions.
"""

import heapq
from functools import cached_property
from fractions import Fraction
from math import gcd

from .errors import ShapeMismatch, SizeGuardExceeded

DEFAULT_SNF_BUDGET = 4_000_000
MAX_LP_PIVOTS = 2_000_000  # per box_feasibility probe


class SnfDecomposition:
    """U * A * V = D with U, V unimodular and D a divisibility-chain diagonal.

    ``diag`` is the diagonal of D (min(m, n) entries, zeros last) and
    ``shape`` is (m, n).  ``u_rows`` holds the rows of U and ``v_cols`` the
    columns of V as sparse {index: int} dicts; both are None when the
    factors were not asked for.  ``u_cols``, the columns of U in the same
    form, is derived from ``u_rows`` on first access and kept, so the
    solves against one factorization share it.  ``U``, ``D`` and ``V`` are
    the dense matrices, built on each access.
    """

    def __init__(self, shape, diag, u_rows=None, v_cols=None):
        self.shape = shape
        self.diag = diag
        self.u_rows = u_rows
        self.v_cols = v_cols

    @property
    def rank(self):
        return sum(1 for d in self.diag if d)

    def diagonal(self):
        return list(self.diag)

    @property
    def D(self):
        m, n = self.shape
        D = [[0] * n for _ in range(m)]
        for i, d in enumerate(self.diag):
            D[i][i] = d
        return D

    @cached_property
    def u_cols(self):
        cols = [{} for _ in range(self.shape[0])]
        for i, row in enumerate(self.u_rows):
            for j, v in row.items():
                cols[j][i] = v
        return cols

    @property
    def U(self):
        m = self.shape[0]
        return [[row.get(j, 0) for j in range(m)] for row in self.u_rows]

    @property
    def V(self):
        return [[col.get(i, 0) for col in self.v_cols]
                for i in range(self.shape[1])]


def _sparse_rows(A, ncols=None):
    """(m, n, rows): the rows of A as fresh {column: int} dicts without
    zeros.  Each row of A is a dense list or a dict; ``ncols`` gives n, and
    dict rows with entries need it (default: the length of the dense rows)."""
    m = len(A)
    n = ncols
    if n is None and m and not isinstance(A[0], dict):
        n = len(A[0])
    rows = []
    for row in A:
        if isinstance(row, dict):
            if row and n is None:
                raise ShapeMismatch("dict rows need ncols, their column count")
            if any(not 0 <= j < n for j in row):
                raise ShapeMismatch(f"sparse row has a column outside 0..{n - 1}")
            items = row.items()
        elif len(row) != n:
            raise ShapeMismatch("ragged matrix")
        else:
            items = enumerate(row)
        rows.append({j: int(v) for j, v in items if v})
    return m, n or 0, rows


def _axpy(target, source, q):
    """target -= q * source on sparse dicts; q != 0."""
    for k, v in source.items():
        x = target.get(k, 0) - q * v
        if x:
            target[k] = x
        else:
            del target[k]


class _SparseSmith:
    """An integer matrix as sparse rows under unimodular row and column
    operations.

    ``rows[i]`` is {column: value} and ``cols[j]`` the set of rows with a
    nonzero in column j.  When ``factors`` is set, U (sparse rows) and V
    (sparse columns) start as identities and record every operation, so
    U * A * V is the current matrix.
    """

    def __init__(self, rows, n, factors):
        self.rows = rows
        self.cols = [set() for _ in range(n)]
        for i, row in enumerate(rows):
            for j in row:
                self.cols[j].add(i)
        self.U = [{i: 1} for i in range(len(rows))] if factors else None
        self.V = [{j: 1} for j in range(n)] if factors else None

    def row_op(self, i1, i2, q):
        """row i2 -= q * row i1, for q != 0."""
        target, cols = self.rows[i2], self.cols
        for j, v in self.rows[i1].items():
            v *= q
            old = target.get(j)
            if old is None:
                target[j] = -v
                cols[j].add(i2)
            elif old == v:
                del target[j]
                cols[j].discard(i2)
            else:
                target[j] = old - v
        if self.U is not None:
            _axpy(self.U[i2], self.U[i1], q)

    def col_op(self, j1, j2, q):
        """column j2 -= q * column j1, for q != 0."""
        rows, holders = self.rows, self.cols[j2]
        for i in self.cols[j1]:
            row = rows[i]
            v = q * row[j1]
            old = row.get(j2)
            if old is None:
                row[j2] = -v
                holders.add(i)
            elif old == v:
                del row[j2]
                holders.discard(i)
            else:
                row[j2] = old - v
        if self.V is not None:
            _axpy(self.V[j2], self.V[j1], q)

    def swap_rows(self, i1, i2):
        if i1 == i2:
            return
        rows, cols = self.rows, self.cols
        for j in rows[i1]:
            cols[j].discard(i1)
        for j in rows[i2]:
            cols[j].discard(i2)
        rows[i1], rows[i2] = rows[i2], rows[i1]
        for j in rows[i1]:
            cols[j].add(i1)
        for j in rows[i2]:
            cols[j].add(i2)
        if self.U is not None:
            self.U[i1], self.U[i2] = self.U[i2], self.U[i1]

    def swap_cols(self, j1, j2):
        if j1 == j2:
            return
        rows, cols = self.rows, self.cols
        for i in cols[j1] | cols[j2]:
            row = rows[i]
            a = row.pop(j1, 0)
            b = row.pop(j2, 0)
            if b:
                row[j1] = b
            if a:
                row[j2] = a
        cols[j1], cols[j2] = cols[j2], cols[j1]
        if self.V is not None:
            self.V[j1], self.V[j2] = self.V[j2], self.V[j1]

    def negate_row(self, i):
        self.rows[i] = {j: -v for j, v in self.rows[i].items()}
        if self.U is not None:
            self.U[i] = {j: -v for j, v in self.U[i].items()}

    def unit_pivots(self):
        """Pivot on +-1 entries, shortest row first (then the column with
        the fewest nonzeros): clear the pivot's column from the other rows,
        then drop its row, which column operations would clear without
        touching anything else.  Rows enter a heap keyed by length and
        re-enter it whenever they change, so a row that lost every entry is
        never looked at again.  Returns the number of pivots; every row left
        has no +-1 entry.  Row operations only, and U and V are not kept."""
        rows, cols = self.rows, self.cols
        heap = [(len(row), i) for i, row in enumerate(rows) if row]
        heapq.heapify(heap)
        units = 0
        while heap:
            size, i = heapq.heappop(heap)
            row = rows[i]
            if len(row) != size:
                continue  # stale: the row changed and was pushed again
            units_here = [(len(cols[j]), j) for j, v in row.items()
                          if v == 1 or v == -1]
            if not units_here:
                continue
            j = min(units_here)[1]
            s = row[j]
            for i2 in [i2 for i2 in cols[j] if i2 != i]:
                self.row_op(i, i2, rows[i2][j] * s)
                if rows[i2]:
                    heapq.heappush(heap, (len(rows[i2]), i2))
            for j2 in row:
                cols[j2].discard(i)
            rows[i] = {}
            units += 1
        return units

    def position_pivots(self):
        """Diagonalize in place, pivoting in the current positions.

        At step t the pivot is the smallest nonzero |v| in the block of
        rows and columns >= t, ties to the lowest (row, col); it is swapped
        to (t, t) and made positive.  Row then column operations reduce the
        rest of its column and row by floor quotients; a remainder is a
        new, smaller pivot candidate, so the step restarts.  Once the row
        and column are clear, a row of the block holding an entry the pivot
        does not divide is added to row t and the step restarts; otherwise
        t advances.  The scan stops at the first row holding a +-1 (nothing
        beats it) and a +-1 pivot skips the divisibility scan.  Returns the
        pivots, a divisibility chain.
        """
        rows, cols = self.rows, self.cols
        m = len(rows)
        pivots = []
        t = 0
        while True:
            # rows >= t have no entries left of column t
            best = None
            for i in range(t, m):
                row = rows[i]
                if row:
                    a = min(map(abs, row.values()))
                    if best is None or a < best[0]:
                        best = (a, i, min(j for j, v in row.items()
                                          if abs(v) == a))
                        if a == 1:
                            break
            if best is None:
                return pivots
            _, i0, j0 = best
            self.swap_rows(t, i0)
            self.swap_cols(t, j0)
            if rows[t][t] < 0:
                self.negate_row(t)
            d = rows[t][t]
            clean = True
            for i in [i for i in cols[t] if i != t]:
                q = rows[i][t] // d
                if q:
                    self.row_op(t, i, q)
                if t in rows[i]:
                    clean = False
            for j in [j for j in rows[t] if j != t]:
                q = rows[t][j] // d
                if q:
                    self.col_op(t, j, q)
                if j in rows[t]:
                    clean = False
            if not clean:
                continue  # remainders became new, smaller pivot candidates
            if d != 1:
                bad = next((i for i in range(t + 1, m)
                            if any(v % d for v in rows[i].values())), None)
                if bad is not None:
                    self.row_op(bad, t, -1)  # row t += row bad
                    continue
            pivots.append(d)
            t += 1


def smith_normal_form(A, size_guard=DEFAULT_SNF_BUDGET, *, ncols=None,
                      factors=True):
    """Smith normal form over Z: U * A * V = D.

    ``A`` is a list of rows, each a dense list or a sparse {column: int}
    dict (dict rows need ``ncols``); the work is sparse either way.
    ``size_guard`` bounds the nonzeros of A.

    With ``factors`` the unimodular U and V are built, and they depend on
    the pivot order, which is fixed: smallest nonzero |v|, ties to the
    lowest current (row, col) position (``_SparseSmith.position_pivots``),
    so equal input gives equal factors.  Without them only the diagonal is
    computed, and in any order, since the invariant factors do not depend
    on it: unit pivots first, shortest row first, then the position rule on
    what is left, which holds no +-1.
    """
    m, n, rows = _sparse_rows(A, ncols)
    nonzeros = sum(map(len, rows))
    if nonzeros > size_guard:
        raise SizeGuardExceeded(
            f"matrix has {nonzeros} nonzeros (budget {size_guard})")
    work = _SparseSmith(rows, n, factors)
    if factors:
        diag = work.position_pivots()
    else:
        diag = [1] * work.unit_pivots()
        # the rows left hold no +-1: renumber their columns and finish
        rest = [row for row in work.rows if row]
        kept = sorted({j for row in rest for j in row})
        pos = {j: t for t, j in enumerate(kept)}
        rest = [{pos[j]: v for j, v in row.items()} for row in rest]
        diag += _SparseSmith(rest, len(kept), factors=False).position_pivots()
    diag += [0] * (min(m, n) - len(diag))
    return SnfDecomposition(shape=(m, n), diag=diag, u_rows=work.U,
                            v_cols=work.V)


def kernel_lattice_basis(A, snf=None):
    """Integer basis of the saturated kernel lattice {x in Z^n : A x = 0}.

    Columns of the Smith V factor beyond the rank; returned as a list of
    basis vectors.
    """
    if snf is None:
        snf = smith_normal_form(A)
    n = snf.shape[1]
    return [[col.get(i, 0) for i in range(n)] for col in snf.v_cols[snf.rank:]]


def lattice_quotient_complement(K, M):
    """Split a kernel lattice over a sublattice: span(K) = span(M) + free part.

    ``K``: basis vectors of the ambient lattice; ``M``: generating vectors of
    the sublattice (each expressible in K), dense lists or {index: int}
    dicts.  Returns (free, divisors) where
    ``free`` are basis vectors of a complement of the saturation and
    ``divisors`` are the nontrivial invariant factors (torsion of the
    quotient; empty when the quotient is free).  Both Smith forms are taken
    of sparse rows.
    """
    if not K:
        return [], []
    n = len(K[0])
    r = len(K)
    # coordinates of M in the basis K: solve K^T s = M^T columnwise
    support = [[(i, v) for i, v in enumerate(vec) if v] for vec in K]
    KT = [{} for _ in range(n)]
    for j, entries in enumerate(support):
        for i, v in entries:
            KT[i][j] = v
    snf_k = smith_normal_form(KT, ncols=r)
    S = []
    for vec in M:
        res = solve_integer(KT, vec, snf=snf_k)
        if not res:
            raise ArithmeticError("sublattice vector escapes the lattice")
        S.append(res.solution)
    if not S:
        return list(K), []
    Smat = [{} for _ in range(r)]
    for t, s in enumerate(S):
        for i, v in enumerate(s):
            if v:
                Smat[i][t] = v
    dec = smith_normal_form(Smat, ncols=len(S))
    # columns of U^-1 give the adapted basis; only the free ones are built,
    # each as an integer combination of the vectors of K
    Uinv = _unimodular_inverse(dec.u_rows)
    diag = dec.diag
    kept = [*range(len(diag), r), *(t for t, d in enumerate(diag) if d == 0)]
    free = []
    for t in kept:
        vec = [0] * n
        for row, entries in zip(Uinv, support):
            a = row[t]
            if a:
                for i, v in entries:
                    vec[i] += a * v
        free.append(vec)
    torsion = [d for d in diag if d > 1]
    return free, torsion


def _unimodular_inverse(U):
    """Integer inverse of a unimodular matrix, read off its Smith form.

    ``U`` is a list of rows in any form :func:`smith_normal_form` takes
    (dense lists or {column: int} dicts), one column per row.  The factors
    satisfy W U V = I, so U^-1 = V W, summed as one outer product per
    column of V and row of W.  Raises ArithmeticError unless U is square
    with every invariant factor 1 (determinant +-1).
    """
    n = len(U)
    try:
        snf = smith_normal_form(U, ncols=n)
    except ShapeMismatch as exc:
        raise ArithmeticError(f"matrix with {n} rows is not square: "
                              f"{exc}") from None
    if any(d != 1 for d in snf.diag):
        raise ArithmeticError("matrix is not unimodular")
    inv = [[0] * n for _ in range(n)]
    for v_col, w_row in zip(snf.v_cols, snf.u_rows):
        for i, a in v_col.items():
            out = inv[i]
            for j, b in w_row.items():
                out[j] += a * b
    return inv


class IntegerSolveResult:
    """Outcome of solving A x = b over Z."""

    def __init__(self, solution=None, obstruction=None):
        self.solution = solution
        self.obstruction = obstruction

    def __bool__(self):
        return self.solution is not None


def solve_integer(A, b, snf=None):
    """Solve A x = b over the integers via Smith normal form.

    ``snf``, when given, is the Smith form of A with its factors (A is then
    not read).  ``b`` is a dense list or a {row: int} dict, under the rule
    ``_sparse_rows`` applies to a row.  Returns an
    :class:`IntegerSolveResult`; when unsolvable, ``obstruction`` names the
    violated divisibility (or inconsistency) condition.
    """
    if snf is None:
        snf = smith_normal_form(A)
    m, n = snf.shape
    if not isinstance(b, dict) and len(b) != m:
        raise ShapeMismatch(f"rhs length {len(b)} != {m} rows")
    (b,) = _sparse_rows([b], m)[2]
    # c = U b, summed over the columns of U that b's nonzeros pick
    c = [0] * m
    u_cols = snf.u_cols
    for j, v in b.items():
        for i, u in u_cols[j].items():
            c[i] += u * v
    x = [0] * n
    for i in range(min(m, n)):
        d = snf.diag[i]
        if d == 0:
            if c[i] != 0:
                return IntegerSolveResult(
                    obstruction=f"row {i}: 0 = {c[i]} is inconsistent")
            continue
        if c[i] % d != 0:
            return IntegerSolveResult(
                obstruction=f"row {i}: {d} does not divide {c[i]}")
        y = c[i] // d
        if y:
            for t, v in snf.v_cols[i].items():
                x[t] += v * y
    for i in range(n, m):
        if c[i] != 0:
            return IntegerSolveResult(
                obstruction=f"row {i}: 0 = {c[i]} is inconsistent")
    return IntegerSolveResult(solution=x)


# -- exact box LP with Farkas certificates -------------------------------------


def check_lp_lower_bound(A, b, dual, bound, *, ncols=None):
    """Verify the dual certificate shows min ||x||_inf > bound.

    Needs one entry of y per row of A, ||A^T y||_1 <= 1 and b . y > bound;
    then ||x||_inf >= b.y for every solution of A x = b.  Pure evaluation,
    no search.  ``A`` and ``ncols`` as for :func:`box_feasibility`.
    """
    m, n, rows = _sparse_rows(A, ncols)
    if len(dual) != m:
        return False
    norm1 = sum(abs(g) for g in _mat_t_vec(rows, dual, n))
    dot = sum((Fraction(bi) * yi for bi, yi in zip(b, dual) if bi and yi),
              Fraction(0))
    return norm1 <= 1 and dot > bound


def _mat_t_vec(rows, y, n):
    """A^T y for A given by its sparse rows over n columns."""
    g = [0] * n
    for row, v in zip(rows, y):
        if v:
            for j, a in row.items():
                g[j] += a * v
    return g


def _eliminate(row, rhs, den, f, prow, prhs, piv):
    """Subtract f/piv times the pivot row (prow, prhs) from a sparse row
    (row, rhs) over den, where f and piv are the two rows' numerators in the
    entering column: (T piv - f T_l) / (den piv).  ``row`` is rewritten in
    place, in lowest terms; returns its (rhs, den)."""
    if piv != 1:
        for j, v in row.items():
            row[j] = v * piv
    for j, v in prow.items():
        t = row.get(j, 0) - f * v
        if t:
            row[j] = t
        else:
            del row[j]
    return _reduce_row(row, rhs * piv - f * prhs, den * piv)


def _reduce_row(row, rhs, den):
    """Lowest terms for a sparse row over its denominator, in place: den > 0
    and gcd(den, rhs, entries) = 1.  Returns (rhs, den)."""
    if den < 0:
        for j, v in row.items():
            row[j] = -v
        rhs, den = -rhs, -den
    if den != 1:
        g = gcd(den, rhs, *row.values())
        if g > 1:
            for j, v in row.items():
                row[j] = v // g
            rhs, den = rhs // g, den // g
    return rhs, den


def _box_lp(A, b, lo, hi, *, ncols=None):
    """Exact feasibility of A x = b with lo_j <= x_j <= hi_j (integers).

    ``A`` and ``ncols`` as for :func:`box_feasibility`; the LP reads A's
    sparse rows only.

    Phase-1 bounded-variable simplex on z = x - lo in [0, U_j]; upper bounds
    handled by column substitutions z -> U - z so every nonbasic variable
    sits at zero in the working frame.  The tableau is sparse and rational:
    row i is a dict {column: int} over its own positive denominator, which
    its right-hand side shares, and so is the cost row, whose right-hand
    side is the objective cell; every row is kept in lowest terms.  A pivot
    rewrites, in place, only the rows with a nonzero in the entering column
    (plus the pivot and cost rows); every other row is unchanged as a
    rational.  The rows are the LP's own, so A and b are not changed.
    Dantzig pricing with ties to the lowest column, then Bland's rule after
    a degeneracy stall; ratio ties go to the lowest basic variable.
    Returns (x, None) with a rational basic solution when feasible, else
    (None, farkas) where farkas . b > sum_j max(g_j lo_j, g_j hi_j) for
    g = A^T farkas, exactly.
    """
    m, n, A = _sparse_rows(A, ncols)
    b = [int(v) for v in b]
    if any(lo[j] > hi[j] for j in range(n)):
        raise ShapeMismatch("empty box")
    U = [hi[j] - lo[j] for j in range(n)]
    bp = [b[i] - sum(a * lo[j] for j, a in A[i].items()) for i in range(m)]
    if n == 0 or all(u == 0 for u in U):
        x = [Fraction(lo[j]) for j in range(n)]
        if len(b) == m and not any(bp):  # A lo = b
            return x, None
        i = next(i for i in range(m) if bp[i] != 0)
        pi = [Fraction(0)] * m
        pi[i] = Fraction(1 if bp[i] > 0 else -1)
        return None, _normalize_farkas(A, b, lo, hi, pi)
    row_sign = [1 if v >= 0 else -1 for v in bp]
    rows = []
    for i in range(m):
        row = {j: row_sign[i] * a for j, a in A[i].items()}
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
        if pivots > MAX_LP_PIVOTS:
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
        # pivot row becomes T_l / piv, reduced in place once no other row
        # (the cost row last) is eliminated against it
        for i, row in enumerate(rows):
            f = row.get(enter)
            if f and i != leave:
                rhs[i], den[i] = _eliminate(
                    row, rhs[i], den[i], f, prow, prhs, piv)
        obj, dc = _eliminate(cost, obj, dc, cost[enter], prow, prhs, piv)
        rhs[leave], den[leave] = _reduce_row(prow, prhs, piv)
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
        _check_point(A, b, x, lo, hi)
        return x, None
    # infeasible: Farkas vector from the artificial reduced costs
    y = [1 - Fraction(cost.get(n + i, 0), dc) for i in range(m)]
    pi = [row_sign[i] * y[i] for i in range(m)]
    return None, _normalize_farkas(A, b, lo, hi, pi)


def _check_point(A, b, x, lo, hi):
    """Raise ArithmeticError unless the rational point x solves A x = b
    exactly, A given by its sparse rows, and lies in the box
    lo_j <= x_j <= hi_j."""
    if len(x) != len(lo) or len(b) != len(A) or any(
            sum(a * x[j] for j, a in row.items() if x[j]) != v
            for row, v in zip(A, b)):
        raise ArithmeticError("the point does not solve A x = b")
    if any(not lo[j] <= x[j] <= hi[j] for j in range(len(x))):
        raise ArithmeticError("the point violates the box")


def _normalize_farkas(A, b, lo, hi, pi):
    """Scale a Farkas vector and verify it separates the box exactly; A is
    given by its sparse rows over len(lo) columns."""
    g = _mat_t_vec(A, pi, len(lo))
    cap = sum(max(gj * lo[j], gj * hi[j]) for j, gj in enumerate(g))
    dot = sum(Fraction(b[i]) * pi[i] for i in range(len(A)) if b[i] and pi[i])
    if dot <= cap:
        raise ArithmeticError("phase-1 produced an invalid Farkas certificate")
    norm1 = sum(abs(gj) for gj in g)
    if norm1 > 0:
        pi = [v / norm1 for v in pi]
    return pi


def box_feasibility(A, b, t, point=None, *, ncols=None):
    """Feasibility of A x = b in the symmetric box |x_j| <= t.

    ``A`` is a list of rows, dense lists or {column: int} dicts; dict rows
    need ``ncols``, the number of columns.  Returns (x, None) when feasible,
    else (None, farkas) with farkas . b > t * ||A^T farkas||_1 and
    ||A^T farkas||_1 <= 1 — the checkable sup-norm lower-bound certificate
    at bound t.

    A given ``point`` gets the exact checks a simplex point gets and is
    returned with no pivot; ArithmeticError if it fails them.
    """
    _, n, rows = _sparse_rows(A, ncols)
    lo, hi = [-t] * n, [t] * n
    if point is not None:
        _check_point(rows, b, point, lo, hi)
        return point, None
    return _box_lp(rows, b, lo, hi, ncols=n)


# -- integer L-infinity certificates -------------------------------------------


class NormCertificate:
    """Exact integer optimum of min ||x||_inf s.t. Ax = b with certificates.

    ``infeasibility_proof`` certifies that no solution exists with norm
    <= optimum - 1: either the LP dual vector (kind "lp-dual", re-checkable
    without search) or the exhausted search log (kind "search-exhausted").
    """

    def __init__(self, optimum, witness, infeasibility_proof, node_count,
                 lp_bound=None):
        self.optimum = optimum
        self.witness = witness
        self.infeasibility_proof = infeasibility_proof
        self.node_count = node_count
        self.lp_bound = lp_bound  # Fraction
