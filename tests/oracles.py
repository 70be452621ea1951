"""Independent oracles the test suite checks production code against.

Most of this is deliberately written as straight-line brute force on dense
matrices, independent of the package internals: a gcd-only Smith
diagonalization (no pivot strategy, no witnesses), homology ranks from it,
and a complete backtracking enumerator for minimal sup-norm solutions.

The package builds every matrix as sparse {column: int} rows.  The dense
references here are ``boundary_matrix`` and ``coboundary_matrix`` of a
complex, read off its boundary columns cell by cell, and
``oracle_relative_coboundary``, the block of the latter on the cells outside
a subcomplex; ``densify`` turns sparse rows into the dense matrices the
oracles take.

``oracle_smith_normal_form`` is the dense Smith form with unimodular
factors that the sparse kernel of ``exact_linalg.smith_normal_form``
replaced, in position pivot order; the two must give the same D and rank.
The kernel's U and V follow its own pivot order, so ``verify_snf`` checks
them.

``verify_snf`` checks every Smith-form invariant of a decomposition with
factors, unimodularity by the Bareiss determinant ``_det_unimodular``, so
Smith is not used to verify Smith.

``oracle_potential_minimax`` is a binary search of Bellman-Ford probes,
the reference for ``cochains._least_bound``; its Bellman-Ford is its own
plain one, with no cycle search.

``oracle_box_lp`` is the dense fraction-free phase-1 simplex that the sparse
rational tableau of ``exact_linalg._box_lp`` replaced; the two must return
the same points and the same Farkas vectors.

``oracle_simplicial_complex`` (closure by every nonempty subset) and
``oracle_from_vertex_map`` (one image dict per source cell, signs by pair
inversions) are the builders that the one-pass face closure and the
vertex-map reading of ``complexes.CellMap.cell_image`` replaced.
``oracle_compose`` is the dict composition of maps given as those dicts,
and ``oracle_chain_map_failure`` is the dict chain-map check;
``cell_image`` must agree with both.  ``oracle_product_cellmap`` is
the dict product of a base map and a path map on interval products, the
reference for ``towers.product_obstruction_cocycle``: the closed form must
equal the unit 3-cocycle pulled back along q x xi.
``oracle_is_light`` is the vertex-image set test of lightness that the
edge test of ``towers.is_light`` replaced.

``oracle_cell_carriers`` is the carrier table of a barycentric, midpoint
or cone subdivision with one entry per cell, filled cell by cell as the
builders did before a subdivision kept one carrier per vertex; every cell's
carrier must be the join of its vertices' carriers.
``oracle_simplicial_approx_identity``, ``oracle_check_stage_carriers`` and
``oracle_open_star_refinement_witnesses`` are the three per-simplex carrier
loops of ``towers`` that its one shared carrier table replaced; they read
such a per-cell table.  ``oracle_pullback_subdivision`` is the pulled-back
subdivision read off that table, with an inverse vertex dict per lift and a
face lookup per lifted vertex.

``oracle_simplicial_columns`` and ``oracle_interval_product_columns`` are
boundary columns as one ``{row: coeff}`` dict per cell, made from simplex
tuples and the product formula, the storage that the flat boundary tables
of ``complexes.CellComplex`` replaced; ``oracle_boundary_squared_failure``
is the per-cell d.d check on those dicts.

``oracle_glue`` is the pushout along a cell matching ``{Y-cell: (X-cell,
sign)}`` that ``complexes.glue`` took before it took a vertex
identification, with its boundary-closure and orientation checks;
``oracle_vertex_matching`` is the matching an identification induces.  The
two gluings must give the same complex and labels.

``oracle_build_Mk`` is M(p, q, k) made as ``towers.build_Mk`` made it
before it glued triangle lists: one ``glue`` pushout of two complexes per
gluing step, each piece a mapping-cylinder complex and each rim order read
back with ``cycle_vertices_of_label``.  The two must give the same levels,
labels, phi, tau and obstruction.

``oracle_pullback_complex`` is the fiber product from every (sigma, t)
pair in every dimension, each found through an inverse dict and a pair
dict and closed by ``oracle_simplicial_complex``; ``towers`` makes the same
pairs level by level as columns of arithmetic pair ids.

``oracle_serialize_complex`` is the line-by-line ``.ckx`` writer (one
string per line, triples bucketed by row) that the bulk level formats of
``interchange.serialize_complex`` replaced; the two must give the same text.
It writes format v2, as the package does: simplex blocks only for a
simplicial complex, boundary blocks for any other.

``oracle_lattice_quotient_complement`` is the lattice complement on dense
matrices that the sparse rows of ``exact_linalg.lattice_quotient_complement``
replaced, and ``oracle_solve_integer`` the solve that summed U b row by row
over the dense U; both must agree with the package exactly.

``ilp_min_linf`` is the second reference for minimal sup-norms: a generic
branch and bound (integer bounds propagation plus the package's exact box
LP) that knows nothing of the lattice structure the degree-2 minimal
primitive search exploits; ``check_norm_certificate`` re-validates the
certificate it returns.
"""

from fractions import Fraction
from itertools import combinations
from itertools import product as iproduct

from coarse_kit.cochains import fundamental_class, pullback_cochain
from coarse_kit.complexes import (
    CellComplex,
    CellMap,
    annulus_triangulation,
    circle,
    coarsening_cylinder,
    cycle_vertices_of_label,
    filled_triangle,
    glue,
    mapping_cylinder,
    midpoint_subdivision,
    midpoint_subdivision_global,
    remove_cells,
    subcomplex_matching,
    wedge,
    _vertex_span_cells,
)
from coarse_kit.errors import (
    InvalidParams,
    NodeLimitExceeded,
    NoIntegerSolution,
    NoValidAssignment,
    NotASubcomplex,
    NotIsomorphic,
    NotSimplicial,
    ShapeMismatch,
    SizeGuardExceeded,
)
from coarse_kit.exact_linalg import (
    NormCertificate,
    _box_lp,
    _unimodular_inverse,
    box_feasibility,
    check_lp_lower_bound,
    smith_normal_form,
    solve_integer,
)
from coarse_kit.towers import (
    HOLE_EDGES,
    MkBundle,
    _check_bundle,
    pullback_subdivision,
    simplicial_approx_identity,
)

DEFAULT_NODE_LIMIT = 10_000_000


def _shape(A):
    m = len(A)
    n = len(A[0]) if m else 0
    for row in A:
        if len(row) != n:
            raise ShapeMismatch("ragged matrix")
    return m, n


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


def densify(rows, ncols):
    """The dense matrix of sparse {column: int} rows over ncols columns."""
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


def boundary_matrix(X, k):
    """Dense boundary matrix: rows = (k-1)-cells, columns = k-cells."""
    mat = [[0] * X.n_cells(k) for _ in range(X.n_cells(k - 1))]
    for j in range(X.n_cells(k)):
        for r, c in X.boundary_of(k, j).items():
            mat[r][j] = c
    return mat


def coboundary_matrix(X, k):
    """Dense matrix of delta: C^k -> C^{k+1}, the transpose of the
    (k+1)-boundary: rows are (k+1)-cells, columns are k-cells."""
    d = boundary_matrix(X, k + 1)
    return [[d[i][j] for i in range(X.n_cells(k))]
            for j in range(X.n_cells(k + 1))]


def oracle_relative_coboundary(X, A_cells, k):
    """The block of ``coboundary_matrix(X, k)`` on the cells outside the
    subcomplex ``A_cells`` ({(dim, index)}), rows and columns in order."""
    full = coboundary_matrix(X, k)
    cols = [i for i in range(X.n_cells(k)) if (k, i) not in A_cells]
    return [[full[s][i] for i in cols] for s in range(X.n_cells(k + 1))
            if (k + 1, s) not in A_cells]


def oracle_smith_normal_form(A, size_guard=4_000_000, events=None):
    """Dense Smith normal form with unimodular factors: (U, D, V, rank).

    The dense routine the sparse ``exact_linalg.smith_normal_form``
    replaced; the two must give the same D and rank.  Pivot rule:
    smallest nonzero absolute value, ties broken by (row, col).  ``events``,
    when a set, collects the branches taken ("non-unit-pivot",
    "negative-pivot", "non-clean", "bad-row-fold").
    """
    m, n = _shape(A)
    if m * n > size_guard:
        raise SizeGuardExceeded(f"matrix has {m * n} cells (budget {size_guard})")
    D = [list(map(int, row)) for row in A]
    U = _identity(m)
    V = _identity(n)
    events = set() if events is None else events

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
        if best != 1:
            events.add("non-unit-pivot")
        i0, j0 = pivot
        row_swap(t, i0)
        col_swap(t, j0)
        if D[t][t] < 0:
            events.add("negative-pivot")
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
            events.add("non-clean")
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
            events.add("bad-row-fold")
            row_op(bad, t, -1)  # row t += row bad, creates reducible entries
            continue
        t += 1
    rank = t
    return U, D, V, rank


def verify_snf(A, snf):
    """Exact check of all Smith-form invariants of a decomposition with
    factors; returns True or raises."""
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


def oracle_smith_diagonal(A):
    """Invariant factors of an integer matrix by plain gcd elimination."""
    M = [list(map(int, row)) for row in A]
    m = len(M)
    n = len(M[0]) if m else 0
    diag = []
    t = 0
    while t < min(m, n):
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if M[i][j] != 0:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        i0, j0 = pivot
        M[t], M[i0] = M[i0], M[t]
        for row in M:
            row[t], row[j0] = row[j0], row[t]
        while True:
            reduced = True
            for i in range(t + 1, m):
                if M[i][t] != 0:
                    q = M[i][t] // M[t][t]
                    for j in range(t, n):
                        M[i][j] -= q * M[t][j]
                    if M[i][t] != 0:
                        M[t], M[i] = M[i], M[t]
                        reduced = False
            for j in range(t + 1, n):
                if M[t][j] != 0:
                    q = M[t][j] // M[t][t]
                    for i in range(t, m):
                        M[i][j] -= q * M[i][t]
                    if M[t][j] != 0:
                        for i in range(t, m):
                            M[i][t], M[i][j] = M[i][j], M[i][t]
                        reduced = False
            if reduced:
                break
        diag.append(abs(M[t][t]))
        t += 1
    # enforce the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if a and b and b % a != 0:
                g = _gcd(a, b)
                diag[i], diag[i + 1] = g, a * b // g
                changed = True
            if a == 0 and b != 0:
                diag[i], diag[i + 1] = b, 0
                changed = True
    return [d for d in diag if d != 0] + [0] * sum(1 for d in diag if d == 0)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def mat_vec(A, x):
    """A x, summed over the nonzero entries of x only."""
    nonzero = [(j, v) for j, v in enumerate(x) if v]
    return [sum(row[j] * v for j, v in nonzero) for row in A]


def oracle_solve_integer(snf, b):
    """(solution, obstruction) of A x = b from the Smith form of A, with
    U b summed row by row over the dense U: the solve that
    ``exact_linalg.solve_integer`` replaced by sums over U's columns.  The
    two must give the same solution or the same obstruction string."""
    m, n = snf.shape
    U = snf.U
    c = [sum(a * int(v) for a, v in zip(row, b) if v) for row in U]
    x = [0] * n
    for i in range(min(m, n)):
        d = snf.diag[i]
        if d == 0:
            if c[i] != 0:
                return None, f"row {i}: 0 = {c[i]} is inconsistent"
            continue
        if c[i] % d != 0:
            return None, f"row {i}: {d} does not divide {c[i]}"
        for t, v in snf.v_cols[i].items():
            x[t] += v * (c[i] // d)
    for i in range(n, m):
        if c[i] != 0:
            return None, f"row {i}: 0 = {c[i]} is inconsistent"
    return x, None


def oracle_lattice_quotient_complement(K, M):
    """(free, torsion) of span(K) over the sublattice span(M), on dense
    matrices: K^T and the coordinate matrix of M as dense rows, U^-1 from
    the dense U, and the free vectors as K^T times its columns.  The routine
    that the sparse ``exact_linalg.lattice_quotient_complement`` replaced;
    the Smith factors of dense and sparse rows are equal, so the two must
    agree exactly."""
    if not K:
        return [], []
    n = len(K[0])
    r = len(K)
    KT = [[K[j][i] for j in range(r)] for i in range(n)]
    snf_k = smith_normal_form(KT)
    S = []
    for vec in M:
        x, obstruction = oracle_solve_integer(snf_k, vec)
        if obstruction is not None:
            raise ArithmeticError("sublattice vector escapes the lattice")
        S.append(x)
    if not S:
        return list(K), []
    Smat = [[S[t][i] for t in range(len(S))] for i in range(r)]
    dec = smith_normal_form(Smat)
    Uinv = _unimodular_inverse(dec.U)
    diag = dec.diagonal()
    kept = [*range(len(diag), r), *(t for t, d in enumerate(diag) if d == 0)]
    free = [mat_vec(KT, [Uinv[i][t] for i in range(r)]) for t in kept]
    torsion = [d for d in diag if d > 1]
    return free, torsion


def oracle_rank(A):
    return len([d for d in oracle_smith_diagonal(A) if d != 0])


def oracle_homology(boundary_k, boundary_k1, n_k):
    """Betti number and torsion of H_k from dense boundary matrices.

    ``boundary_k``: matrix of d_k (maps k-cells down), ``boundary_k1``: matrix
    of d_{k+1}; ``n_k``: number of k-cells.  Returns (free rank, [torsion]).
    """
    rank_k = oracle_rank(boundary_k) if boundary_k and boundary_k[0:] else 0
    if not boundary_k or len(boundary_k) == 0 or (boundary_k and len(boundary_k[0]) == 0):
        rank_k = 0
    rank_k1 = 0
    torsion = []
    if boundary_k1 and len(boundary_k1) and len(boundary_k1[0]):
        diag = oracle_smith_diagonal(boundary_k1)
        nonzero = [d for d in diag if d != 0]
        rank_k1 = len(nonzero)
        torsion = [d for d in nonzero if d > 1]
    free = n_k - rank_k - rank_k1
    return free, torsion


def oracle_complex_homology(X, k):
    """H_k of a CellComplex via the dense oracle Smith form."""
    bk = boundary_matrix(X, k) if k >= 1 else []
    bk1 = boundary_matrix(X, k + 1) if k + 1 <= X.dim else []
    if k >= 1 and X.n_cells(k - 1) == 0:
        bk = []
    rank_k = oracle_rank(bk) if bk else 0
    diag = oracle_smith_diagonal(bk1) if bk1 else []
    nonzero = [d for d in diag if d != 0]
    free = X.n_cells(k) - rank_k - len(nonzero)
    torsion = [d for d in nonzero if d > 1]
    return free, sorted(torsion)


def oracle_min_linf(A, b, max_bound=6):
    """Smallest sup-norm of an integer solution by complete backtracking.

    Plain row-completion checks only: no relaxation, no propagation, no
    capacity pruning beyond finished rows.  Returns (optimum, witness) or
    None when no solution exists with norm <= max_bound.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    for bound in range(max_bound + 1):
        last_touch = [max((j for j in range(n) if A[i][j] != 0), default=-1)
                      for i in range(m)]
        x = [0] * n

        def backtrack(j):
            if j == n:
                return all(
                    sum(A[i][t] * x[t] for t in range(n)) == b[i] for i in range(m)
                )
            for v in range(-bound, bound + 1):
                x[j] = v
                ok = True
                for i in range(m):
                    if last_touch[i] == j:
                        if sum(A[i][t] * x[t] for t in range(j + 1)) != b[i]:
                            ok = False
                            break
                if ok and backtrack(j + 1):
                    return True
            x[j] = 0
            return False

        if n == 0:
            if all(v == 0 for v in b):
                return 0, []
            return None
        if backtrack(0):
            return bound, list(x)
    return None


# -- generic branch and bound for min ||x||_inf ------------------------------


def _propagate_bounds(rows_sparse, cols_sparse, b, lo, hi):
    """Integer bounds-consistency on A x = b over the box [lo, hi].

    Tightens lo/hi in place to a fixpoint; returns False when some row
    becomes unsatisfiable.  Exact integer arithmetic throughout.
    """
    m = len(rows_sparse)
    n = len(lo)
    min_term = [[0] * len(r) for r in rows_sparse]
    max_term = [[0] * len(r) for r in rows_sparse]
    minS = [0] * m
    maxS = [0] * m
    pos_in_row = [dict() for _ in range(m)]
    for i, r in enumerate(rows_sparse):
        for t_, (j, a) in enumerate(r):
            v1, v2 = a * lo[j], a * hi[j]
            min_term[i][t_] = min(v1, v2)
            max_term[i][t_] = max(v1, v2)
            pos_in_row[i][j] = t_
        minS[i] = sum(min_term[i])
        maxS[i] = sum(max_term[i])
    from collections import deque

    queue = deque(range(m))
    queued = [True] * m
    while queue:
        i = queue.popleft()
        queued[i] = False
        if not (minS[i] <= b[i] <= maxS[i]):
            return False
        for t_, (j, a) in enumerate(rows_sparse[i]):
            rest_min = minS[i] - min_term[i][t_]
            rest_max = maxS[i] - max_term[i][t_]
            # a * x_j must lie in [b_i - rest_max, b_i - rest_min]
            lo_ax, hi_ax = b[i] - rest_max, b[i] - rest_min
            if a > 0:
                new_lo = _ceil_div(lo_ax, a)
                new_hi = _floor_div(hi_ax, a)
            else:
                new_lo = _ceil_div(hi_ax, a)
                new_hi = _floor_div(lo_ax, a)
            changed = False
            if new_lo > lo[j]:
                lo[j] = new_lo
                changed = True
            if new_hi < hi[j]:
                hi[j] = new_hi
                changed = True
            if lo[j] > hi[j]:
                return False
            if changed:
                for i2, a2 in cols_sparse[j]:
                    t2 = pos_in_row[i2][j]
                    v1, v2 = a2 * lo[j], a2 * hi[j]
                    nmin, nmax = min(v1, v2), max(v1, v2)
                    minS[i2] += nmin - min_term[i2][t2]
                    maxS[i2] += nmax - max_term[i2][t2]
                    min_term[i2][t2] = nmin
                    max_term[i2][t2] = nmax
                    if not queued[i2]:
                        queue.append(i2)
                        queued[i2] = True
    return True


def _floor_div(a, d):
    return a // d


def _ceil_div(a, d):
    return -((-a) // d)


def _integer_point_in_box(A, b, t, node_budget, state):
    """Complete search for an integer point of A x = b with ||x||_inf <= t.

    Branch and bound: integer bounds propagation at every node, then the
    exact box-LP relaxation; infeasible nodes prune, integral vertices
    finish, otherwise the most fractional coordinate branches with the
    nearer integer side explored first.  Deterministic.
    """
    m, n = _shape(A)
    rows_sparse = []
    cols_sparse = [[] for _ in range(n)]
    for i in range(m):
        r = [(j, A[i][j]) for j in range(n) if A[i][j] != 0]
        rows_sparse.append(r)
        for j, a in r:
            cols_sparse[j].append((i, a))
    b = [int(v) for v in b]
    stack = [([-t] * n, [t] * n)]
    while stack:
        lo, hi = stack.pop()
        state["nodes"] += 1
        if state["nodes"] > node_budget:
            raise NodeLimitExceeded("node budget exhausted",
                                    node_count=state["nodes"])
        if not _propagate_bounds(rows_sparse, cols_sparse, b, lo, hi):
            continue
        if all(lo[j] == hi[j] for j in range(n)):
            x = list(lo)
            if mat_vec(A, x) == b:
                return x
            continue
        x, _ = _box_lp(A, b, lo, hi)
        if x is None:
            continue
        frac = [(abs(x[j] - x[j].numerator // x[j].denominator - Fraction(1, 2)),
                 j) for j in range(n) if x[j].denominator != 1]
        if not frac:
            return [int(v) for v in x]
        _, jb = min(frac)
        f = x[jb]
        fl = f.numerator // f.denominator
        down = (list(lo), list(hi))
        down[1][jb] = fl
        up = (list(lo), list(hi))
        up[0][jb] = fl + 1
        if f - fl <= Fraction(1, 2):  # floor side is nearer: explore first
            stack.append(up)
            stack.append(down)
        else:
            stack.append(down)
            stack.append(up)
    return None


def ilp_min_linf(A, b, node_limit=DEFAULT_NODE_LIMIT, snf=None):
    """Exact integer optimum of min ||x||_inf s.t. A x = b.

    The rational relaxation is probed at integer bounds (exact phase-1
    feasibility with Farkas certificates), which pins ceil(lp) and usually
    hands over an integral vertex witness for free; otherwise the level is
    settled by a complete depth-first search with exact arithmetic.  Raises
    NoIntegerSolution when A x = b is unsolvable over Z, NodeLimitExceeded
    (best-known interval attached) when the budget runs out.
    """
    m, n = _shape(A)
    b = [int(v) for v in b]
    base = solve_integer(A, b, snf=snf)
    if not base:
        raise NoIntegerSolution(base.obstruction)
    if all(v == 0 for v in b):
        return NormCertificate(
            optimum=0, witness=[0] * n,
            infeasibility_proof={"kind": "trivial", "detail": "rhs is zero"},
            node_count=0, lp_bound=Fraction(0),
        )
    # find the smallest integer t with a rational solution in the box [-t, t]
    farkas_at = {}
    points = {}

    def lp_feasible(t):
        if t in points or t in farkas_at:
            return t in points
        x, pi = box_feasibility(A, b, t)
        if x is not None:
            points[t] = x
            return True
        farkas_at[t] = pi
        return False

    lp_feasible(0)  # records the Farkas vector at 0 (b is nonzero here)
    t = 1
    while not lp_feasible(t):
        t *= 2
    lo_t, hi_t = t // 2, t
    while lo_t + 1 < hi_t:
        mid = (lo_t + hi_t) // 2
        if lp_feasible(mid):
            hi_t = mid
        else:
            lo_t = mid
    lo = hi_t  # = ceil of the rational optimum
    state = {"nodes": 0}
    incumbent = None
    incumbent_bound = None
    vertex = points.get(lo)
    if vertex is not None and all(v.denominator == 1 for v in vertex):
        incumbent = [int(v) for v in vertex]
        incumbent_bound = max(abs(v) for v in incumbent)

    def feasible(bound):
        nonlocal incumbent, incumbent_bound
        if incumbent_bound is not None and incumbent_bound <= bound:
            return True
        try:
            sol = _integer_point_in_box(A, b, bound, node_limit, state)
        except NodeLimitExceeded as exc:
            raise NodeLimitExceeded(
                str(exc), lower=lo, upper=incumbent_bound,
                node_count=state["nodes"],
            ) from exc
        if sol is not None:
            val = max(abs(v) for v in sol) if sol else 0
            if incumbent_bound is None or val < incumbent_bound:
                incumbent, incumbent_bound = sol, val
        return sol is not None

    search_exhausted_at = None
    hi = max(lo, 1)
    while not feasible(hi):
        search_exhausted_at = hi
        lo = hi + 1
        hi = 2 * hi + 1
    hi = incumbent_bound
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = min(mid, incumbent_bound)
        else:
            search_exhausted_at = max(search_exhausted_at or -1, mid)
            lo = mid + 1
    optimum = hi
    witness = incumbent
    if optimum == 0:
        proof = {"kind": "trivial", "detail": "optimum is zero"}
    elif optimum - 1 in farkas_at:
        proof = {
            "kind": "lp-dual",
            "dual": farkas_at[optimum - 1],
            "bound": optimum - 1,
        }
    else:
        proof = {
            "kind": "search-exhausted",
            "bound": optimum - 1,
            "nodes": state["nodes"],
        }
    return NormCertificate(
        optimum=optimum, witness=witness, infeasibility_proof=proof,
        node_count=state["nodes"], lp_bound=Fraction(hi_t),
    )


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


def oracle_potential_minimax(edge_ends, w, n_nodes, ground):
    """Min over integer potentials h (h = 0 on ground) of
    max_e |w_e + h(v_e) - h(u_e)|, plus an optimal h, by binary search on
    the bound B with one Bellman-Ford feasibility run per probe.

    Difference-constraint feasibility at bound B is totally unimodular, so
    binary search over integer B is exact.
    """
    if not edge_ends:
        return 0, [0] * n_nodes
    hi = max(abs(v) for v in w)
    lo = 0
    best_h = None

    def feasible(B):
        arcs = []
        for (u, v), we in zip(edge_ends, w):
            arcs.append((u, v, B - we))
            arcs.append((v, u, B + we))
        return _oracle_bellman_ford(n_nodes, arcs)

    h_hi = feasible(hi)
    if h_hi is None:
        raise ArithmeticError("potential system infeasible at its own max")
    best_h, best_B = h_hi, hi
    while lo < best_B:
        mid = (lo + best_B) // 2
        h = feasible(mid)
        if h is not None:
            best_h, best_B = h, mid
        else:
            lo = mid + 1
    shift = best_h[ground]
    return best_B, [v - shift for v in best_h]


def _oracle_bellman_ford(n_nodes, arcs):
    """Potentials with h_v - h_u <= w on every arc (u, v, w), from all zero,
    or None when n passes leave an arc to relax (a negative cycle)."""
    dist = [0] * n_nodes
    for _ in range(n_nodes):
        changed = False
        for (u, v, w) in arcs:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            return dist
    if any(dist[u] + w < dist[v] for (u, v, w) in arcs):
        return None
    return dist


def oracle_box_lp(A, b, lo, hi, max_pivots=2_000_000):
    """Exact feasibility of A x = b with lo_j <= x_j <= hi_j (integers).

    Dense reference for ``exact_linalg._box_lp``, same pivot rules.  Phase-1 bounded-variable simplex on z = x - lo in [0, U_j] with an
    all-integer tableau (fraction-free pivoting, signed denominator); upper
    bounds handled by column substitutions z -> U - z so every nonbasic
    variable sits at zero in the working frame.  Returns (x, None) with a
    rational basic solution when feasible, else (None, farkas) where
    farkas . b > sum_j max(g_j lo_j, g_j hi_j) for g = A^T farkas, exactly.
    """
    m, n = _shape(A)
    b = [int(v) for v in b]
    if any(lo[j] > hi[j] for j in range(n)):
        raise ShapeMismatch("empty box")
    U = [hi[j] - lo[j] for j in range(n)]
    bp = [b[i] - sum(A[i][j] * lo[j] for j in range(n)) for i in range(m)]
    if n == 0 or all(u == 0 for u in U):
        x = [Fraction(lo[j]) for j in range(n)]
        if _oracle_mat_vec_fraction(A, x) == [Fraction(v) for v in b]:
            return x, None
        i = next(i for i in range(m) if bp[i] != 0)
        pi = [Fraction(0)] * m
        pi[i] = Fraction(1 if bp[i] > 0 else -1)
        return None, _oracle_normalize_farkas(A, b, lo, hi, pi)
    row_sign = [1 if v >= 0 else -1 for v in bp]
    T = [[row_sign[i] * A[i][j] for j in range(n)] + [0] * m for i in range(m)]
    for i in range(m):
        T[i][n + i] = 1
    rhs = [row_sign[i] * bp[i] for i in range(m)]
    nvars = n + m
    den = 1
    cost = [0] * nvars  # canonical phase-1 reduced costs
    obj = 0             # rhs cell of the cost row (= -objective * den)
    for i in range(m):
        for j in range(n):
            cost[j] -= T[i][j]
        obj -= rhs[i]
    basis = [n + i for i in range(m)]
    basic_pos = {n + i: i for i in range(m)}
    flipped = [False] * n  # z_j currently substituted as U_j - z_j

    def exact_div(a, d):
        q, r = divmod(a, d)
        if r != 0:
            raise ArithmeticError("fraction-free pivot lost exact divisibility")
        return q

    def flip_column(j):
        nonlocal obj
        u = U[j]
        for i in range(m):
            rhs[i] -= u * T[i][j]
            T[i][j] = -T[i][j]
        obj -= u * cost[j]
        cost[j] = -cost[j]
        flipped[j] = not flipped[j]

    pivots = 0
    stall = 0
    stall_limit = 20 * (m + n)
    while True:
        pivots += 1
        if pivots > max_pivots:
            raise SizeGuardExceeded("phase-1 pivot budget exhausted")
        dsgn = 1 if den > 0 else -1
        # Dantzig rule (most negative reduced cost) until a degeneracy stall,
        # then Bland's rule for guaranteed termination
        enter = None
        if stall <= stall_limit:
            best_c = 0
            for j in range(nvars):
                if j in basic_pos or (j < n and U[j] == 0):
                    continue
                c = dsgn * cost[j]
                if c < best_c:
                    best_c, enter = c, j
        else:
            enter = next(
                (j for j in range(nvars)
                 if j not in basic_pos and not (j < n and U[j] == 0)
                 and dsgn * cost[j] < 0),
                None,
            )
        if enter is None:
            break
        cap = Fraction(U[enter]) if enter < n else None
        leave = None
        leave_upper = False
        best = None
        for i in range(m):
            c = T[i][enter]
            if c == 0:
                continue
            if dsgn * c > 0:  # basic value decreases toward 0
                cand = Fraction(rhs[i], c)
                upperhit = False
            elif basis[i] < n:  # basic value increases toward its U
                cand = Fraction(U[basis[i]] * den - rhs[i], -c)
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
        piv = T[leave][enter]
        for i in range(m):
            if i == leave:
                continue
            f = T[i][enter]
            Ti, Tl = T[i], T[leave]
            for j in range(nvars):
                Ti[j] = exact_div(Ti[j] * piv - f * Tl[j], den)
            rhs[i] = exact_div(rhs[i] * piv - f * rhs[leave], den)
        f = cost[enter]
        for j in range(nvars):
            cost[j] = exact_div(cost[j] * piv - f * T[leave][j], den)
        obj = exact_div(obj * piv - f * rhs[leave], den)
        basis[leave] = enter
        del basic_pos[out]
        basic_pos[enter] = leave
        den = piv
        if leave_upper and out < n:
            flip_column(out)  # the leaving variable parks at its upper bound

    value = Fraction(-obj, den)
    if value == 0:
        z = [Fraction(0)] * n
        for i in range(m):
            if basis[i] < n:
                z[basis[i]] = Fraction(rhs[i], den)
        for j in range(n):
            if flipped[j]:
                z[j] = U[j] - z[j]
        x = [zj + lo[j] for j, zj in enumerate(z)]
        if _oracle_mat_vec_fraction(A, x) != [Fraction(v) for v in b]:
            raise ArithmeticError("phase-1 produced an invalid point")
        if any(not lo[j] <= x[j] <= hi[j] for j in range(n)):
            raise ArithmeticError("phase-1 point violates the box")
        return x, None
    # infeasible: Farkas vector from the artificial reduced costs
    y = [1 - Fraction(cost[n + i], den) for i in range(m)]
    pi = [row_sign[i] * y[i] for i in range(m)]
    return None, _oracle_normalize_farkas(A, b, lo, hi, pi)


def _oracle_normalize_farkas(A, b, lo, hi, pi):
    """Scale a Farkas vector and verify it separates the box exactly."""
    m, n = _shape(A)
    g = [sum(A[i][j] * pi[i] for i in range(m)) for j in range(n)]
    cap = sum(max(gj * lo[j], gj * hi[j]) for j, gj in enumerate(g))
    dot = sum(Fraction(b[i]) * pi[i] for i in range(m))
    if dot <= cap:
        raise ArithmeticError("phase-1 produced an invalid Farkas certificate")
    norm1 = sum(abs(gj) for gj in g)
    if norm1 > 0:
        pi = [v / norm1 for v in pi]
    return pi


def _oracle_mat_vec_fraction(A, x):
    return [sum(Fraction(a) * v for a, v in zip(row, x)) for row in A]


def oracle_all_solutions(A, b, bound):
    """All integer solutions with ||x||_inf <= bound (tiny systems only)."""
    m = len(A)
    n = len(A[0]) if m else 0
    sols = []
    for x in iproduct(range(-bound, bound + 1), repeat=n):
        if all(sum(A[i][j] * x[j] for j in range(n)) == b[i] for i in range(m)):
            sols.append(list(x))
    return sols


def oracle_euler(X):
    return sum((-1) ** k * X.n_cells(k) for k in range(X.dim + 1))


def oracle_floyd_warshall(X):
    """All-pairs vertex distances by Floyd-Warshall (unit edge lengths)."""
    n = X.n_cells(0)
    INF = float("inf")
    d = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for e in range(X.n_cells(1)):
        ends = sorted(X.boundary_of(1, e))
        if len(ends) == 2:
            u, v = ends
            d[u][v] = d[v][u] = 1
    for m in range(n):
        dm = d[m]
        for i in range(n):
            dim_ = d[i][m]
            if dim_ == INF:
                continue
            di = d[i]
            for j in range(n):
                alt = dim_ + dm[j]
                if alt < di[j]:
                    di[j] = alt
    return d


def oracle_rank_mod_p(A, p):
    """Rank over GF(p) by direct modular Gaussian elimination."""
    if not A or not A[0]:
        return 0
    M = [[v % p for v in row] for row in A]
    m, n = len(M), len(M[0])
    rank = 0
    row = 0
    for col in range(n):
        piv = None
        for i in range(row, m):
            if M[i][col] % p:
                piv = i
                break
        if piv is None:
            continue
        M[row], M[piv] = M[piv], M[row]
        inv = pow(M[row][col], p - 2, p)
        M[row] = [(v * inv) % p for v in M[row]]
        for i in range(m):
            if i != row and M[i][col]:
                f = M[i][col]
                M[i] = [(v - f * w) % p for v, w in zip(M[i], M[row])]
        rank += 1
        row += 1
        if row == m:
            break
    return rank


def oracle_cohomology_mod_p(X, k, p):
    """dim of H^k(X; F_p) by direct GF(p) ranks of the coboundary matrices."""
    def delta(j):
        if not 0 <= j < X.dim:
            return []
        rows = X.n_cells(j + 1)
        cols = X.n_cells(j)
        M = [[0] * cols for _ in range(rows)]
        for t in range(rows):
            for r, c in X.boundary_of(j + 1, t).items():
                M[t][r] = c
        return M

    up = oracle_rank_mod_p(delta(k), p)
    down = oracle_rank_mod_p(delta(k - 1), p) if k >= 1 else 0
    return X.n_cells(k) - up - down


def _oracle_sign_of_sort(seq):
    """Parity sign of the permutation sorting ``seq`` (0 if repeats)."""
    if len(set(seq)) != len(seq):
        return 0
    sign = 1
    items = list(seq)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] > items[j]:
                sign = -sign
    return sign


def oracle_simplicial_complex(simplices, labels=None):
    """Simplicial complex closed by adding every nonempty subset of each
    simplex, cells sorted by (size, tuple)."""
    closed = set()
    max_v = -1
    for s in simplices:
        verts = tuple(sorted(set(s)))
        if len(verts) != len(s):
            raise NotSimplicial(f"degenerate simplex {s}")
        max_v = max(max_v, verts[-1])
        for r in range(1, len(verts) + 1):
            for sub in combinations(verts, r):
                closed.add(sub)
    n_vertices = max_v + 1
    for v in range(n_vertices):
        closed.add((v,))
    dim = max(len(s) for s in closed) - 1
    by_dim = [[] for _ in range(dim + 1)]
    for s in sorted(closed, key=lambda t: (len(t), t)):
        by_dim[len(s) - 1].append(s)
    index = [{s: i for i, s in enumerate(level)} for level in by_dim]
    boundaries = [None]
    for k in range(1, dim + 1):
        cols = []
        for s in by_dim[k]:
            col = {}
            for i in range(k + 1):
                face = s[:i] + s[i + 1:]
                col[index[k - 1][face]] = (-1) ** i
            cols.append(col)
        boundaries.append(cols)
    # the cell constructor takes the columns as they are; the simplex
    # tables are attached here, not computed by CellComplex.from_simplices
    X = CellComplex([len(level) for level in by_dim], boundaries,
                    labels=labels)
    X.simplices = by_dim
    X._simplex_index = index
    return X


def oracle_simplicial_columns(X, k):
    """Boundary {face index: (-1)**i} of each k-simplex of X, face i
    dropping vertex i, the faces looked up in X's own simplex tuples."""
    index = {s: i for i, s in enumerate(X.simplices[k - 1])}
    return [{index[s[:i] + s[i + 1:]]: (-1) ** i for i in range(k + 1)}
            for s in X.simplices[k]]


def oracle_interval_product_columns(X, n, k):
    """Boundary dicts of the k-cells of X x [0, n] (slice cells level by
    level, then prisms) from d(s x [l, l+1]) = ds x [l, l+1]
    + (-1)**dim(s) (s x {l+1} - s x {l}); the columns of X are made from
    its simplex tuples when it has them."""
    counts = X.counts + [0]

    def base(d):
        if d < 1:
            return [{} for _ in range(counts[0])]
        return oracle_simplicial_columns(X, d) if X.is_simplicial else \
            X.boundary_columns(d)

    def slice_cell(d, i, level):
        return level * counts[d] + i

    def prism_cell(d, i, level):
        # a prism of dimension d over a base cell of dimension d - 1
        return (n + 1) * counts[d] + level * counts[d - 1] + i

    cols = []
    if k <= X.dim:
        for level in range(n + 1):
            cols += [{slice_cell(k - 1, r, level): c for r, c in col.items()}
                     for col in base(k)]
    for level in range(n):
        for i, col in enumerate(base(k - 1)):
            out = {prism_cell(k - 1, r, level): c for r, c in col.items()}
            out[slice_cell(k - 1, i, level + 1)] = (-1) ** (k - 1)
            out[slice_cell(k - 1, i, level)] = -(-1) ** (k - 1)
            cols.append(out)
    return cols


def oracle_boundary_squared_failure(X):
    """First cell (k, j), in order of dimension then index, where d.d is
    not zero, from one boundary dict per cell; None when d.d = 0."""
    for k in range(2, X.dim + 1):
        below = [X.boundary_of(k - 1, r) for r in range(X.n_cells(k - 1))]
        for j in range(X.n_cells(k)):
            acc = {}
            for r, c in X.boundary_of(k, j).items():
                for r2, c2 in below[r].items():
                    acc[r2] = acc.get(r2, 0) + c * c2
            if any(acc.values()):
                return (k, j)
    return None


def oracle_from_vertex_map(source, target, vertex_map):
    """Simplicial map as per-dimension lists of one {image index: sign}
    dict per source cell ({} where the image is degenerate)."""
    vm = list(vertex_map)
    if len(vm) != source.n_cells(0):
        raise ShapeMismatch("vertex map length != vertex count")
    assignment = []
    for k in range(source.dim + 1):
        level = []
        for verts in source.simplices[k]:
            images = [vm[v] for v in verts]
            sign = _oracle_sign_of_sort(images)
            if sign == 0:
                level.append({})
                continue
            idx = target.simplex_index(images)
            if idx is None:
                raise NotSimplicial(
                    f"image {tuple(sorted(images))} is not a simplex of the target"
                )
            level.append({idx: sign})
        assignment.append(level)
    return assignment


def oracle_compose(outer, inner):
    """Image dicts of ``outer`` after ``inner``, both given as image dicts."""
    composed = []
    for k, level in enumerate(inner):
        out = []
        for img in level:
            acc = {}
            for j, c in img.items():
                for m, c2 in (outer[k][j] if k < len(outer) else {}).items():
                    acc[m] = acc.get(m, 0) + c * c2
            out.append({m: c for m, c in acc.items() if c != 0})
        composed.append(out)
    return composed


def oracle_product_cellmap(prod_src, prod_dst, f, g):
    """Image dicts of (a x b) -> f(a) x g(b) on interval products, from the
    image dicts of a base map ``f`` and a path map ``g``."""
    Xs = prod_src.base
    assignment = []
    for k in range(prod_src.complex.dim + 1):
        level = []
        for l in range(prod_src.n + 1):
            for i in range(Xs.n_cells(k)):
                acc = {}
                for j, c in f[k][i].items():
                    for w, c2 in g[0][l].items():
                        idx = prod_dst.slice_cell(k, j, w)
                        acc[idx] = acc.get(idx, 0) + c * c2
                level.append({m: c for m, c in acc.items() if c != 0})
        for l in range(prod_src.n):
            for i in range(Xs.n_cells(k - 1)):
                acc = {}
                for j, c in f[k - 1][i].items():
                    for w, c2 in g[1][l].items():
                        idx = prod_dst.prism_cell(k, j, w)
                        acc[idx] = acc.get(idx, 0) + c * c2
                level.append({m: c for m, c in acc.items() if c != 0})
        assignment.append(level)
    return assignment


def oracle_chain_map_failure(source, target, assignment):
    """First cell (k, i) where d f(c) != f(d c), in order of dimension then
    index, or None when the dicts form a chain map."""
    for k in range(1, source.dim + 1):
        for i in range(source.n_cells(k)):
            lhs = {}
            for j, c in assignment[k][i].items():
                for r, c2 in target.boundary_of(k, j).items():
                    lhs[r] = lhs.get(r, 0) + c * c2
            rhs = {}
            for r, c in source.boundary_of(k, i).items():
                for j, c2 in assignment[k - 1][r].items():
                    rhs[j] = rhs.get(j, 0) + c * c2
            lhs = {j: c for j, c in lhs.items() if c != 0}
            rhs = {j: c for j, c in rhs.items() if c != 0}
            if lhs != rhs:
                return (k, i)
    return None


def oracle_is_light(f):
    """Lightness from the vertex map alone: injective on every simplex."""
    return all(len({f.vertex_map[v] for v in verts}) == len(verts)
               for level in f.source.simplices for verts in level)


def oracle_cell_carriers(sub, kind):
    """``{(dim, index): base cell}`` for every cell of a subdivision of the
    given kind ("barycentric", "midpoint" or "cone"), cell by cell.  A cone
    subdivision is read against the midpoint subdivision of its base."""
    X, sd = sub.base, sub.complex
    carrier = {}
    if kind == "barycentric":
        # the flag simplex over its largest cell
        cell_order = [(k, i) for k in range(X.dim + 1)
                      for i in range(X.n_cells(k))]
        for k in range(sd.dim + 1):
            for i, verts in enumerate(sd.simplices[k]):
                carrier[(k, i)] = max(cell_order[v] for v in verts)
        return carrier
    if kind == "cone":
        mid = midpoint_subdivision_global(X)
        inner, msd = oracle_cell_carriers(mid, "midpoint"), mid.complex
        face_of = {a: f for f, a in sub.apexes.items()}
        for k in range(sd.dim + 1):
            for i, verts in enumerate(sd.simplices[k]):
                base_cell = None
                if all(v < msd.n_cells(0) for v in verts):
                    old = msd.simplex_index(verts)
                    if old is not None:
                        base_cell = inner[(k, old)]
                if base_cell is None:
                    # touches an apex, its largest vertex: carried by the
                    # base face that owns it
                    base_cell = (2, face_of.get(verts[-1]))
                carrier[(k, i)] = base_cell
        return carrier
    assert kind == "midpoint", kind
    n0 = X.n_cells(0)
    for v in range(n0):
        carrier[(0, v)] = (0, v)
    for e in range(X.n_cells(1)):
        carrier[(0, n0 + e)] = (1, e)
        u, v = X.simplices[1][e]
        for pair in ((u, n0 + e), (min(n0 + e, v), max(n0 + e, v))):
            carrier[(1, sd.simplex_index(pair))] = (1, e)
    for f in range(X.n_cells(2) if X.dim >= 2 else 0):
        a, b, c = X.simplices[2][f]
        mab, mac, mbc = (n0 + X.simplex_index(e)
                         for e in ((a, b), (a, c), (b, c)))
        for tri in ((a, mab, mac), (b, mab, mbc), (c, mac, mbc),
                    (mab, mac, mbc)):
            carrier[(2, sd.simplex_index(tri))] = (2, f)
        for pair in combinations(sorted((mab, mac, mbc)), 2):
            carrier[(1, sd.simplex_index(pair))] = (2, f)
    return carrier


def oracle_simplicial_approx_identity(sub, cell_carriers):
    """Approximation of the identity, every carrier looked up per cell in
    the table ``cell_carriers``."""
    tau, base = sub.complex, sub.base
    vm = []
    for v in range(tau.n_cells(0)):
        c = cell_carriers.get((0, v))
        if c is None:
            raise NoValidAssignment(f"no carrier for vertex {v}")
        vm.append(base.simplices[c[0]][c[1]][0])
    rho = CellMap.from_vertex_map(tau, base, vm)
    for k in range(tau.dim + 1):
        for i in range(tau.n_cells(k)):
            carrier = cell_carriers.get((k, i))
            if carrier is None:
                raise NoValidAssignment(f"no carrier for cell (dim {k}, {i})")
            carrier_verts = set(base.simplices[carrier[0]][carrier[1]])
            image_verts = {vm[v] for v in tau.simplices[k][i]}
            if not image_verts <= carrier_verts:
                raise NoValidAssignment(
                    f"approximation escapes the carrier at cell (dim {k}, {i})"
                )
    return rho


def oracle_check_stage_carriers(stage, cell_carriers, q=None):
    """Carrier containment of q, one image lookup and carrier set per
    simplex, the tau carriers read from the table ``cell_carriers``."""
    X = stage.complex
    tau, tau_map = stage.tau, stage.tau_map
    q = q if q is not None else stage.projection
    host = tau.base
    vm_tau = tau_map.vertex_map
    vm_q = q.vertex_map
    tauC = tau.complex
    for k in range(X.dim + 1):
        for i in range(X.n_cells(k)):
            verts = X.simplices[k][i]
            t_imgs = tuple(sorted({vm_tau[v] for v in verts}))
            t_idx = tauC.simplex_index(t_imgs)
            if t_idx is None:
                return False, (k, i)
            carrier = cell_carriers[(len(t_imgs) - 1, t_idx)]
            carrier_verts = set(host.simplices[carrier[0]][carrier[1]])
            if not {vm_q[v] for v in verts} <= carrier_verts:
                return False, (k, i)
    return True, None


def oracle_open_star_refinement_witnesses(stage, cell_carriers):
    """Star-refinement witnesses, per vertex over its incident simplices,
    the tau carriers read from the table ``cell_carriers``."""
    X = stage.complex
    tau, tau_map = stage.tau, stage.tau_map
    host = tau.base
    tauC = tau.complex
    vm = tau_map.vertex_map
    incident = [[] for _ in range(X.n_cells(0))]
    for k in range(X.dim + 1):
        for i in range(X.n_cells(k)):
            for v in X.simplices[k][i]:
                incident[v].append((k, i))
    witnesses = {}
    ok = True
    for v in range(X.n_cells(0)):
        cand = None
        for (k, i) in incident[v]:
            imgs = tuple(sorted({vm[u] for u in X.simplices[k][i]}))
            t_idx = tauC.simplex_index(imgs)
            carrier = cell_carriers[(len(imgs) - 1, t_idx)]
            cv = set(host.simplices[carrier[0]][carrier[1]])
            cand = cv if cand is None else cand & cv
            if not cand:
                break
        if cand:
            witnesses[v] = min(cand)
        else:
            ok = False
            witnesses[v] = None
    return ok, witnesses


def oracle_pullback_subdivision(chi, tau, cell_carriers):
    """The subdivision tau pulled back through the light map chi, the tau
    carriers read from the table ``cell_carriers``: (complex, vertex map to
    tau), as ``towers.pullback_subdivision`` returns them."""
    M, Delta = chi.source, chi.target
    tauC = tau.complex
    # source cells by their exact image simplex
    by_image = {}
    for k in range(M.dim + 1):
        for i, verts in enumerate(M.simplices[k]):
            img = tuple(sorted(chi.vertex_map[v] for v in verts))
            by_image.setdefault(img, []).append((k, i))
    verts_new = []
    vert_index = {}
    for w in range(tauC.n_cells(0)):
        cw = cell_carriers[(0, w)]
        c_img = tuple(sorted(Delta.simplices[cw[0]][cw[1]]))
        for m in by_image.get(c_img, []):
            vert_index[(w, m)] = len(verts_new)
            verts_new.append(w)
    simplices = []
    for k in range(tauC.dim + 1):
        for t, tverts in enumerate(tauC.simplices[k]):
            ct = cell_carriers[(k, t)]
            c_img = tuple(sorted(Delta.simplices[ct[0]][ct[1]]))
            for m in by_image.get(c_img, []):
                # face of m over each vertex carrier, through chi's iso
                mk, mi = m
                mverts = M.simplices[mk][mi]
                inv = {chi.vertex_map[v]: v for v in mverts}
                lift = []
                for w in tverts:
                    cw = cell_carriers[(0, w)]
                    wv = Delta.simplices[cw[0]][cw[1]]
                    sub_m = tuple(sorted(inv[x] for x in wv))
                    face = M.simplex_index(sub_m)
                    lift.append(vert_index[(w, (len(sub_m) - 1, face))])
                simplices.append(tuple(sorted(lift)))
    return oracle_simplicial_complex(sorted(set(simplices))), verts_new


def oracle_vertex_matching(X, Y, cells, identify):
    """The cell matching ``{Y-cell: (X-cell, sign)}`` that the vertex
    identification ``identify`` (Y-vertex -> X-vertex) induces on the
    Y-cells ``cells``, signs by pair inversions."""
    out = {}
    for k, i in cells:
        images = [identify[v] for v in Y.simplices[k][i]]
        out[(k, i)] = ((k, X.simplex_index(images)),
                       _oracle_sign_of_sort(images))
    return out


def oracle_glue(X, Y, matching):
    """Simplicial pushout of X and Y along a cell matching: the matched
    Y-cells must be boundary-closed and the matching must commute with the
    boundaries.  Unmatched Y-vertices are numbered after X's, in Y order;
    Y labels whose name X uses get a ``+``."""
    for (k, i) in matching:
        for r in Y.boundary_of(k, i):
            if (k - 1, r) not in matching:
                raise NotASubcomplex(
                    f"matched set is not boundary-closed at Y-cell (dim {k}, {i})"
                )
    for (k, i), ((kx, ix), sign) in matching.items():
        if k != kx:
            raise NotIsomorphic("matched cells have different dimensions")
        if k == 0:
            continue
        lhs = {}
        for r, c in Y.boundary_of(k, i).items():
            (_, rx), s2 = matching[(k - 1, r)]
            lhs[rx] = lhs.get(rx, 0) + c * s2
        rhs = {r: sign * c for r, c in X.boundary_of(k, ix).items()}
        if {r: c for r, c in lhs.items() if c != 0} != rhs:
            raise NotIsomorphic(
                f"matching does not commute with the boundary at Y-cell "
                f"(dim {k}, {i})"
            )
    n0 = X.n_cells(0)
    vmap = {}
    fresh = 0
    for i in range(Y.n_cells(0)):
        if (0, i) in matching:
            vmap[i] = matching[(0, i)][0][1]
        else:
            vmap[i] = n0 + fresh
            fresh += 1
    tuples = [verts for level in X.simplices for verts in level]
    y_tuples = {}
    for k in range(Y.dim + 1):
        for i in range(Y.n_cells(k)):
            verts = tuple(sorted(vmap[v] for v in Y.simplices[k][i]))
            if len(set(verts)) != len(verts):
                raise NotIsomorphic(
                    f"identification degenerates Y-cell (dim {k}, {i})"
                )
            y_tuples[(k, i)] = verts
            if (k, i) not in matching:
                tuples.append(verts)
    Z = oracle_simplicial_complex(tuples)
    labels = {}
    for name, cells in X.labels.items():
        labels[name] = tuple(sorted(
            (k, Z.simplex_index(X.simplices[k][i])) for k, i in cells))
    for name, cells in Y.labels.items():
        key = name
        while key in labels:
            key += "+"
        labels[key] = tuple(sorted(
            (k, Z.simplex_index(y_tuples[(k, i)])) for k, i in cells))
    return Z.relabeled(labels)


def oracle_pullback_complex(chi, phi, tau, size_guard):
    """Fiber product of chi and phi from every pair (sigma, t): sigma any
    simplex of phi's source, t any simplex of the pulled-back subdivision
    with chi's image phi(sigma) and the same dimension as that image.

    Returns (complex, base vertex map, fiber vertex map, pair index); the
    complex is closed by ``oracle_simplicial_complex``.  Counts pairs
    against ``size_guard`` as they are made.
    """
    tau_M, chi_vm = pullback_subdivision(chi, tau)
    Mp = phi.source
    by_img = {}
    for k in range(tau_M.dim + 1):
        for i, verts in enumerate(tau_M.simplices[k]):
            img = tuple(sorted({chi_vm[v] for v in verts}))
            by_img.setdefault(img, []).append((k, i))
    pair_verts = []
    pair_index = {}
    for v in range(Mp.n_cells(0)):
        for (kk, i) in by_img.get((phi.vertex_map[v],), []):
            if kk == 0:
                x = tau_M.simplices[0][i][0]
                pair_index[(v, x)] = len(pair_verts)
                pair_verts.append((v, x))
    est = 0
    simplices = []
    for k in range(Mp.dim + 1):
        for verts in Mp.simplices[k]:
            img = tuple(sorted({phi.vertex_map[v] for v in verts}))
            for (kk, t) in by_img.get(img, []):
                if kk != len(img) - 1:
                    continue
                inv = {chi_vm[x]: x for x in tau_M.simplices[kk][t]}
                simplices.append(tuple(sorted(
                    pair_index[(v, inv[phi.vertex_map[v]])] for v in verts)))
                est += 1
                if est > size_guard:
                    raise SizeGuardExceeded(
                        f"pullback exceeds {size_guard} simplices")
    P = oracle_simplicial_complex(sorted(set(simplices)))
    return (P, [v for v, _ in pair_verts], [x for _, x in pair_verts],
            pair_index)


def oracle_serialize_complex(X):
    """Format v2 text of a complex, one string per line: simplex blocks for
    a simplicial complex, boundary triples row-major for any other."""

    lines = ["coarse-kit-complex v2", f"dim {X.dim}",
             "counts " + " ".join(str(c) for c in X.counts)]
    if X.is_simplicial:
        for k in range(X.dim + 1):
            lines.append(f"simplices {k}")
            for verts in X.simplices[k]:
                lines.append(" ".join(map(str, verts)))
            lines.append("end")
    else:
        for k in range(1, X.dim + 1):
            lines.append(f"boundary {k}")
            # (row, col) pairs are unique and columns are visited in order,
            # so per-row buckets come out sorted row-major
            rows = [[] for _ in range(X.n_cells(k - 1))]
            for j, col in enumerate(X.boundary_columns(k)):
                for r, c in col.items():
                    rows[r].append(f"{r} {j} {c}")
            for row in rows:
                lines.extend(row)
            lines.append("end")
    for name in sorted(X.labels):
        cells = " ".join(f"{d}:{i}" for d, i in X.labels[name])
        lines.append(f"label {name} {cells}".rstrip())
    return "\n".join(lines) + "\n"


def _oracle_cycle_from(X, label, start):
    order = cycle_vertices_of_label(X, label)
    i = order.index(start)
    return order[i:] + order[:i]


def _oracle_tower_chain(u, params):
    """Tower of degree-u cylinders from a collar circle down to a small hole.

    Returns a complex labeled "hole" (HOLE_EDGES edges) and "collar"
    (the outer rim), with composite winding u^k from collar to hole.
    In reduce mode every circle is HOLE_EDGES or HOLE_EDGES*u; otherwise the
    stage sizes run HOLE_EDGES^k * u^i with a final coarsening to the hole.
    """
    k = params.k
    if params.reduce:
        S, _ = annulus_triangulation(HOLE_EDGES * u, HOLE_EDGES)
        chain = S.relabeled({
            "hole": S.label_cells("target-rim"),
            "top": S.label_cells("domain-rim"),
        })
        for _ in range(k - 1):
            C, _ = coarsening_cylinder(HOLE_EDGES * u, HOLE_EDGES)
            chain = _oracle_attach_cyl(chain, C, attach="domain-rim", free="target-rim")
            S2, _ = annulus_triangulation(HOLE_EDGES * u, HOLE_EDGES)
            chain = _oracle_attach_cyl(chain, S2, attach="target-rim", free="domain-rim")
    else:
        base = HOLE_EDGES ** k
        S, _ = annulus_triangulation(base * u, base)
        if base > HOLE_EDGES:
            C0, _ = coarsening_cylinder(base, HOLE_EDGES)
            chain = C0.relabeled({
                "hole": C0.label_cells("target-rim"),
                "top": C0.label_cells("domain-rim"),
            })
            chain = _oracle_attach_cyl(chain, S, attach="target-rim", free="domain-rim")
        else:
            chain = S.relabeled({
                "hole": S.label_cells("target-rim"),
                "top": S.label_cells("domain-rim"),
            })
        for i in range(2, k + 1):
            Si, _ = annulus_triangulation(base * u ** i, base * u ** (i - 1))
            chain = _oracle_attach_cyl(chain, Si, attach="target-rim", free="domain-rim")
    return chain


def _oracle_attach_cyl(chain, piece, attach, free):
    """Glue a cylinder's ``attach`` rim onto the chain's "top"; relabel.

    All labels of the chain except "top" survive; the new "top" is the
    piece's other rim.
    """
    top_order = cycle_vertices_of_label(chain, "top")
    rim_order = cycle_vertices_of_label(piece, attach)
    if len(top_order) != len(rim_order):
        raise InvalidParams(
            f"cannot chain: rim sizes {len(rim_order)} vs {len(top_order)}"
        )
    vm = {rim_order[t]: top_order[t] for t in range(len(rim_order))}
    Z = glue(chain, piece, subcomplex_matching(chain, "top", piece, attach, vm))
    labels = {name: Z.label_cells(name) for name in chain.labels
              if name != "top"}
    labels["top"] = Z.label_cells(free)
    return Z.relabeled(labels)


def _oracle_pants(ap, aq):
    """Triangulated mapping cylinder of the two-point collapse.

    Domain rim: circle(ap + aq); target: wedge of circles with ap and aq
    edges meeting at the image of the two collapsed points.  Labels:
    "domain-rim", "wedge" (the whole target), "p-loop", "q-loop".
    """
    W = wedge(circle(ap), circle(aq), 0, 0)
    # wedge complex: X-circle keeps vertices 0..ap-1; Y-vertex u >= 1 lands
    # at ap + u - 1; the wedge point is 0
    dom = circle(ap + aq)
    vm = [0] * (ap + aq)
    for t in range(ap):
        vm[t] = t
    for u in range(1, aq):
        vm[ap + u] = ap + u - 1
    f = CellMap.from_vertex_map(dom, W, vm)
    cyl, _, retr = mapping_cylinder(f)
    nk = ap + aq
    p_loop_verts = set(range(nk, nk + ap))
    q_loop_verts = {nk} | set(range(nk + ap, nk + ap + aq - 1))
    labels = {
        "domain-rim": cyl.label_cells("domain"),
        "wedge": cyl.label_cells("target"),
        "p-loop": _vertex_span_cells(cyl, p_loop_verts),
        "q-loop": _vertex_span_cells(cyl, q_loop_verts),
    }
    return cyl.relabeled(labels)


def oracle_build_Mk(params):
    """M(p, q, k) as ``towers.build_Mk`` assembled it before it glued
    triangle lists: every gluing step a ``glue`` pushout of two complexes.

    Pieces, glued hole-outward: two tower chains wedged at their collars, a
    pair-of-pants cylinder over the wedge, a degree-one coarsening collar
    down to a triangle, and the midpoint-subdivided triangle with its middle
    face removed.  The boundary is the subdivided triangle boundary; phi
    collapses everything inside the middle hole onto one midpoint vertex and
    is the identity on the outer part.
    """
    p, q, k = params.p, params.q, params.k
    ap = HOLE_EDGES * p if params.reduce else (HOLE_EDGES * p) ** k
    aq = HOLE_EDGES * q if params.reduce else (HOLE_EDGES * q) ** k
    # tower chains, wedged at their collar base points
    TP = _oracle_tower_chain(p, params)
    TQ = _oracle_tower_chain(q, params)
    TP = TP.relabeled({"p-hole": TP.label_cells("hole"),
                       "collar-p": TP.label_cells("top")})
    TQ = TQ.relabeled({"q-hole": TQ.label_cells("hole"),
                       "collar-q": TQ.label_cells("top")})
    base_p = cycle_vertices_of_label(TP, "collar-p")[0]
    base_q = cycle_vertices_of_label(TQ, "collar-q")[0]
    W = wedge(TP, TQ, base_p, base_q)
    wedge_vertex = base_p
    # pair of pants over the wedge of collars
    P = _oracle_pants(ap, aq)
    p_order = _oracle_cycle_from(W, "collar-p", wedge_vertex)
    q_order = _oracle_cycle_from(W, "collar-q", wedge_vertex)
    loop_p = _oracle_cycle_from(P, "p-loop", ap + aq)
    loop_q = _oracle_cycle_from(P, "q-loop", ap + aq)
    vm = {}
    for t, v in enumerate(loop_p):
        vm[v] = p_order[t]
    for t, v in enumerate(loop_q):
        vm[v] = q_order[t]
    wedge_cells = tuple(sorted(set(P.label_cells("p-loop"))
                               | set(P.label_cells("q-loop"))))
    P = P.relabeled({"wedge": wedge_cells,
                     "domain-rim": P.label_cells("domain-rim")})
    collar_cells = tuple(sorted(set(W.label_cells("collar-p"))
                                | set(W.label_cells("collar-q"))))
    W = W.relabeled({**{n: W.label_cells(n) for n in ("p-hole", "q-hole")},
                     "collar-wedge": collar_cells})
    M1 = glue(W, P, subcomplex_matching(W, "collar-wedge", P, "wedge", vm))
    # coarsening collar down to the middle triangle size
    K, _ = coarsening_cylinder(ap + aq, HOLE_EDGES)
    guts = _oracle_attach_cyl(
        M1.relabeled({"top": M1.label_cells("domain-rim"),
                      "p-hole": M1.label_cells("p-hole"),
                      "q-hole": M1.label_cells("q-hole")}),
        K, attach="domain-rim", free="target-rim",
    )
    guts = guts.relabeled({
        "p-hole": guts.label_cells("p-hole"),
        "q-hole": guts.label_cells("q-hole"),
        "guts-boundary": guts.label_cells("top"),
    })
    # the holed subdivided triangle
    tau = midpoint_subdivision(filled_triangle())
    (middle,) = tau.complex.label_cells("middle")
    D = remove_cells(tau.complex, [middle])
    vm2 = {}
    g_order = cycle_vertices_of_label(guts, "guts-boundary")
    d_order = cycle_vertices_of_label(D, "middle-boundary")
    for t, v in enumerate(g_order):
        vm2[v] = d_order[t]
    M = glue(D, guts, subcomplex_matching(D, "middle-boundary", guts,
                                          "guts-boundary", vm2))
    M = M.relabeled({name: M.label_cells(name) for name in
                     ("boundary", "middle-boundary", "p-hole", "q-hole")})
    # phi: identity on the subdivided-triangle part, everything else onto
    # one midpoint vertex of the middle face
    n_outer = tau.complex.n_cells(0)
    mid_vertex = 3  # midpoint of edge (0, 1) in the subdivision
    phi_vm = [v if v < n_outer else mid_vertex for v in range(M.n_cells(0))]
    phi = CellMap.from_vertex_map(M, tau.complex, phi_vm)
    rho = simplicial_approx_identity(tau)
    mu = fundamental_class(filled_triangle(), 2)
    obstruction = pullback_cochain(rho.compose(phi), mu)
    bundle = MkBundle(
        complex=M, params=params, phi=phi, tau=tau, obstruction=obstruction,
    )
    _check_bundle(bundle)
    return bundle
