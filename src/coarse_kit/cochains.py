"""Cochains with sup-norms and exact simplicial cohomology.

Coefficients are Z, Z_p (p prime) or Q.  Cohomology comes out of Smith normal
form of the coboundary matrices, which are built in one form only: sparse
{column: int} rows read off the boundary columns a complex stores, handed to
every solver as they are.  For finite complexes the bounded theory
agrees with it degree by degree, so the quantitative content lives in the
norm certificates (minimal primitives), not in extra groups.  Relative
cochains use the kernel model: cochains vanishing on the subcomplex.
Minimal primitives, and the rational points of their LP probes, are found
by early-exit Bellman-Ford on the potentials.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import isqrt

from .errors import (
    DegreeOutOfRange,
    InvalidParams,
    NodeLimitExceeded,
    NotACoboundary,
    NotASubcomplex,
    ShapeMismatch,
    WrongShape,
)
from .exact_linalg import (
    NormCertificate,
    _unimodular_inverse,
    box_feasibility,
    kernel_lattice_basis,
    lattice_quotient_complement,
    smith_normal_form,
    solve_integer,
)

RING_Z = "Z"
RING_Q = "Q"
MAX_CUT_RUNS = 64  # Bellman-Ford runs of one LP-probe cut loop


def is_prime(n):
    """True when the integer n is prime."""
    return n >= 2 and all(n % f for f in range(2, isqrt(n) + 1))


def ring_zp(p):
    """The ring Z_p; raises InvalidParams unless p is prime."""
    if not is_prime(p):
        raise InvalidParams(f"Z_p needs a prime p, got {p}")
    return ("Zp", p)


def _is_zp(ring):
    return isinstance(ring, tuple) and ring[0] == "Zp"


@dataclass
class Cochain:
    """Coefficient function on the k-cells of a complex.

    For Z_p the values are canonical representatives 0..p-1 and the sup
    semi-norm is identically zero (every mod-p cochain is bounded); for Z
    and Q the norm is the max absolute value.
    """

    complex: object
    degree: int
    ring: object
    values: list

    def __post_init__(self):
        want = self.complex.n_cells(self.degree)
        if len(self.values) != want:
            raise ShapeMismatch(
                f"{len(self.values)} values for {want} cells of degree {self.degree}"
            )
        if _is_zp(self.ring):
            p = self.ring[1]
            self.values = [int(v) % p for v in self.values]

    def norm(self):
        if _is_zp(self.ring):
            return 0
        return max((abs(v) for v in self.values), default=0)

    def support(self):
        return [i for i, v in enumerate(self.values) if v != 0]

    def __eq__(self, other):
        return (
            isinstance(other, Cochain)
            and self.degree == other.degree
            and self.ring == other.ring
            and list(self.values) == list(other.values)
        )


def zero_cochain(X, degree, ring=RING_Z):
    return Cochain(X, degree, ring, [0] * X.n_cells(degree))


@dataclass
class CohomologySummary:
    degree: int
    ring: object
    free_rank: int
    torsion: list

    def __str__(self):
        if _is_zp(self.ring):
            name = f"Z_{self.ring[1]}"
        else:
            name = self.ring
        parts = [name] * self.free_rank + [f"Z_{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


def _coboundary_rows(X, k, rows, cols):
    """Block of delta: C^k -> C^{k+1} on chosen cells, as sparse rows.

    Row s is the (k+1)-cell ``rows[s]``, as {t: coefficient} over the k-cells
    ``cols[t]``; boundary entries on k-cells outside ``cols`` are dropped.
    """
    col_pos = {i: t for t, i in enumerate(cols)}
    return [{col_pos[r]: c for r, c in X.boundary_of(k + 1, j).items()
             if r in col_pos} for j in rows]


def _cells(X, k, A_cells, inside=False):
    """Indices of the k-cells outside (or inside) a subcomplex, in order."""
    return [i for i in range(X.n_cells(k)) if ((k, i) in A_cells) == inside]


def coboundary(c):
    """delta of a cochain, evaluated cell by cell."""
    X, k = c.complex, c.degree
    if k >= X.dim:
        return Cochain(X, k + 1, c.ring, [])
    vals = []
    for j in range(X.n_cells(k + 1)):
        acc = 0
        for r, coeff in X.boundary_of(k + 1, j).items():
            acc += coeff * c.values[r]
        vals.append(acc)
    return Cochain(X, k + 1, c.ring, vals)


def _rank_mod_p(diag, p):
    return sum(1 for d in diag if d % p != 0)


def _subcomplex_cells(X, subcomplex):
    """Normalize a subcomplex argument (label name or cell iterable)."""
    if subcomplex is None:
        return set()
    if isinstance(subcomplex, str):
        cells = set(X.label_cells(subcomplex))
    else:
        cells = {(int(d), int(i)) for d, i in subcomplex}
    for (k, i) in cells:
        if not 0 <= i < X.n_cells(k):
            raise NotASubcomplex(f"cell (dim {k}, {i}) is not in the complex")
        for r in X.boundary_of(k, i):
            if (k - 1, r) not in cells:
                raise NotASubcomplex(
                    f"cells are not boundary-closed at (dim {k}, {i})"
                )
    return cells


def relative_coboundary_matrix(X, A_cells, k):
    """Coboundary on cochains vanishing on a subcomplex.

    Columns: k-cells outside A; rows: (k+1)-cells outside A.  Returns
    (matrix, kept column indices, kept row indices), the matrix as one
    {column position: coefficient} row per kept row, over len(cols)
    columns.
    """
    cols = _cells(X, k, A_cells)
    rows = _cells(X, k + 1, A_cells)
    return _coboundary_rows(X, k, rows, cols), cols, rows


def _invariant_factors(rows, ncols):
    """Nonzero invariant factors of a matrix given by sparse rows."""
    snf = smith_normal_form(rows, ncols=ncols, factors=False)
    return [d for d in snf.diagonal() if d]


def _coboundary_factors(X, k):
    """Nonzero invariant factors of delta_k, factored once per complex
    (memoised in ``X.coboundary_factors``); they serve every ring.

    The rows of delta_k are the boundary columns of the (k+1)-cells, so
    they go to the Smith form as stored.
    """
    memo = X.coboundary_factors
    if k not in memo:
        memo[k] = _invariant_factors(X.boundary_columns(k + 1), X.n_cells(k))
    return memo[k]


def _cohomology_from_factors(down, up, n_k, ring):
    """Ranks/torsion of ker(delta_k)/im(delta_{k-1}) over the given ring,
    from the nonzero invariant factors of delta_{k-1} (``down``) and
    delta_k (``up``)."""
    if ring == RING_Z:
        free = n_k - len(up) - len(down)
        torsion = sorted(d for d in down if d > 1)
        return free, torsion
    if ring == RING_Q:
        free = n_k - len(up) - len(down)
        return free, []
    if _is_zp(ring):
        p = ring[1]
        free = n_k - _rank_mod_p(up, p) - _rank_mod_p(down, p)
        return free, []
    raise ShapeMismatch(f"unknown ring {ring!r}")


def cohomology(X, k, ring=RING_Z):
    """H^k of a finite complex over Z, Z_p or Q (Smith-form computation)."""
    if not 0 <= k <= X.dim:
        raise DegreeOutOfRange(f"degree {k} outside 0..{X.dim}")
    up = _coboundary_factors(X, k) if k < X.dim else []
    down = _coboundary_factors(X, k - 1) if k >= 1 else []
    free, torsion = _cohomology_from_factors(down, up, X.n_cells(k), ring)
    return CohomologySummary(degree=k, ring=ring, free_rank=free, torsion=torsion)


def _relative_factors(X, A_cells, k):
    """Nonzero invariant factors of the relative delta_k (cells outside A)."""
    rows, cols, _ = relative_coboundary_matrix(X, A_cells, k)
    return _invariant_factors(rows, len(cols))


def relative_cohomology(X, subcomplex, k, ring=RING_Z):
    """H^k(X, A): cohomology of the cochains vanishing on the subcomplex."""
    if not 0 <= k <= X.dim:
        raise DegreeOutOfRange(f"degree {k} outside 0..{X.dim}")
    A_cells = _subcomplex_cells(X, subcomplex)
    up = _relative_factors(X, A_cells, k) if k < X.dim else []
    down = _relative_factors(X, A_cells, k - 1) if k >= 1 else []
    free, torsion = _cohomology_from_factors(
        down, up, len(_cells(X, k, A_cells)), ring)
    return CohomologySummary(degree=k, ring=ring, free_rank=free, torsion=torsion)


# -- exactness of the pair sequence --------------------------------------------


def _field_rank_kernel(rows, field, ncols):
    """Rank and kernel of a matrix over Q or F_p, read off one Smith form.

    The matrix M is given by sparse {column: int} rows over ``ncols``
    columns.  U M V = D with U and V invertible over the field, so the rank
    counts the diagonal entries that are units there, and the columns j of V
    with d_j = 0 (Q) or p | d_j (F_p), every j past the diagonal included,
    span ker(M).  ``kernel`` has one {kernel vector: value} row per column
    of M.
    """
    p = field[1] if _is_zp(field) else None
    if p:
        rows = [{j: v % p for j, v in row.items()} for row in rows]
    snf = smith_normal_form(rows, ncols=ncols)
    diag = snf.diagonal()
    rank = _rank_mod_p(diag, p) if p else snf.rank
    padded = diag + [0] * (ncols - len(diag))  # d_j = 0 past the diagonal
    free = [snf.v_cols[j] for j, d in enumerate(padded)
            if (d % p if p else d) == 0]
    kernel = [{} for _ in range(ncols)]
    for t, col in enumerate(free):
        for i, v in col.items():
            if p:
                v %= p
            if v:
                kernel[i][t] = v
    return rank, kernel


def _combine(row, Z):
    """sum_t row[t] * Z[t] for sparse rows: a row applied to Z's rows."""
    out = {}
    for t, c in row.items():
        for j, v in Z[t].items():
            out[j] = out.get(j, 0) + c * v
    return out


def _quotient_map_rank(fz, width, image, ring):
    """Rank of the induced map on cohomology over a field.

    ``fz``: the sparse rows of F Z, for F the cochain-level map and the
    ``width`` columns of Z spanning the source cocycles; ``image``: (B,
    columns of B, rank(B)), the sparse rows of B, whose columns span the
    target coboundaries.  rank = rank([F Z | B]) - rank(B).
    """
    B, B_cols, B_rank = image
    joint = [{**row_f, **{width + j: v for j, v in row_b.items()}}
             for row_f, row_b in zip(fz, B)]
    return _field_rank_kernel(joint, ring, width + B_cols)[0] - B_rank


def exactness_check(X, subcomplex, ring=RING_Q):
    """Rank-level exactness of ... -> H^k(X,A) -> H^k(X) -> H^k(A) -> ...

    Works over a field (Q or Z_p; Z requests are checked at rank level via
    Q, which tensoring preserves).  Computes the three induced maps in every
    degree from explicit cochain representatives and verifies
    dim = rank(in) + rank(out) at each node.  Returns a list of per-node
    records and raises nothing: the report carries pass/fail.
    """
    field = ring if _is_zp(ring) else RING_Q
    A_cells = _subcomplex_cells(X, subcomplex)
    dims = X.dim
    report = []

    def cells(kind, k):
        if kind == "abs":
            return list(range(X.n_cells(k)))
        return _cells(X, k, A_cells, inside=(kind == "sub"))

    # cocycle bases, coboundary rows and their ranks per degree for the
    # 3 theories: relative (cells outside A), absolute, and the subcomplex A
    spaces = {}
    for kind in ("rel", "abs", "sub"):
        for k in range(dims + 1):
            cols = cells(kind, k)
            delta = _coboundary_rows(X, k, cells(kind, k + 1), cols)
            rank, Z = _field_rank_kernel(delta, field, len(cols))
            spaces[(kind, k)] = {
                "cols": cols, "Z": Z, "delta": delta, "rank": rank,
            }

    def image_basis(kind, k):
        # coboundaries in degree k as columns, their count and rank: the
        # rows of delta_{k-1}, none below degree 0
        if k == 0:
            return [{} for _ in spaces[(kind, 0)]["cols"]], 0, 0
        prev = spaces[(kind, k - 1)]
        return prev["delta"], len(prev["cols"]), prev["rank"]

    def hdim(kind, k):  # dim ker(delta_k) - rank(delta_{k-1})
        space = spaces[(kind, k)]
        return len(space["cols"]) - space["rank"] - image_basis(kind, k)[2]

    def cocycles(kind, k):  # (Z, number of its columns)
        space = spaces[(kind, k)]
        return space["Z"], len(space["cols"]) - space["rank"]

    # F Z for the three maps per degree, F the cochain-level map
    def map_j(k):  # H^k(X, A) -> H^k(X): inclusion of relative cochains
        Z, width = cocycles("rel", k)
        pos = {i: t for t, i in enumerate(spaces[("rel", k)]["cols"])}
        return [Z[pos[i]] if i in pos else {}
                for i in range(X.n_cells(k))], width

    def map_res(k):  # H^k(X) -> H^k(A): restriction
        Z, width = cocycles("abs", k)
        return [Z[i] for i in spaces[("sub", k)]["cols"]], width

    def map_conn(k):  # H^k(A) -> H^{k+1}(X, A): extend by zero, then delta
        Z, width = cocycles("sub", k)
        delta = _coboundary_rows(X, k, spaces[("rel", k + 1)]["cols"],
                                 spaces[("sub", k)]["cols"])
        return [_combine(row, Z) for row in delta], width

    ranks = {}
    for k in range(dims + 1):
        ranks[("j", k)] = _quotient_map_rank(
            *map_j(k), image_basis("abs", k), field)
        ranks[("res", k)] = _quotient_map_rank(
            *map_res(k), image_basis("sub", k), field)
        if k + 1 <= dims:
            ranks[("conn", k)] = _quotient_map_rank(
                *map_conn(k), image_basis("rel", k + 1), field)
        else:
            ranks[("conn", k)] = 0

    ok_all = True
    for k in range(dims + 1):
        nodes = [
            (f"H^{k}(X,A)", hdim("rel", k), ranks[("conn", k - 1)] if k else 0,
             ranks[("j", k)]),
            (f"H^{k}(X)", hdim("abs", k), ranks[("j", k)], ranks[("res", k)]),
            (f"H^{k}(A)", hdim("sub", k), ranks[("res", k)], ranks[("conn", k)]),
        ]
        for name, dim_h, rin, rout in nodes:
            ok = dim_h == rin + rout
            ok_all = ok_all and ok
            report.append({
                "node": name, "dim": dim_h, "rank_in": rin, "rank_out": rout,
                "exact": ok,
            })
    return ok_all, report


# -- distinguished cochains ----------------------------------------------------


def fundamental_class(X, n):
    """The n-cochain taking value 1 on every n-cell of a simplex union.

    The complex must be a disjoint union of single closed n-simplices;
    raises WrongShape otherwise.  An empty union yields the zero cochain.
    """
    count = X.n_cells(n)
    if count:
        if X.dim != n:
            raise WrongShape(f"complex has dimension {X.dim}, not {n}")
        # each component is one closed n-simplex: fixed face counts per dim
        for k in range(n + 1):
            if X.n_cells(k) != _binom(n + 1, k + 1) * count:
                raise WrongShape(
                    "complex is not a disjoint union of single n-simplices"
                )
    return Cochain(X, n, RING_Z, [1] * count)


def _binom(n, k):
    out = 1
    for t in range(k):
        out = out * (n - t) // (t + 1)
    return out


def pullback_cochain(f, c):
    """f^* c: evaluate c on the chain image of every source cell."""
    X = f.source
    k = c.degree
    if k > X.dim:
        raise DegreeOutOfRange(f"degree {k} exceeds source dimension {X.dim}")
    vals = []
    for i in range(X.n_cells(k)):
        acc = 0
        for j, coeff in f.cell_image(k, i).items():
            acc += coeff * c.values[j]
        vals.append(acc)
    return Cochain(X, k, c.ring, vals)


# -- minimal primitives ---------------------------------------------------------


@dataclass
class PrimitiveResult:
    """Outcome of a minimal-primitive search for delta(gamma) = c."""

    certificate: object  # NormCertificate
    gamma: Cochain


def _pred_cycle(pred, edge_ends):
    """A cycle of the predecessor graph as (edge, direction) pairs in walking
    order, or None.  ``pred[v]`` is the arc that last lowered v (-1: none);
    arc 2e runs along edge e (u_e -> v_e), arc 2e + 1 against it."""
    mark = [-1] * len(pred)
    for s in range(len(pred)):
        v = s
        while v >= 0 and mark[v] < 0:
            mark[v] = s
            a = pred[v]
            v = edge_ends[a >> 1][a & 1] if a >= 0 else -1
        if v >= 0 and mark[v] == s:  # this walk came back to v
            cycle, x = [], v
            while True:
                a = pred[x]
                cycle.append((a >> 1, -1 if a & 1 else 1))
                x = edge_ends[a >> 1][a & 1]
                if x == v:
                    return cycle[::-1]
    return None


def _bellman_potentials(n_nodes, edge_ends, w, bound):
    """Integer potentials h with |w_e + h(v_e) - h(u_e)| <= bound on every
    edge, or a cycle showing there are none.

    The bound amounts to the difference constraints h_v - h_u <= bound - w_e
    and h_u - h_v <= bound + w_e: arcs u_e -> v_e and v_e -> u_e with those
    costs.  Bellman-Ford relaxes them edge by edge from all-zero potentials
    (a virtual source, so every component is reached).  Returns (h, None),
    or (None, cycle) with a negative cycle as (edge, +1 along u->v or -1
    against it) pairs, whose signed w-sum exceeds bound * length.  After
    every pass that lowered a potential the predecessor graph is searched:
    any cycle in it is negative (each of its arcs was tight when set and
    the last one set was strictly lowering), and a pass n that still lowers
    something leaves one there.  So an infeasible bound usually stops after
    a few passes (Cherkassky & Goldberg 1999).  A negative bound needs an
    edge to be refused.
    """
    dist = [0] * n_nodes
    pred = [-1] * n_nodes
    for _ in range(n_nodes):
        changed = False
        for e, ((u, v), we) in enumerate(zip(edge_ends, w)):
            d = dist[u] + bound - we
            if d < dist[v]:
                dist[v] = d
                pred[v] = 2 * e
                changed = True
            d = dist[v] + bound + we
            if d < dist[u]:
                dist[u] = d
                pred[u] = 2 * e + 1
                changed = True
        if not changed:
            return dist, None
        cycle = _pred_cycle(pred, edge_ends)
        if cycle is not None:
            return None, cycle
    raise ArithmeticError("pass n lowered a potential but left no cycle")


def _least_bound(n_nodes, edge_ends, w, below=None):
    """Least bound B such that integer potentials h meet
    |w_e + h(v_e) - h(u_e)| <= B on every edge, with the h of the
    ``_bellman_potentials`` run at B; or (below, None) when B >= below.

    Feasibility at a bound is monotone in it, so bisection over integer
    bounds finds B.  With ``below``, one run at below - 1 decides whether B
    is under it: a cycle says it is not, and so does below <= 0, since
    B >= 0.  Without ``below`` the bisection starts at max |w_e|, which
    h = 0 meets.
    """
    if below is None:
        hi, h = max(map(abs, w), default=0), None
    elif below <= 0:
        return below, None
    else:
        hi = below - 1
        h, cycle = _bellman_potentials(n_nodes, edge_ends, w, hi)
        if cycle is not None:
            return below, None
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        h_mid, cycle = _bellman_potentials(n_nodes, edge_ends, w, mid)
        if cycle is None:
            hi, h = mid, h_mid
        else:
            lo = mid + 1
    if h is None:  # no bound under max |w_e| was feasible
        h = _bellman_potentials(n_nodes, edge_ends, w, hi)[0]
    return hi, h


def min_norm_primitive(c, node_limit=10_000_000, vanishing_on=None):
    """Exact min ||gamma||_inf with delta(gamma) = c over Z (degree-2 c).

    ``vanishing_on``: optional subcomplex (label or cells); the minimum is
    then taken over primitives that vanish there (the relative problem the
    retraction obstruction actually poses).  Raises NotACoboundary when no
    primitive exists and DegreeOutOfRange when c is not of degree 2.

    The solution set is gamma0 + im(delta^0) + (free cocycle lattice); the
    free lattice (rank = first Betti number of the pair) is scanned in a
    bounded box, so no general branch and bound is needed.  At each lattice
    point the potential part is a difference-constraint problem: past the
    first point, one early-exit Bellman-Ford run decides whether the point
    beats the incumbent, and only a point that does is bisected to its exact
    bound.  A scan cut short by ``node_limit`` raises NodeLimitExceeded with
    a true interval; a ``node_limit`` below 1 raises InvalidParams.

    The bound optimum - 1 is probed by one exact LP, ``box_feasibility``:
    a Farkas vector makes the certificate "lp-dual", a rational point
    "search-exhausted".  For a free lattice of rank 1, ``_cut_point`` looks
    for the point first, and the simplex runs only if it finds none.
    """
    X, k = c.complex, c.degree
    if node_limit < 1:
        raise InvalidParams(f"node limit {node_limit} is below 1")
    if c.ring != RING_Z:
        raise NotACoboundary("minimal primitives are an integer computation")
    if k != 2:
        raise DegreeOutOfRange(
            f"minimal primitives are computed for degree-2 cochains, not {k}")
    A_cells = _subcomplex_cells(X, vanishing_on)
    M, cols, rows = relative_coboundary_matrix(X, A_cells, k - 1)
    b = [c.values[j] for j in rows]
    for j in range(X.n_cells(k)):
        if (k, j) in A_cells and c.values[j] != 0:
            raise NotACoboundary(
                "cochain is nonzero on the subcomplex its primitive must vanish on"
            )
    snf = smith_normal_form(M, ncols=len(cols))
    feas = solve_integer(M, b, snf=snf)
    if not feas:
        raise NotACoboundary(f"no integer primitive: {feas.obstruction}")
    gamma0 = feas.solution
    # the cocycle lattice comes from the same Smith form of M; U, D and V are
    # released before the search, where holding them raises peak memory
    K = kernel_lattice_basis(M, snf=snf)
    del snf
    # |c(s)| <= ||gamma|| * sum_e |<ds, e>| over relative edges on every
    # relative face s: the lower end of an interval the budget cuts short
    lower = max((-(-abs(bs) // sum(map(abs, row.values())))
                 for row, bs in zip(M, b) if any(row.values())), default=0)
    optimum, witness, meta = _structured_min(X, A_cells, cols, gamma0, M, K,
                                             node_limit=node_limit,
                                             lower=lower)
    # certificate at optimum - 1: one exact LP probe; Farkas when tight
    proof = {"kind": "search-exhausted", "bound": optimum - 1,
             "nodes": meta["evaluations"]}
    lp_bound = None
    if optimum == 0:
        proof = {"kind": "trivial", "detail": "optimum is zero"}
        lp_bound = Fraction(0)
    else:
        line = meta["line"]
        point = _cut_point(*line, optimum - 1) if line else None
        probe, farkas = box_feasibility(M, b, optimum - 1, point=point,
                                        ncols=len(cols))
        if probe is None:
            proof = {"kind": "lp-dual", "dual": farkas, "bound": optimum - 1}
            lp_bound = Fraction(optimum)
    cert = NormCertificate(
        optimum=optimum, witness=witness, infeasibility_proof=proof,
        node_count=meta["evaluations"], lp_bound=lp_bound,
    )
    gamma_vals = [0] * X.n_cells(k - 1)
    for t, i in enumerate(cols):
        gamma_vals[i] = witness[t]
    gamma = Cochain(X, k - 1, RING_Z, gamma_vals)
    if coboundary(gamma).values != list(c.values):
        raise ArithmeticError("primitive verification failed")
    return PrimitiveResult(certificate=cert, gamma=gamma)


def _structured_min(X, A_cells, cols, gamma0, M, K, node_limit=10_000_000,
                    lower=0):
    """Minimize ||gamma0 + delta0 h + free-lattice part||_inf exactly.

    Returns (optimum, witness vector over ``cols``, meta); ``meta["line"]``
    holds ``_cut_point``'s arguments but the bound when beta = 1.  ``cols``
    are the non-subcomplex edge indices; potentials live on non-subcomplex
    vertices with subcomplex vertices grounded at zero.  A loop (an edge
    with an empty boundary) joins the ground to itself; an edge that is
    neither head - tail nor a loop raises ShapeMismatch naming it.  ``M``
    is the relative coboundary out of degree 1, as sparse rows (one per
    relative 2-cell, over the positions of ``cols``), and the vectors of
    ``K`` are a basis of its integer kernel.
    A search that needs more than ``node_limit`` lattice evaluations
    raises NodeLimitExceeded with the interval [``lower``, incumbent].

    Every point is decided by ``_least_bound``: the first exactly, and
    every later one against the incumbent best_B, so a point that does not
    beat it costs one Bellman-Ford run at best_B - 1 whose cycle proves
    B(u) >= best_B.  A point is evaluated once: the search keeps the set
    of points seen, and no potentials but the incumbent's.
    """
    # vertices and grounding
    free_verts = _cells(X, 0, A_cells)
    node_of = {v: i for i, v in enumerate(free_verts)}
    ground = len(free_verts)
    n_nodes = ground + 1
    ends = X.edge_ends()
    edge_ends = []
    for e in cols:
        if ends[e] is not None:
            tail, head = ends[e]
            edge_ends.append((node_of.get(tail, ground),
                              node_of.get(head, ground)))
        elif not X.boundary_of(1, e):
            # a loop: |w_e| <= B whatever the potentials, so on the ground
            edge_ends.append((ground, ground))
        else:
            raise ShapeMismatch(
                f"edge {e} has boundary {X.boundary_of(1, e)}: the potentials "
                "need every edge to be head - tail or a loop")

    # d0_cols[i] is the coboundary of the i-th free vertex, column i of
    # delta0, as {edge position: +-1}: +1 where it is the head, -1 the tail
    d0_cols = [{} for _ in free_verts]
    for t, (u, v) in enumerate(edge_ends):
        if u != ground:
            d0_cols[u][t] = -1
        if v != ground:
            d0_cols[v][t] = 1
    free_z, torsion = lattice_quotient_complement(K, d0_cols)
    if torsion:
        raise ArithmeticError("degree-1 relative cohomology has torsion")
    beta = len(free_z)
    meta = {"evaluations": 0, "beta": beta, "line": None}
    if beta == 0:
        B, h = _least_bound(n_nodes, edge_ends, gamma0)
        meta["evaluations"] = 1
        return B, _apply_potentials(gamma0, edge_ends, h), meta
    # probe cycles: free basis of relative 1-cycles (kernel of the boundary
    # d0_cols) mod the boundaries of relative faces (the rows of M)
    Kc = kernel_lattice_basis(
        d0_cols, snf=smith_normal_form(d0_cols, ncols=len(cols)))
    cycles, _ = lattice_quotient_complement(Kc, M)
    if len(cycles) != beta:
        raise ArithmeticError("cycle/cocycle rank mismatch")
    P = [[sum(z[t] * Cj[t] for t in range(len(cols))) for Cj in cycles]
         for z in free_z]
    try:
        Pinv_T = _unimodular_inverse([list(col) for col in zip(*P)])
    except ArithmeticError as exc:
        raise ArithmeticError("cocycle/cycle pairing is not unimodular") from exc
    lengths = [sum(abs(v) for v in Cj) for Cj in cycles]
    g0 = [sum(gamma0[t] * Cj[t] for t in range(len(cols))) for Cj in cycles]

    # the primitive whose pairings with the cycles are u is gamma0 + t*z
    # with t = Pinv_T (u - g0), summed as base + sum_j u_j * dual_j
    dual = [[sum(Pinv_T[i][j] * free_z[i][t] for i in range(beta))
             for t in range(len(cols))] for j in range(beta)]
    base = [gamma0[t] - sum(g0[j] * dual[j][t] for j in range(beta))
            for t in range(len(cols))]

    def w_of_u(u):
        w = list(base)
        for uj, dj in zip(u, dual):
            if uj:
                for t, d in enumerate(dj):
                    w[t] += uj * d
        return w

    seen = set()

    def evaluate(u, incumbent=None):
        # (B, h, u), exact unless B(u) >= incumbent: then (incumbent, None,
        # u), a lower bound that stays one, and never an improvement, as the
        # incumbent only decreases.  So a point seen before, no better than
        # the incumbent then, gets the same answer with no new evaluation
        u = tuple(u)
        if u in seen:
            return incumbent, None, u
        if meta["evaluations"] >= node_limit:
            raise NodeLimitExceeded(
                "lattice evaluation budget exhausted",
                lower=lower,
                upper=incumbent,
                node_count=meta["evaluations"],
            )
        meta["evaluations"] += 1
        seen.add(u)
        B, h = _least_bound(n_nodes, edge_ends, w_of_u(u), incumbent)
        return B, h, u

    # descend from u = 0, then sweep the certified box around the incumbent
    cur = tuple([0] * beta)
    best_B, best_h, best_u = evaluate(cur)
    improved = True
    while improved:
        improved = False
        for j in range(beta):
            for step in (1, -1):
                cand = list(best_u)
                cand[j] += step
                B, h, u = evaluate(cand, best_B)
                if B < best_B:
                    best_B, best_h, best_u = B, h, u
                    improved = True
    # exhaustive finish: any strictly better point obeys |u_j| <= (B-1)*len_j
    target = best_B - 1
    while target >= 0:
        found = False
        ranges = [range(-target * lengths[j], target * lengths[j] + 1)
                  for j in range(beta)]
        for u in product(*ranges):
            B, h, uu = evaluate(u, best_B)
            if B < best_B:
                best_B, best_h, best_u = B, h, uu
                found = True
        if not found:
            break
        target = best_B - 1
    if beta == 1:
        meta["line"] = (n_nodes, edge_ends, base, dual[0], best_u[0])
    return best_B, _apply_potentials(w_of_u(best_u), edge_ends, best_h), meta


def _cut_point(n_nodes, edge_ends, base, direction, u0, bound):
    """A rational x = w(u) + delta0 h with |x_e| <= bound, where
    w(u) = base + u * direction, or None.

    No integer u meets a bound below the optimum, which the search found
    at u0, and the least bound over h is convex in u, so the loop looks in
    [u0 - 1, u0 + 1].  At u = p/q one ``_bellman_potentials`` run on the
    integer weights q * w(u) at q * bound gives potentials, so x, or a
    negative cycle D, whose signed w-sum a_D + u * b_D exceeds
    bound * |D| on one side of u (Benders 1962): the interval keeps the
    other side and u moves to its midpoint.  An empty interval, a cycle
    with b_D = 0 or ``MAX_CUT_RUNS`` runs give None, which decides nothing.
    """
    lo, hi = Fraction(u0 - 1), Fraction(u0 + 1)
    for _ in range(MAX_CUT_RUNS):
        if lo > hi:
            return None
        u = (lo + hi) / 2
        p, q = u.numerator, u.denominator
        w = [q * a + p * d for a, d in zip(base, direction)]
        h, cycle = _bellman_potentials(n_nodes, edge_ends, w, q * bound)
        if cycle is None:
            return [Fraction(v, q) for v in _apply_potentials(w, edge_ends, h)]
        a_D = sum(s * base[e] for e, s in cycle)
        b_D = sum(s * direction[e] for e, s in cycle)
        if b_D == 0:
            return None
        cut = Fraction(bound * len(cycle) - a_D, b_D)
        if b_D > 0:
            hi = min(hi, cut)
        else:
            lo = max(lo, cut)
    return None


def _apply_potentials(w, edge_ends, h):
    return [we + h[v] - h[u] for (u, v), we in zip(edge_ends, w)]
