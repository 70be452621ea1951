"""Exact simplicial cohomology and the exactness of the pair sequence.

Cohomology comes out of Smith normal form of the coboundary matrices, read
as sparse rows off the boundary columns a complex stores.  For finite
complexes the bounded theory agrees with it degree by degree, so the
quantitative content lives in the norm certificates (minimal primitives,
:mod:`coarse_kit.cochains`), not in extra groups.

The ``homology`` command loads this module and no search: it reads a
``.ckx`` file and prints :func:`homology_summary`.
"""

from .complexes import _cells, _coboundary_rows, _subcomplex_cells
from .errors import DegreeOutOfRange, ShapeMismatch
from .exact_linalg import smith_normal_form
from .rings import RING_Q, RING_Z, _is_zp


class CohomologySummary:
    def __init__(self, degree, ring, free_rank, torsion):
        self.degree = degree
        self.ring = ring
        self.free_rank = free_rank
        self.torsion = torsion

    def __str__(self):
        if _is_zp(self.ring):
            name = f"Z_{self.ring[1]}"
        else:
            name = self.ring
        parts = [name] * self.free_rank + [f"Z_{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


def _rank_mod_p(diag, p):
    return sum(1 for d in diag if d % p != 0)


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


def homology_summary(X, ring=RING_Z):
    """Per-degree cohomology table for a complex (used by the CLI)."""
    out = []
    for k in range(X.dim + 1):
        s = cohomology(X, k, ring)
        out.append({"degree": k, "free_rank": s.free_rank,
                    "torsion": list(s.torsion)})
    return out


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


# their public names stay cochains.cohomology and verify.homology_summary,
# where perfbench/design.json traces them; each of those modules resolves
# its name lazily
cohomology.__module__ = "coarse_kit.cochains"
homology_summary.__module__ = "coarse_kit.verify"
