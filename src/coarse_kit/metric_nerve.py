"""Vertex-level metric machinery: distances, Lipschitz constants, covers,
nerves, Lebesgue numbers and refinement checks.

All quantities are evaluated on the vertex set of the 1-skeleton with unit
edge lengths, so every number is an exact integer or rational.  Continuous
infima/suprema are represented by these vertex-level restrictions.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .complexes import simplicial_complex
from .errors import DimensionTooHigh, NotACover, Uncovered

INFINITY = math.inf  # sentinel for "empty complement", never arithmetic


@dataclass
class DistanceTable:
    """All-pairs vertex distances (None across components)."""

    dist: list
    components: list

    def d(self, u, v):
        return self.dist[u][v]

    @property
    def connected(self):
        return len(self.components) == 1


def _adjacency(X):
    """Neighbour lists of the 1-skeleton, edges in index order."""
    adj = [[] for _ in range(X.n_cells(0))]
    for ends in X.edge_ends():
        if ends:
            u, v = ends
            adj[u].append(v)
            adj[v].append(u)
    return adj


def _bfs(adj, sources):
    """Unit-edge distance from the nearest of ``sources`` to every vertex,
    None where no source is reachable."""
    dist = [None] * len(adj)
    for v in sources:
        dist[v] = 0
    frontier = list(sources)
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if dist[w] is None:
                    dist[w] = depth
                    nxt.append(w)
        frontier = nxt
    return dist


def skeleton_metric(X):
    """Shortest-path distances on the 1-skeleton with unit edges (BFS)."""
    adj = _adjacency(X)
    dist = [_bfs(adj, [v]) for v in range(len(adj))]
    components = []
    placed = set()
    for v, row in enumerate(dist):
        if v not in placed:
            comp = [w for w, d in enumerate(row) if d is not None]
            placed.update(comp)
            components.append(comp)
    return DistanceTable(dist=dist, components=components)


def lipschitz_constant(f):
    """Vertex-level Lipschitz constant: max over edges of d(f(u), f(v)).

    Exact on 1-skeleta (unit edges) and a lower bound for the continuous
    constant.  Every ``CellMap`` is simplicial (``from_vertex_map`` checks
    each image; ``identity`` and ``compose`` keep that), so d(f(u), f(v)) is
    1 when an edge keeps its ends apart and 0 when it collapses: no distance
    table of the target is needed.
    """
    vm = f.vertex_map
    return int(any(vm[ends[0]] != vm[ends[1]]
                   for ends in f.source.edge_ends() if ends))


@dataclass
class CoverSpec:
    """A cover of the vertex set by vertex subsets.

    ``kind``: "explicit" (plain vertex sets), "open-star" (one set per center
    vertex; intersections follow the open-star rule: stars meet iff the
    centers span a simplex), or "ball".
    """

    carrier: object
    sets: list
    kind: str = "explicit"
    centers: list = None

    def __post_init__(self):
        self.sets = [frozenset(int(v) for v in s) for s in self.sets]
        covered = set()
        for s in self.sets:
            covered |= s
        if covered != set(range(self.carrier.n_cells(0))):
            raise NotACover("the sets do not cover the vertex set")


def open_star_cover(X):
    """The cover by open vertex stars (sets listed as closed-star vertices)."""
    adj = _adjacency(X)
    sets = [{v, *nbrs} for v, nbrs in enumerate(adj)]
    return CoverSpec(carrier=X, sets=sets, kind="open-star",
                     centers=list(range(len(adj))))


def mesh(cover):
    """Largest vertex diameter of a cover set."""
    table = skeleton_metric(cover.carrier)
    out = 0
    for s in cover.sets:
        for u in s:
            for v in s:
                d = table.d(u, v)
                if d is None:
                    return INFINITY
                out = max(out, d)
    return out


def multiplicity(cover):
    """Max number of cover sets with a common point.

    Vertex-level for explicit covers; for open-star covers the common-point
    test is the span rule, so the multiplicity is the largest simplex
    cardinality among the centers.
    """
    X = cover.carrier
    if cover.kind == "open-star":
        return max(
            (k + 1 for k in range(X.dim + 1) if X.n_cells(k)), default=0
        )
    best = 0
    for v in range(X.n_cells(0)):
        best = max(best, sum(1 for s in cover.sets if v in s))
    return best


def nerve(cover):
    """Nerve complex: one vertex per set, simplices for meeting subfamilies."""
    X = cover.carrier
    simplices = []
    if cover.kind == "open-star":
        # Ost(v_0) cap ... cap Ost(v_k) is nonempty iff {v_i} spans a simplex
        center_pos = {v: t for t, v in enumerate(cover.centers)}
        for k in range(X.dim + 1):
            for verts in X.simplices[k]:
                simplices.append(tuple(sorted(center_pos[v] for v in verts)))
    else:
        for v in range(X.n_cells(0)):
            fam = tuple(t for t, s in enumerate(cover.sets) if v in s)
            if fam:
                simplices.append(fam)
    for t in range(len(cover.sets)):
        simplices.append((t,))
    return simplicial_complex(simplices)


def _complement_distances(s, adj):
    """d(x, complement of s) for every vertex x, by multi-source BFS.

    Returns None when the complement is empty; unreachable vertices (other
    components fully inside s) get the INFINITY sentinel.
    """
    comp = [v for v in range(len(adj)) if v not in s]
    if not comp:
        return None
    return [INFINITY if d is None else d for d in _bfs(adj, comp)]


def lebesgue_number(cover):
    """L(cover) = min over vertices of max over sets of d(x, complement).

    Exact on the vertex set; a set with empty complement reports the INFINITY
    sentinel.  Note the vertex-level floor: positive values are >= 1.
    """
    X = cover.carrier
    adj = _adjacency(X)
    n = X.n_cells(0)
    per_set = [_complement_distances(s, adj) for s in cover.sets]
    overall = None
    for x in range(n):
        best = 0
        for vec in per_set:
            d = INFINITY if vec is None else vec[x]
            best = max(best, d)
            if best is INFINITY:
                break
        overall = best if overall is None else min(overall, best)
    return overall if overall is not None else INFINITY


def canonical_projection(cover, vertex):
    """Partition-of-unity weights d(x, X-U) / sum_V d(x, X-V), exact.

    Sets with empty complement would carry infinite weight; they share the
    mass equally and finite sets get zero.  Raises Uncovered when every
    weight vanishes.
    """
    X = cover.carrier
    adj = _adjacency(X)
    raw = []
    infinite = []
    for t, s in enumerate(cover.sets):
        vec = _complement_distances(s, adj)
        d = INFINITY if vec is None else vec[vertex]
        if d is INFINITY:
            infinite.append(t)
            raw.append(None)
        else:
            raw.append(d)
    if infinite:
        w = Fraction(1, len(infinite))
        return [w if t in infinite else Fraction(0) for t in range(len(raw))]
    total = sum(raw)
    if total == 0:
        raise Uncovered(f"vertex {vertex} lies in no cover set")
    return [Fraction(d, total) for d in raw]


def refines(fine, coarse):
    """Every fine set inside some coarse set; returns (bool, witness map)."""
    witness = {}
    for t, v_set in enumerate(fine.sets):
        hit = next(
            (u for u, u_set in enumerate(coarse.sets) if v_set <= u_set), None
        )
        if hit is None:
            return False, witness
        witness[t] = hit
    return True, witness


def star_of_set(cover, t):
    """Union of cover sets meeting set t (the star in the cover)."""
    base = cover.sets[t]
    out = set(base)
    for s in cover.sets:
        if s & base:
            out |= s
    return out


def star_refines(fine, coarse):
    """Star-refinement: St(V, fine) inside a single coarse set, for all V."""
    stars = [star_of_set(fine, t) for t in range(len(fine.sets))]
    return refines(CoverSpec(carrier=fine.carrier, sets=stars), coarse)


# over-approximations of the doubled-simplex distortion constants: a pair of
# unit simplices glued along a face has geodesic/euclidean distortion at most
# sqrt(2 * (2n+1)) < 4 for n <= 3; sqrt(n+1) <= 2 likewise
_DISTORTION_BOUND = 4
_DIAMETER_FACTOR = 2


def per_simplex_lipschitz_bound(lam, b, n):
    """Global Lipschitz bound c(n, b) * lam from a per-simplex bound lam.

    Maps of uniform complexes that are lam-Lipschitz on every closed simplex
    into a b-bounded target are globally c*lam-Lipschitz with
    c = b * sqrt(n+1) * (doubled-simplex distortion); both factors are cached
    as exact rational over-approximations for n <= 3.
    """
    if n > 3:
        raise DimensionTooHigh("constants cached for dimensions <= 3 only")
    lam = Fraction(lam)
    if lam == 0:
        return Fraction(0)
    c = Fraction(b) * _DIAMETER_FACTOR * _DISTORTION_BOUND
    if c < 1:
        c = Fraction(1)  # the bound can never undercut the per-simplex one
    return c * lam
