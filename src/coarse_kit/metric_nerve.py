"""Vertex-level metric machinery: Lipschitz constants, covers, nerves and
the partition of unity of a cover.

All quantities are evaluated on the vertex set of the 1-skeleton with unit
edge lengths, so every number is an exact integer or rational.  Continuous
infima/suprema are represented by these vertex-level restrictions.
verify-tower, and check-witness on its report, load this module for
:func:`lipschitz_constant`; the covers and nerves serve the acceptance
criteria.
"""

import math
from fractions import Fraction

from .complexes import simplicial_complex
from .errors import NotACover, Uncovered

INFINITY = math.inf  # sentinel for "empty complement", never arithmetic


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


class CoverSpec:
    """A cover of the vertex set by vertex subsets.

    ``kind``: "explicit" (plain vertex sets), "open-star" (one set per center
    vertex; intersections follow the open-star rule: stars meet iff the
    centers span a simplex), or "ball".
    """

    def __init__(self, carrier, sets, kind="explicit", centers=None):
        self.carrier = carrier
        self.sets = [frozenset(int(v) for v in s) for s in sets]
        self.kind = kind
        self.centers = centers
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
