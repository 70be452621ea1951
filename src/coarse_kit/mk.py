"""The two-hole winding complexes M(p, q, k).

M(p, q, k) is a midpoint-subdivided triangle whose middle face is replaced
by a pair-of-pants whose two cuffs continue into mapping-cylinder towers
winding with total degrees p^k and q^k down to triangle-sized holes.  The
boundary loop is then homotopic to e = a^(p^k) b^(q^k), which is what
drives every norm bound downstream.  M is glued as triangle lists,
numbered by the rule ``constructions.glue`` follows, and made as one
complex at the end.

Every verify command, check-witness and ``build mk``, ``tower`` and
``y-stage`` load this module; the towers, product certificates and fiber
products built over M are in :mod:`coarse_kit.towers`, which only
verify-prop52, verify-tower, check-witness on their reports and ``build
tower`` / ``build y-stage`` load.
"""

import warnings
from bisect import bisect_left

from .cochains import fundamental_class, pullback_cochain
from .complexes import (
    CellMap,
    _canonical_cycle,
    _cylinder,
    _glue_numbering,
    _rim_map,
    cycle_vertices_of_label,
    filled_triangle,
    midpoint_subdivision,
    simplicial_complex,
)
from .errors import InvalidParams, NoValidAssignment, SizeGuardExceeded
from .rings import is_prime

DEFAULT_SIZE_GUARD = 300_000

# edges of each hole and of the middle triangle the collar coarsens to; the
# unit of every tower circle size
HOLE_EDGES = 3


class MkParams:
    """Parameters of the two-hole family.

    ``reduce`` keeps every tower circle at HOLE_EDGES*p / HOLE_EDGES*q edges
    by interposing degree-one coarsening collars, preserving the per-stage
    winding degrees and the p^k / q^k totals at desk-scale cell counts.
    """

    def __init__(self, p, q, k, reduce=False):
        self.p = p
        self.q = q
        self.k = k
        self.reduce = reduce
        if not (is_prime(self.p) and is_prime(self.q)):
            raise InvalidParams(f"p = {self.p} and q = {self.q} must be prime")
        if self.p == self.q:
            raise InvalidParams("p and q must differ")
        if self.k < 1:
            raise InvalidParams("level k must be >= 1")
        if not isinstance(self.reduce, bool):
            raise InvalidParams(f"reduce = {self.reduce!r} is not a boolean")
        if self.p <= self.q ** 2:
            warnings.warn(
                f"p = {self.p} <= q^2 = {self.q ** 2}: the norm bounds lose "
                "their slack in this regime",
                stacklevel=2,
            )


class MkBundle:
    """The built complex plus the maps and labels the verifications use."""

    def __init__(self, complex, params, phi, tau, obstruction,
                 boundary_label="boundary", p_hole_label="p-hole",
                 q_hole_label="q-hole"):
        self.complex = complex
        self.params = params
        self.phi = phi
        self.tau = tau
        self.obstruction = obstruction
        self.boundary_label = boundary_label
        self.p_hole_label = p_hole_label
        self.q_hole_label = q_hole_label


def _rim(a, b, winding):
    """The piece of ``annulus_triangulation(a, b)`` (``winding``) or of
    ``coarsening_cylinder(a, b)``, numbered as they number theirs."""
    return a + b, _cylinder(a, _rim_map(a, b, winding)), {
        "domain-rim": list(range(a)), "target-rim": list(range(a, a + b))}


def _glue_pieces(X, Y, pairs, rims):
    """Piece Y glued onto piece X by ``glue``'s numbering, each Y cycle of
    ``pairs`` onto its X cycle place by place.  A piece is a vertex count,
    triangles and rim cycles in ``_canonical_cycle`` order; X's, extended
    in place, take Y's rim ``rims[name]`` as ``name``."""
    (n_x, tris, out), (n_y, y_tris, y_rims) = X, Y
    identify = {}
    for x_rim, y_rim in pairs:
        if len(x_rim) != len(y_rim):
            raise InvalidParams(
                f"cannot chain: rim sizes {len(y_rim)} vs {len(x_rim)}")
        identify.update(zip(y_rim, x_rim))
    vmap, (images,) = _glue_numbering(n_x, n_y, identify, [y_tris])
    tris.extend(images)
    for name, rim in rims.items():
        out[name] = _canonical_cycle([vmap[v] for v in y_rims[rim]])
    return n_x + n_y - len(identify), tris, out


def _attach(chain, a, b, winding):
    """``_rim(a, b, winding)`` hung from the chain's "top" by its target
    rim if winding, else by its domain rim; its other rim is the new top."""
    down, up = ["target-rim", "domain-rim"][::1 if winding else -1]
    piece = _rim(a, b, winding)
    return _glue_pieces(chain, piece, [(chain[2].pop("top"), piece[2][down])],
                        {"top": up})


def _tower(u, params):
    """Tower of degree-u cylinders from a collar circle down to a small hole.

    A piece with rims "hole" (HOLE_EDGES edges) and "top" (the collar),
    with composite winding u^k from collar to hole.  In reduce mode every
    circle is HOLE_EDGES or HOLE_EDGES*u; otherwise the stage sizes run
    HOLE_EDGES^k * u^i with a final coarsening to the hole.
    """
    k, h = params.k, HOLE_EDGES
    if params.reduce:
        steps = [(h * u, h, True)] + [(h * u, h, False),
                                      (h * u, h, True)] * (k - 1)
    else:
        base = h ** k
        steps = [(base, h, False)] * (base > h) + [
            (base * u ** i, base * u ** (i - 1), True)
            for i in range(1, k + 1)]
    n, tris, rims = _rim(*steps[0])
    chain = n, tris, {"hole": rims["target-rim"], "top": rims["domain-rim"]}
    for step in steps[1:]:
        chain = _attach(chain, *step)
    return chain


def _cell_count(params):
    """The cells of M(p, q, k), 2 (n + t) + 1 for n vertices and t
    triangles (M has Euler characteristic -1), in closed form.

    A winding step a -> b has 2a triangles, a coarsening step a + b, and
    each step after a tower's first adds its new top's vertices.  The
    pants, the collar and the holed triangle add 4 nk + 2 HOLE_EDGES + 5.
    """
    k, h = params.k, HOLE_EDGES
    size = 2 * h + 5
    for u in (params.p, params.q):
        if params.reduce:
            top = h * u
            size += (4 * top + 2 * h) * k - top - h
        else:
            base, top = h ** k, (h * u) ** k
            c = base + h if base > h else 0  # the coarsening to the hole
            size += 3 * (top - base) * u // (u - 1) + c + (c or h)
        size += 4 * top
    return 2 * size + 1


def _circle_cells(M, name, cycle):
    """The cells of the circle through ``cycle`` in M, each edge found by
    bisection in M's sorted edge level."""
    edges = M.simplices[1]
    cells = [(0, v) for v in cycle]
    distinct = len(set(cycle)) == len(cycle) >= 3
    for v, w in zip(cycle, cycle[1:] + cycle[:1]):
        e = (v, w) if v < w else (w, v)
        i = bisect_left(edges, e)
        if not distinct or edges[i:i + 1] != [e]:
            raise InvalidParams(f"label {name!r} of M is not a circle")
        cells.append((1, i))
    return cells


def build_Mk(params, size_guard=DEFAULT_SIZE_GUARD):
    """Assemble the two-hole winding complex M(p, q, k).

    Pieces, glued hole-outward: two tower chains wedged at their collars, a
    pair-of-pants cylinder over the wedge, a degree-one coarsening collar
    down to a triangle, and the midpoint-subdivided triangle with its middle
    face removed, each a closed-form triangle list; M is made once from
    the glued lists.  The boundary is the subdivided triangle boundary; phi
    collapses everything inside the middle hole onto one midpoint vertex
    and is the identity on the outer part.
    """
    # an unreduced tower has over 2^k vertices: refuse k uncounted
    if not params.reduce and params.k >= size_guard.bit_length():
        raise SizeGuardExceeded(
            f"more than 2^{params.k} cells exceed the budget {size_guard}")
    cells = _cell_count(params)
    if cells > size_guard:
        raise SizeGuardExceeded(
            f"{cells} cells exceed the budget {size_guard}; "
            "rebuild with reduce=True for desk-scale sizes")
    # tower chains, wedged at the collars' first, least vertices
    n, tris, rims = _tower(params.p, params)
    collar_p, TQ = rims["top"], _tower(params.q, params)
    ap = len(collar_p)
    nk = ap + len(TQ[2]["top"])
    W = _glue_pieces((n, tris, {"p-hole": rims["hole"]}), TQ,
                     [(collar_p[:1], TQ[2]["top"][:1])],
                     {"q-hole": "hole", "collar-q": "top"})
    # pair of pants over the wedge of collars: circle(nk) collapsed onto
    # the circles 0..ap-1 and 0, ap..nk-2, whose loops in the cylinder
    # start at the wedge point nk, as both collars do
    collapse = list(range(ap)) + [0] + list(range(ap, nk - 1))
    P = (2 * nk - 1, _cylinder(nk, collapse), {"domain-rim": list(range(nk))})
    loops = [(collar_p, list(range(nk, nk + ap))),
             (W[2].pop("collar-q"), [nk, *range(nk + ap, 2 * nk - 1)])]
    guts = _glue_pieces(W, P, loops, {"top": "domain-rim"})
    # coarsening collar down to the middle triangle size
    guts = _attach(guts, nk, HOLE_EDGES, False)
    # the holed subdivided triangle
    tau = midpoint_subdivision(filled_triangle())
    T = tau.complex
    (middle,) = T.label_cells("middle")
    D = (T.n_cells(0),
         [s for i, s in enumerate(T.simplices[2]) if (2, i) != middle],
         {name: cycle_vertices_of_label(T, name)
          for name in ("boundary", "middle-boundary")})
    n, tris, rims = _glue_pieces(
        D, guts, [(D[2]["middle-boundary"], guts[2].pop("top"))],
        {"p-hole": "p-hole", "q-hole": "q-hole"})
    M = simplicial_complex(tris)
    M = M.relabeled({name: _circle_cells(M, name, cycle)
                     for name, cycle in rims.items()})
    # phi: identity on the subdivided-triangle part, everything else onto
    # one midpoint vertex of the middle face
    n_outer = T.n_cells(0)
    mid_vertex = 3  # midpoint of edge (0, 1) in the subdivision
    phi_vm = [v if v < n_outer else mid_vertex for v in range(M.n_cells(0))]
    phi = CellMap.from_vertex_map(M, T, phi_vm)
    rho = simplicial_approx_identity(tau)
    mu = fundamental_class(filled_triangle(), 2)
    obstruction = pullback_cochain(rho.compose(phi), mu)
    bundle = MkBundle(
        complex=M, params=params, phi=phi, tau=tau, obstruction=obstruction,
    )
    _check_bundle(bundle)
    return bundle


def _check_bundle(bundle):
    M = bundle.complex
    for label in (bundle.p_hole_label, bundle.q_hole_label):
        edges = M.label_cells_of_dim(label, 1)
        if len(edges) != HOLE_EDGES:
            raise InvalidParams(
                f"{label} has {len(edges)} edges, expected {HOLE_EDGES}"
            )
    # phi restricted to the boundary is the identity onto the subdivided rim
    for (kk, i) in M.label_cells(bundle.boundary_label):
        img = bundle.phi.cell_image(kk, i)
        if list(img.values()) != [1]:
            raise InvalidParams("phi does not fix the boundary pointwise")


def simplicial_approx_identity(sub):
    """Simplicial approximation of the identity on a subdivision.

    Sends every new vertex to the smallest vertex of its carrier.  A
    simplex's carrier is the union of its vertices' carriers, so its image
    lies in its carrier by construction.  NoValidAssignment is raised when
    the carrier table does not have one entry per vertex.
    """
    tau, carriers = sub.complex, sub.vertex_carriers
    if len(carriers) != tau.n_cells(0):
        raise NoValidAssignment(
            f"{len(carriers)} vertex carriers for {tau.n_cells(0)} vertices")
    return CellMap.from_vertex_map(tau, sub.base, list(map(min, carriers)))


# its public name stays towers.build_Mk, where perfbench/design.json traces
# it; towers imports it from here
build_Mk.__module__ = "coarse_kit.towers"
