"""Towers, product certificates and fiber products over M(p, q, k).

Here: the recursive face-replacement towers (each 2-simplex of a stage
swallowed by a copy of the next bundle), the product certificates
transporting a primitive cochain to X x [0, n], fiber products along light
simplicial maps, and the iterated pull-back stages they generate.  The
complexes M(p, q, k) themselves are built in :mod:`coarse_kit.mk`.

verify-prop52 and verify-tower load this module, as does check-witness on
their reports, and ``build tower`` and ``build y-stage``; verify-prop51
and ``build mk`` do not.
"""

import functools
import gc
from bisect import bisect_left
from collections import Counter
from itertools import repeat
from math import factorial, gcd
from operator import sub

from .cochains import Cochain
from .complexes import (
    CellComplex,
    CellMap,
    cycle_vertices_of_label,
    midpoint_subdivision_global,
    simplex_carrier,
    simplicial_complex,
)
from .constructions import (
    _vertex_span_cells,
    barycentric_subdivision,
    cone_middle_subdivision,
    interval_product,
    remove_cells,
)
from .errors import (
    DivisibilityViolated,
    InvalidParams,
    NotLight,
    NotSimplicial,
    SizeGuardExceeded,
)
# MkParams, MkBundle and build_Mk are importable from here too
from .mk import (
    DEFAULT_SIZE_GUARD,
    MkBundle,
    MkParams,
    build_Mk,
    simplicial_approx_identity,
)
from .rings import RING_Z


class TowerStage:
    """One stage of a tower: complex and projection data.

    ``projection`` is the honest simplicial map to the previous stage (the
    subdivision approximation); ``tau_map`` lands in ``tau``, the mesh-1/2
    :func:`cone_middle_subdivision` of the projection target, which gives
    the stage its 1/2 factor.  Pull-back stages keep the level-1 triangle
    subdivision as ``tau`` and their triangle-valued map as ``tau_map``.
    """

    def __init__(self, complex, projection=None, level=0, tau=None,
                 tau_map=None):
        self.complex = complex
        self.projection = projection
        self.level = level
        self.tau = tau
        self.tau_map = tau_map


def _host_carriers(X, vm, sub):
    """Host vertex set of the subdivision carrier of vm(s), per simplex s.

    ``vm`` sends the vertices of X to vertices of ``sub.complex``.  Returns
    one list per dimension of X: entry i is the union of the carriers of
    the vertices of vm(X.simplices[k][i]) (:func:`simplex_carrier`).
    Simplices with the same carrier share one frozenset.
    """
    shared = {}
    frozen = [shared.setdefault(c, c)
              for c in map(frozenset, sub.vertex_carriers)]
    at = [frozen[w] for w in vm]
    return [[shared.setdefault(c, c)
             for c in (simplex_carrier(at, verts) for verts in level)]
            for level in X.simplices]


# -- the product certificate -----------------------------------------------


class BetaCertificate:
    """A bounded primitive on X x [0, n] for the product obstruction."""

    def __init__(self, beta, product, n, gamma):
        self.beta = beta
        self.product = product  # IntervalProduct
        self.n = n
        self.gamma = gamma


def build_beta(gamma, n, size_guard=DEFAULT_SIZE_GUARD):
    """Transport a primitive gamma to a bounded 2-cochain on X x [0, n].

    Prisms e x [i*m_e, i*m_e + 1] with m_e = n / |gamma(e)| carry sgn(gamma(e));
    interior slices carry -beta(d(sigma) x [0, l]); the two end slices are
    zero.  Requires |gamma(e)| to divide n for every edge (use n = lcm or a
    factorial of the norm).
    """
    X = gamma.complex
    if gamma.degree != 1 or gamma.ring != RING_Z:
        raise InvalidParams("gamma must be an integer 1-cochain")
    for e, v in enumerate(gamma.values):
        if v != 0 and n % abs(v) != 0:
            raise DivisibilityViolated(
                f"|gamma| = {abs(v)} on edge {e} does not divide n = {n}"
            )
    prod = interval_product(X, n, size_guard=size_guard)
    Z = prod.complex
    values = [0] * Z.n_cells(2)
    # prisms over edges
    for e, v in enumerate(gamma.values):
        if v == 0:
            continue
        m = n // abs(v)
        s = 1 if v > 0 else -1
        for i in range(abs(v)):
            values[prod.prism_cell(2, e, i * m)] = s
    # running sums beta(e x [0, l]) for slice values
    running = [[0] * (n + 1) for _ in range(X.n_cells(1))]
    for e in range(X.n_cells(1)):
        acc = 0
        for l in range(1, n + 1):
            acc += values[prod.prism_cell(2, e, l - 1)]
            running[e][l] = acc
    for f in range(X.n_cells(2)):
        bnd = X.boundary_of(2, f)
        for l in range(1, n):
            acc = 0
            for e, c in bnd.items():
                acc += c * running[e][l]
            values[prod.slice_cell(2, f, l)] = -acc
    beta = Cochain(Z, 2, RING_Z, values)
    return BetaCertificate(beta=beta, product=prod, n=n, gamma=gamma)


def product_obstruction_cocycle(obstruction, prod):
    """(q x xi)^* of the product fundamental cocycle on M x [0, n].

    ``obstruction`` is q^* mu, the fundamental cocycle of the triangle
    pulled back along q: M -> triangle, and xi collapses [0, n] onto
    [0, 1], sending every edge but the last, n - 1, to zero.  The pullback
    is therefore the cross product q^* mu x xi^* iota: each prism
    f x [n - 1, n] carries the obstruction's value on f, and every other
    3-cell carries zero.
    """
    values = [0] * prod.complex.n_cells(3)
    for f, v in enumerate(obstruction.values):
        values[prod.prism_cell(3, f, prod.n - 1)] = v
    return Cochain(prod.complex, 3, RING_Z, values)


def lcm_of_values(gamma):
    out = 1
    for v in gamma.values:
        if v != 0:
            out = out * abs(v) // gcd(out, abs(v))
    return out


def pick_n(gamma, mode="lcm"):
    """The interval length for the product certificate."""
    m = gamma.norm()
    if m == 0:
        return 1
    if mode == "factorial":
        return factorial(m)
    if mode == "lcm":
        return lcm_of_values(gamma)
    raise InvalidParams(f"unknown n mode {mode!r}")


# -- recursive face-replacement towers ---------------------------------------


def _guts_of(bundle):
    """The bundle complex minus its subdivided-triangle part.

    What remains is everything inside the middle hole, with the middle
    triangle itself as the labeled rim "guts-boundary"; replacing a midpoint
    subdivision's middle face with this reproduces the bundle inside any
    host face.
    """
    M = bundle.complex
    # the subdivided-triangle part: cells with all vertices < 6 (the glue
    # kept those vertex indices); everything else is inside the middle hole
    d_cells = set(_vertex_span_cells(M, range(6)))
    keep_rim = set(M.label_cells("middle-boundary"))
    doomed = sorted(d_cells - keep_rim, reverse=True)
    guts = remove_cells(M, doomed)
    return guts.relabeled({
        "guts-boundary": guts.label_cells("middle-boundary"),
        bundle.p_hole_label: guts.label_cells(bundle.p_hole_label),
        bundle.q_hole_label: guts.label_cells(bundle.q_hole_label),
    })


def _is_pure(X):
    """True when every simplex of X is a face of a top-dimensional one."""
    faces = set(X.simplices[X.dim])
    for k in range(X.dim, 0, -1):
        faces = {s[:i] + s[i + 1:] for s in faces for i in range(k + 1)}
        if len(faces) != X.counts[k - 1]:
            return False
    return True


def replace_faces(host, bundle, size_guard=DEFAULT_SIZE_GUARD):
    """Swallow every 2-simplex of the host with a copy of the bundle.

    Midpoint-subdivides the whole host, deletes each middle face, and glues
    one copy of the bundle guts along each middle triangle.  Returns
    (stage, tau, tau_map, projection): the projection is simplicial into the
    cone subdivision of the host (mesh <= 1/2) and composes with the
    approximation of the identity into an honest host-valued simplicial map.
    """
    if not host.is_simplicial or host.dim != 2:
        raise NotSimplicial("face replacement needs a 2-dim simplicial host")
    sub = midpoint_subdivision_global(host)
    guts = _guts_of(bundle)
    n_faces = host.n_cells(2)
    est = sub.complex.total_cells() + n_faces * guts.total_cells()
    if est > size_guard:
        raise SizeGuardExceeded(
            f"stage would have about {est} cells (budget {size_guard})"
        )
    for X, name in ((host, "host"), (guts, "bundle")):
        if not _is_pure(X):
            raise NotSimplicial(
                f"the {name} has a simplex that is no face of a triangle; "
                "the stage is built from triangles only"
            )
    S = sub.complex
    middles = sub.middle_faces
    g_order = cycle_vertices_of_label(guts, "guts-boundary")
    rim_pos = {v: t for t, v in enumerate(g_order)}
    interior_verts = [v for v in range(guts.n_cells(0)) if v not in rim_pos]
    n_interior = len(interior_verts)
    base0 = S.n_cells(0)
    inter_pos = {v: t for t, v in enumerate(interior_verts)}

    def in_copy(f, verts):
        """A guts simplex in the copy glued along the middle of face f."""
        mids = S.simplices[2][middles[f]]
        return tuple(mids[rim_pos[v]] if v in rim_pos
                     else base0 + f * n_interior + inter_pos[v] for v in verts)

    # host and guts are pure, so the triangles carry every cell: those of
    # the subdivided host but its middles, and those of each guts copy
    doomed_faces = set(middles.values())
    tuples = [s for i, s in enumerate(S.simplices[2]) if i not in doomed_faces]
    for f in range(n_faces):
        tuples.extend(in_copy(f, verts) for verts in guts.simplices[2])
    stage = simplicial_complex(tuples)

    def stage_cell(k, verts):
        """Index of a k-simplex of the stage, with no face index: a vertex
        is its own index, and simplicial_complex sorts every level."""
        verts = tuple(sorted(verts))
        return verts[0] if k == 0 else bisect_left(stage.simplices[k], verts)

    stage_labels = {}
    for f in range(n_faces):
        for name in (bundle.p_hole_label, bundle.q_hole_label):
            stage_labels[f"{name}-{f}"] = [
                (k, stage_cell(k, in_copy(f, guts.simplices[k][i])))
                for k, i in guts.label_cells(name)]
    stage = stage.relabeled(stage_labels)
    # projection into the cone subdivision of the host
    tau = cone_middle_subdivision(sub)
    vm = [None] * stage.n_cells(0)
    for i in range(base0):
        vm[i] = i  # the cone subdivision keeps the midpoint-subdivision ids
    for f in range(n_faces):
        apex = tau.apexes[f]
        for v in interior_verts:
            vm[base0 + f * n_interior + inter_pos[v]] = apex
    tau_map = CellMap.from_vertex_map(stage, tau.complex, vm)
    rho = simplicial_approx_identity(tau)
    projection = rho.compose(tau_map)
    return stage, tau, tau_map, projection


def stage_carriers(stage):
    """The host carrier table of a stage's tau map (see ``_host_carriers``),
    the one table :func:`check_stage_carriers` and
    :func:`open_star_refinement_witnesses` read."""
    return _host_carriers(stage.complex, stage.tau_map.vertex_map, stage.tau)


def check_stage_carriers(stage, carriers, q=None):
    """Verify a q-map is a simplicial approximation of the stage's tau map.

    For every simplex s: q(s) must land inside the host carrier of the cell
    tau_map(s) lands in, as the stage's :func:`stage_carriers` table
    ``carriers`` records it.  ``q`` defaults to the stage projection (the
    face-replacement towers); pull-back stages pass their triangle-valued
    approximation explicitly.  Returns (ok, offending cell or None).
    """
    X = stage.complex
    vm_q = (q if q is not None else stage.projection).vertex_map
    for k, row in enumerate(carriers):
        for i, carrier_verts in enumerate(row):
            if not {vm_q[v] for v in X.simplices[k][i]} <= carrier_verts:
                return False, (k, i)
    return True, None


def open_star_refinement_witnesses(stage, carriers):
    """Per-vertex witnesses for proj(Ost(v)) inside a single host open star.

    For every vertex v of the stage complex, intersects the host carriers of
    the tau-images of all simplices containing v; any vertex in the
    intersection witnesses Ost(v) c proj^{-1}(Ost(u, host)), the carriers
    read from the stage's :func:`stage_carriers` table ``carriers``.
    Returns (all_found, witness dict).
    """
    X = stage.complex
    common = [None] * X.n_cells(0)
    for k, row in enumerate(carriers):
        for i, carrier_verts in enumerate(row):
            for v in X.simplices[k][i]:
                c = common[v]
                if c is None:
                    common[v] = carrier_verts
                elif c is not carrier_verts:
                    common[v] = c & carrier_verts
    witnesses = {v: min(c) if c else None for v, c in enumerate(common)}
    return all(common), witnesses


def _gc_paused(builder):
    """Run ``builder`` with CPython's cyclic collector off, then restore the
    collector's previous state.  The builders allocate hundreds of
    thousands of long-lived dicts and tuples and make almost no cyclic
    garbage, so generation-2 passes over them would only cost time."""

    @functools.wraps(builder)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return builder(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused


@_gc_paused
def build_tower(params, depth, size_guard=DEFAULT_SIZE_GUARD):
    """Recursive face-replacement tower, depth+1 stages.

    Stage 0 is M(p, q, k); stage j swallows every 2-simplex of stage j-1
    with a copy of the level k-j bundle.  Every stage carries the simplicial
    projection to its predecessor and a tau map into a mesh-1/2 subdivision.
    """
    if depth < 0:
        raise InvalidParams("need at least one stage (tower depth >= 0)")
    if depth >= params.k:
        raise InvalidParams("tower depth must stay below the level k")
    bundle = build_Mk(params, size_guard=size_guard)
    stages = [TowerStage(complex=bundle.complex, projection=None, level=0)]
    for j in range(1, depth + 1):
        sub_params = MkParams(params.p, params.q, params.k - j,
                              reduce=params.reduce)
        inner = build_Mk(sub_params, size_guard=size_guard)
        host = stages[-1].complex
        stage, tau, tau_map, projection = replace_faces(
            host, inner, size_guard=size_guard)
        stages.append(TowerStage(
            complex=stage, projection=projection, tau=tau, tau_map=tau_map,
            level=j,
        ))
    return stages


# -- fiber products over light maps -------------------------------------------


def is_light(f):
    """A simplicial map is light when injective on every closed simplex.

    The vertices of a simplex pairwise span its edges, so that holds when
    no edge of the source has both ends at one vertex image; a source with
    no edges is light.
    """
    vm = f.vertex_map
    return all(vm[a] != vm[b] for a, b in f.source.edge_ends())


class PullbackResult:
    """Fiber product along a light map, with both projections.

    ``proj_base`` is the light projection to the other factor;
    ``fiber_vertex_map`` sends each vertex to its vertex of the pulled-back
    subdivision of the light side, and ``tau_vertex_map`` is the vertex
    map of the induced light map from that subdivision to tau.
    """

    def __init__(self, complex, proj_base, fiber_vertex_map, tau_vertex_map):
        self.complex = complex
        self.proj_base = proj_base
        self.fiber_vertex_map = fiber_vertex_map
        self.tau_vertex_map = tau_vertex_map


def pullback_subdivision(chi, tau):
    """Pull the subdivision tau of the target back through a light map.

    For every cell m of the source with chi(m) equal to the carrier of a
    tau-cell, the tau-cell lifts into m; lifts glue along shared faces.
    Returns (complex of the pulled-back subdivision of chi's source, vertex
    map of the induced light map from it to tau).  The vertices are
    numbered by their image in tau, those over vertex w before those over
    w + 1, so that vertex map is non-decreasing.  The caller checks that
    chi is light.
    """
    M, carriers, chi_vm = chi.source, tau.vertex_carriers, chi.vertex_map
    # source simplices by the vertex set of their image (chi is light)
    by_image = {}
    for level in M.simplices:
        for m in level:
            by_image.setdefault(frozenset(map(chi_vm.__getitem__, m)),
                                []).append(m)
    verts_new = []
    vert_index = {}
    for w, cw in enumerate(carriers):
        for m in by_image.get(frozenset(cw), ()):
            vert_index[(w, m)] = len(verts_new)
            verts_new.append(w)
    # a tau simplex t lifts into each m over its carrier; vertex w of t
    # lifts to the face of m over w's carrier
    simplices = []
    for level in tau.complex.simplices:
        for t in level:
            for m in by_image.get(simplex_carrier(carriers, t), ()):
                simplices.append(tuple(
                    vert_index[(w, tuple(v for v in m
                                         if chi_vm[v] in carriers[w]))]
                    for w in t))
    return simplicial_complex(simplices), verts_new


def pullback_complex(chi, phi, tau, size_guard=DEFAULT_SIZE_GUARD):
    """Fiber product of a light map chi: M -> simplex and phi: M' -> tau.

    ``tau`` is the Subdivision of chi's target that phi maps into.  The
    result projects simplicially onto M' (light, since chi is) and onto the
    pulled-back subdivision tau_M of M.  Its simplices are the pairs
    (sigma, t) of a simplex of M' and a simplex of tau_M with the same
    image in tau; the vertices of (sigma, t) pair each v of sigma with the
    vertex of t over phi(v).  ``size_guard`` bounds the number of them.

    The vertices of the result, the pairs (v, x) of a vertex of M' and a
    vertex of tau_M over the same vertex of tau, are numbered v by v and x
    by x.  The vertices of tau_M over one vertex of tau are consecutive, so
    a pair's id is arithmetic and no pair dict is built.  Every level of the
    result is made from pairs: its vertex level is all the pair ids, and
    the k-simplices over each k-simplex of M' are made as columns of ids,
    each tuple strictly increasing since the ids increase with v.  So the
    result is the whole fiber product, and neither M nor M' need be pure.
    """
    if not is_light(chi):
        raise NotLight("chi must be light (injective on closed simplices)")
    Mp = phi.source
    tau_M, chi_vm = pullback_subdivision(chi, tau)
    phi_vm = phi.vertex_map
    # the vertices of tau_M over a vertex w of tau are start[w], start[w] +
    # 1, ... (see pullback_subdivision), so the induced light map sends a
    # simplex to the tuple of its vertex images, in order
    start, count = {}, Counter(chi_vm)
    for x, w in enumerate(chi_vm):
        start.setdefault(w, x)
    by_img = {}
    for level in tau_M.simplices:
        for t in level:
            by_img.setdefault(tuple(map(chi_vm.__getitem__, t)), []).append(t)
    # the pairs (v, x) with phi(v) = chi(x), numbered v by v: pair (v, x)
    # is ids[v][x - start[phi(v)]].  Every id, and every x, is taken from
    # one list, so the simplices and vm_fiber share its ints
    xs = list(range(len(chi_vm)))
    pair_ids = list(range(sum(map(count.__getitem__, phi_vm))))
    vm_base, vm_fiber, ids = [], [], []
    for v, w in enumerate(phi_vm):
        a, n = start.get(w, 0), count[w]
        ids.append(pair_ids[len(vm_base):len(vm_base) + n])
        vm_base.extend(repeat(v, n))
        vm_fiber.extend(xs[a:a + n])
    # one simplex of P per pair (sigma, t), in every dimension: count them
    # all before any is made
    images = [[tuple(sorted({phi_vm[v] for v in verts})) for verts in level]
              for level in Mp.simplices]
    if sum(len(by_img.get(img, ())) for level in images
           for img in level) > size_guard:
        raise SizeGuardExceeded(f"pullback exceeds {size_guard} simplices")
    # Per image, the rank x - start[w] of the vertex of each t over each w
    ranks = {img: [list(map(sub, column, repeat(start[w])))
                   for w, column in zip(img, zip(*by_img[img]))]
             for img in set().union(*images[1:]) if img in by_img}
    levels = [list(zip(pair_ids))]
    for simplices, imgs in zip(Mp.simplices[1:], images[1:]):
        level = []
        for verts, img in zip(simplices, imgs):
            if img in ranks:
                # column j: the pairs of vertex j of sigma, one per t over img
                level.extend(zip(*(
                    map(ids[v].__getitem__, ranks[img][img.index(phi_vm[v])])
                    for v in verts)))
        # made sigma by sigma, the level is nearly in tuple order already
        level.sort()
        levels.append(level)
    # the face dicts of from_simplices are the peak: free the lookups first
    del by_img, xs, pair_ids, ids, images, ranks, tau_M
    P = CellComplex.from_simplices(levels)
    # The base projection is simplicial and light with no check: a simplex
    # (sigma, t) has one vertex over each vertex of sigma, so it goes onto
    # sigma, a simplex of M', injectively
    return PullbackResult(
        complex=P, proj_base=CellMap(P, Mp, vm_base),
        fiber_vertex_map=vm_fiber, tau_vertex_map=chi_vm,
    )


def dimension_coloring(sd):
    """The light map of a barycentric subdivision: color by carrier dimension."""
    X = sd.complex
    n = sd.base.dim
    target = simplicial_complex([tuple(range(n + 1))])
    vm = [len(c) - 1 for c in sd.vertex_carriers]
    return CellMap.from_vertex_map(X, target, vm)


@_gc_paused
def build_Y_stage(params, stages, size_guard=DEFAULT_SIZE_GUARD):
    """Finite initial segment of the iterated pull-back tower.

    Stage 1 is the level-1 bundle; stage t is the fiber product of the
    barycentrically subdivided level-t bundle (with its dimension-coloring
    light map) against the previous stage's triangle-valued map.  Each stage
    records the simplicial projection to its predecessor and its
    triangle-valued map.
    """
    if stages < 1:
        raise InvalidParams("need at least one stage")
    base_params = MkParams(params.p, params.q, 1, reduce=params.reduce)
    b1 = build_Mk(base_params, size_guard=size_guard)
    out = [TowerStage(complex=b1.complex, projection=None, level=1)]
    phi_prev = b1.phi
    tau_prev = b1.tau
    for t in range(2, stages + 1):
        lvl_params = MkParams(params.p, params.q, t, reduce=params.reduce)
        bt = build_Mk(lvl_params, size_guard=size_guard)
        sd = barycentric_subdivision(bt.complex)
        chi = dimension_coloring(sd)
        result = pullback_complex(chi, phi_prev, tau_prev,
                                  size_guard=size_guard)
        # triangle-valued map of the new stage: phi_prev after the
        # projection, a composite of chain maps and so one itself
        phi_t = phi_prev.compose(result.proj_base)
        stage = TowerStage(
            complex=result.complex, projection=result.proj_base, level=t,
            tau=tau_prev, tau_map=phi_t,
        )
        out.append(stage)
        phi_prev = phi_t
    return out
