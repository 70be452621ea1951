"""Verification pipelines behind the CLI subcommands.

Each pipeline builds the complexes it needs, runs the exact checks, writes
witness files in the interchange format, and returns a report whose PASS
records an independent re-checker can validate without re-running any
search.
"""

import hashlib
import os
import warnings
from fractions import Fraction

from .cochains import (
    RING_Z,
    _subcomplex_cells,
    coboundary,
    min_norm_primitive,
    relative_coboundary_matrix,
)
from .complexes import interval_product, same_structure
from .degrees import DegreeReport, bezout, check_degree_relation, min_m_bound
from .errors import (
    CoarseKitError,
    InvalidParams,
    NodeLimitExceeded,
    NotACoboundary,
)
from .exact_linalg import check_lp_lower_bound, smith_normal_form, solve_integer
from .interchange import bind_cochain, read_complex, write_complex
from .report import FAIL, INCONCLUSIVE, PASS, VerificationReport, decode_number
from .towers import (
    HOLE_EDGES,
    MkParams,
    build_Mk,
    build_beta,
    build_tower,
    check_stage_carriers,
    open_star_refinement_witnesses,
    pick_n,
    product_obstruction_cocycle,
    stage_carriers,
)

# cell budgets: the beta product of verify-prop52, the tower of verify-tower
PROP52_CELL_BUDGET = 200_000
TOWER_CELL_BUDGET = 300_000


def _params_dict(params, extra=None):
    out = {
        "p": params.p, "q": params.q, "k": params.k,
        "edge_scale": HOLE_EDGES, "reduce": params.reduce,
    }
    out.update(extra or {})
    return out


def _search_primitive(report, bundle, node_limit):
    """Minimal primitive of the bundle's obstruction vanishing on its
    boundary: ``(result, None)``, or ``(None, exc)`` when the search ran out
    of nodes.  Either way its evaluations count toward the report's
    ``node_count``; NotACoboundary propagates."""
    try:
        prim = min_norm_primitive(
            bundle.obstruction, node_limit=node_limit,
            vanishing_on=bundle.boundary_label,
        )
    except NodeLimitExceeded as exc:
        report.node_count += exc.node_count
        return None, exc
    report.node_count += prim.certificate.node_count
    return prim, None


def _add_exhausted(report, name, exc):
    """INCONCLUSIVE record of a search that ran out of nodes."""
    report.add(name, INCONCLUSIVE, lower=exc.lower, upper=exc.upper,
               node_count=exc.node_count)


def _relative_system(bundle):
    M = bundle.complex
    A_cells = _subcomplex_cells(M, bundle.boundary_label)
    mat, cols, rows = relative_coboundary_matrix(M, A_cells, 1)
    rhs = [bundle.obstruction.values[j] for j in rows]
    return mat, rhs, cols, rows


def verify_prop51(params, node_limit=10_000_000, out_prefix=None):
    """Retraction obstruction, Bezout bound, degree relation, norm growth."""
    report = VerificationReport(
        command="verify-prop51",
        params=_params_dict(params, {"node_limit": node_limit}),
    )
    bundle = build_Mk(params)
    M = bundle.complex
    p, q, k = params.p, params.q, params.k

    # (a) the obstruction cocycle has a primitive: absolute and relative.
    # The relative system is factored once, by the minimal-primitive search
    # of (d), which raises NotACoboundary when it has no solution.  A
    # relative primitive extended by zero is an absolute one, so the
    # absolute system is solved only when there is none
    try:
        prim, exhausted = _search_primitive(report, bundle, node_limit)
    except NotACoboundary:
        prim = exhausted = None
    res_rel = res_abs = prim is not None or exhausted is not None
    if not res_rel:
        abs_mat, _, abs_rows = relative_coboundary_matrix(M, set(), 1)
        abs_rhs = [bundle.obstruction.values[j] for j in abs_rows]
        res_abs = bool(solve_integer(abs_mat, abs_rhs))
    report.check(
        "retraction-obstruction-solvable", res_abs and res_rel,
        absolute=res_abs, relative=res_rel,
    )

    # (b) Bezout coefficient against the divisibility bound
    n_bez, m_bez = bezout(p, q, k)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bound = min_m_bound(p, q, k)
    report.check(
        "bezout-coefficient-bound", abs(m_bez) >= bound,
        n=n_bez, m=m_bez, bound=bound,
        identity=n_bez * p ** k + m_bez * q ** k == 1,
    )

    # (c) degree relation on retraction-candidate data
    all_ok = True
    samples = []
    for t in range(-3, 4):
        d_p = n_bez + t * q ** k
        d_q = m_bez - t * p ** k
        rep = DegreeReport(p=p, q=q, k=k, d_p=d_p, d_q=d_q, d=1)
        ok, msg = check_degree_relation(rep)
        all_ok = all_ok and ok
        samples.append({"d_p": d_p, "d_q": d_q, "d": 1, "ok": ok})
    report.check("degree-relation", all_ok, samples=samples)

    # (e) the attaching relation: the middle triangle cycle is homologous to
    # p^k (p-hole cycle) + q^k (q-hole cycle), signs per chosen orientations
    rel_ok, signs = _winding_relation(bundle)
    report.check("winding-relation", rel_ok, signs=signs,
                 exponents={"p": p ** k, "q": q ** k})

    # (d) exact minimal primitive norm >= q^k - 1; without a relative
    # primitive there is no norm to bound and (a) has already failed
    witness_vals = None
    if prim is not None:
        m_k = prim.certificate.optimum
        ok = m_k >= q ** k - 1
        proof = prim.certificate.infeasibility_proof
        report.check(
            "norm-lower-bound", ok,
            m_k=m_k, bound=q ** k - 1,
            certificate=proof.get("kind"),
            evaluations=prim.certificate.node_count,
        )
        witness_vals = prim.gamma
        _attach_dual(report, proof)
    elif exhausted is not None:
        _add_exhausted(report, "norm-lower-bound", exhausted)
    if out_prefix is not None and witness_vals is not None:
        path = f"{out_prefix}.mk.ckx"
        text = write_complex(path, M, cochains={
            "obstruction": bundle.obstruction,
            "primitive": witness_vals,
        })
        report.attach_witness("mk-complex", path, text)
    return report


def _attach_dual(report, proof):
    """Carry an LP dual lower-bound certificate as a witness, so that
    check-witness can re-check the claimed minimal norm."""
    if proof.get("kind") == "lp-dual":
        report.witnesses["norm-lower-bound-dual"] = {
            "dual": [str(v) for v in proof["dual"]],
            "bound": str(proof["bound"]),
        }


def _winding_relation(bundle):
    """Check d(2-chain) = middle cycle - p^k a - q^k b for some signs.

    The labeled hole cycles carry deterministic-but-arbitrary orientations,
    so all four sign combinations are tried; exactly the geometric one is
    solvable over Z.
    """
    from .complexes import labeled_cycle

    M = bundle.complex
    p, q, k = bundle.params.p, bundle.params.q, bundle.params.k
    z_mid = labeled_cycle(M, "middle-boundary")
    z_a = labeled_cycle(M, bundle.p_hole_label)
    z_b = labeled_cycle(M, bundle.q_hole_label)
    # the rows of d2 are edges: transpose the stored face columns
    d2 = [{} for _ in range(M.n_cells(1))]
    for f, col in enumerate(M.boundary_columns(2)):
        for e, c in col.items():
            d2[e][f] = c
    snf = smith_normal_form(d2, ncols=M.n_cells(2))
    for sa in (1, -1):
        for sb in (1, -1):
            rhs = [0] * M.n_cells(1)
            for e, c in z_mid.items():
                rhs[e] += c
            for e, c in z_a.items():
                rhs[e] -= sa * p ** k * c
            for e, c in z_b.items():
                rhs[e] -= sb * q ** k * c
            if solve_integer(d2, rhs, snf=snf):
                return True, {"p": sa, "q": sb}
    return False, None


def verify_prop52(params, node_limit=10_000_000, n_mode="factorial",
                  out_prefix=None):
    """Bounded product primitive: delta(beta) = pulled-back cocycle, norm <= 4."""
    report = VerificationReport(
        command="verify-prop52",
        params=_params_dict(params, {"node_limit": node_limit,
                                     "n_mode": n_mode}),
    )
    bundle = build_Mk(params)
    prim, exhausted = _search_primitive(report, bundle, node_limit)
    if exhausted is not None:
        _add_exhausted(report, "minimal-primitive", exhausted)
        return report
    gamma = prim.gamma
    m_k = prim.certificate.optimum
    proof = prim.certificate.infeasibility_proof
    report.add("minimal-primitive", PASS, m_k=m_k,
               certificate=proof.get("kind"))
    _attach_dual(report, proof)
    try:
        n = pick_n(gamma, n_mode)
    except OverflowError:
        report.add("interval-length", FAIL, reason="factorial overflow")
        return report
    est = (2 * n + 1) * bundle.complex.total_cells()
    if est > PROP52_CELL_BUDGET:
        report.add(
            "interval-length", INCONCLUSIVE, n=n, estimated_cells=est,
            suggestion="rerun with --n-mode lcm",
        )
        return report
    report.add("interval-length", PASS, n=n, mode=n_mode)
    cert = build_beta(gamma, n, size_guard=PROP52_CELL_BUDGET)
    target = product_obstruction_cocycle(bundle.obstruction, cert.product)
    lhs = coboundary(cert.beta)
    report.check("product-coboundary-identity", lhs == target,
                 cells=cert.product.complex.n_cells(3))
    report.check("beta-norm-bound", cert.beta.norm() <= 4,
                 norm=cert.beta.norm())
    if out_prefix is not None:
        path1 = f"{out_prefix}.mk.ckx"
        text1 = write_complex(path1, bundle.complex, cochains={
            "obstruction": bundle.obstruction, "primitive": gamma,
        })
        report.attach_witness("mk-complex", path1, text1)
        path2 = f"{out_prefix}.product.ckx"
        text2 = write_complex(path2, cert.product.complex, cochains={
            "beta": cert.beta, "target": target,
        })
        report.attach_witness("product-complex", path2, text2)
    return report


def verify_tower(params, stages, node_limit=10_000_000, out_prefix=None):
    """Stage bounds, star-refinement witnesses, carrier containment, growth."""
    report = VerificationReport(
        command="verify-tower",
        params=_params_dict(params, {"stages": stages,
                                     "node_limit": node_limit}),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tower = build_tower(params, depth=stages - 1,
                            size_guard=TOWER_CELL_BUDGET)
    from .metric_nerve import lipschitz_constant

    for stage in tower[1:]:
        # simplicial into the mesh-1/2 subdivision: vertex-level constant of
        # the tau map is at most 1, so the stage contracts by the mesh factor
        vertex_level = lipschitz_constant(stage.tau_map)
        lip_ok = (vertex_level <= 1
                  and stage.lipschitz_bound <= Fraction(1, 2))
        report.check(
            f"stage-{stage.level}-lipschitz", lip_ok,
            vertex_level=vertex_level,
            bound=stage.lipschitz_bound,
            cells=stage.complex.total_cells(),
        )
        carriers = stage_carriers(stage)
        ok_c, offending = check_stage_carriers(stage, carriers)
        report.check(f"stage-{stage.level}-carrier-containment", ok_c,
                     offending=offending)
        ok_o, wit = open_star_refinement_witnesses(stage, carriers)
        report.check(
            f"stage-{stage.level}-star-refinement", ok_o,
            vertices=len(wit),
            missing=sum(1 for u in wit.values() if u is None),
        )
    # norm growth across levels
    values = []
    status = PASS
    for j in range(1, params.k + 1):
        sub = MkParams(params.p, params.q, j, reduce=params.reduce)
        bundle = build_Mk(sub)
        prim, exhausted = _search_primitive(report, bundle, node_limit)
        if exhausted is not None:
            _add_exhausted(report, f"norm-growth-level-{j}", exhausted)
            status = INCONCLUSIVE
            continue
        values.append((j, prim.certificate.optimum))
        if out_prefix is not None:
            path = f"{out_prefix}.level-{j}.mk.ckx"
            text = write_complex(path, bundle.complex, cochains={
                "obstruction": bundle.obstruction, "primitive": prim.gamma,
            })
            report.attach_witness(f"mk-level-{j}", path, text)
    growing = all(a[1] < b[1] for a, b in zip(values, values[1:]))
    meets = all(m >= params.q ** j - 1 for j, m in values)
    if status == PASS:
        report.check(
            "norm-growth-table", growing and meets,
            table={str(j): m for j, m in values},
            strictly_growing=growing, meets_lower_bounds=meets,
        )
    return report


def check_witness(report_path):
    """Re-validate a report's serialized witnesses without any search."""
    from .report import load_report

    data = load_report(report_path)
    base_dir = os.path.dirname(os.path.abspath(str(report_path)))

    def resolve(entry):
        path = os.path.join(base_dir, entry["path"])
        try:
            with open(path) as fp:
                text = fp.read()
        except OSError:
            # the parse record that follows says why
            return path, False
        digest = hashlib.sha256(text.encode()).hexdigest()
        return path, digest == entry.get("sha256")

    out = VerificationReport(command="check-witness",
                             params={"report": os.path.basename(str(report_path))})
    params = None
    given = data.get("params")
    given = given if isinstance(given, dict) else {}
    edge_scale = str(given.get("edge_scale", HOLE_EDGES))
    if edge_scale != str(HOLE_EDGES):
        # every hole of M(p, q, k) has HOLE_EDGES edges: no other build exists
        out.add("params-edge-scale", FAIL, edge_scale=edge_scale,
                expected=HOLE_EDGES)
    else:
        try:
            params = _report_mk_params(given)
        except InvalidParams as exc:
            out.add("report-params", FAIL, reason=str(exc))
    witnesses = data.get("witnesses", {})
    mk_entry = witnesses.get("mk-complex")
    mk = None
    if mk_entry:
        # prop51 claims m_k under norm-lower-bound, prop52 under
        # minimal-primitive; either way the witness must attain it and an
        # LP dual, when carried, must bound it from below
        claimed = _find_value(data, ("norm-lower-bound", "minimal-primitive"),
                              "m_k")
        mk = _check_mk_witness(out, resolve(mk_entry), claimed)
        dual_entry = witnesses.get("norm-lower-bound-dual")
        if dual_entry:
            _check_dual_witness(out, params, dual_entry, claimed)
    # verify-tower: one witness per row j of the norm-growth table
    table = _find_value(data, ("norm-growth-table",), "table") or {}
    levels = sorted(int(name[len("mk-level-"):]) for name in witnesses
                    if name.startswith("mk-level-"))
    for j in levels:
        _check_mk_witness(out, resolve(witnesses[f"mk-level-{j}"]),
                          table.get(str(j)), tag=f"level-{j}-")
    prod_entry = witnesses.get("product-complex")
    if prod_entry:
        prod_path, digest_ok = resolve(prod_entry)
        out.check("product-witness-digest", digest_ok)
        read = _read_witness(out, "product-witness-parse", prod_path,
                             ("beta", "target"))
        if read:
            P, (beta, target) = read
            out.check("beta-coboundary-identity", coboundary(beta) == target)
            out.check("beta-norm-bound", beta.norm() <= 4, norm=beta.norm())
            n = _find_value(data, ("interval-length",), "n")
            _check_product_target(out, mk, n, P, target)
    if not out.records:
        out.add("no-witnesses-found", FAIL, report=str(report_path))
    return out


def _report_mk_params(given):
    """The M(p, q, k) parameters a report's params name; InvalidParams
    says why they name none."""
    try:
        p, q, k = (int(str(given[key])) for key in ("p", "q", "k"))
    except KeyError as exc:
        raise InvalidParams(f"the report's params have no {exc}") from None
    except ValueError:
        raise InvalidParams(
            "the report's p, q and k must be integers, got "
            f"{given['p']!r}, {given['q']!r} and {given['k']!r}") from None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return MkParams(p, q, k, reduce=given.get("reduce") == "true")


def _read_witness(out, name, path, cochain_names):
    """A witness file's complex and its named cochains bound to it, or None
    after a FAIL record ``name`` saying why the file cannot be read."""
    try:
        X, raw = read_complex(path)
        return X, [bind_cochain(X, raw[c]) for c in cochain_names]
    except OSError as exc:
        reason = f"cannot read {os.path.basename(path)}: {exc.strerror}"
    except KeyError as exc:
        reason = f"no cochain {exc}"
    except CoarseKitError as exc:
        reason = str(exc)
    out.add(name, FAIL, reason=reason)
    return None


def _check_mk_witness(out, resolved, claimed, tag=""):
    """Re-check one M_k witness file: its digest, delta(primitive) =
    obstruction, the primitive vanishing on the boundary subcomplex and,
    when a value is claimed, its norm equal to it.  An unreadable file is
    one FAIL record.  Returns the file's complex and obstruction, or None
    when it cannot be read."""
    path, digest_ok = resolved
    out.check(f"{tag}mk-witness-digest", digest_ok)
    read = _read_witness(out, f"{tag}mk-witness-parse", path,
                         ("obstruction", "primitive"))
    if not read:
        return None
    X, (obstruction, gamma) = read
    if "boundary" not in X.labels:
        out.add(f"{tag}mk-witness-parse", FAIL, reason="no boundary label")
        return None
    out.check(f"{tag}witness-solves-system",
              coboundary(gamma) == obstruction,
              norm=gamma.norm())
    boundary_edges = set(X.label_cells_of_dim("boundary", 1))
    vanishes = all(gamma.values[e] == 0 for e in boundary_edges)
    out.check(f"{tag}witness-vanishes-on-boundary", vanishes)
    if claimed is not None:
        out.check(f"{tag}witness-norm-matches-claim",
                  gamma.norm() == decode_number(claimed),
                  claimed=claimed, actual=gamma.norm())
    return X, obstruction


def _check_product_target(out, mk, n, P, target):
    """Tie the product witness to M_k: its complex ``P`` is the M_k
    witness's complex times [0, n] for the report's interval length n, and
    its ``target`` is that complex's obstruction pulled back to the product
    (:func:`towers.product_obstruction_cocycle`).  ``mk`` is the M_k
    witness's complex and obstruction, None when it was not read."""
    name = "product-target-is-pulled-back-obstruction"
    if mk is None:
        return out.check(name, False, reason="no readable M_k witness")
    if not (isinstance(n, str) and n.isdecimal()):
        return out.check(name, False,
                         reason=f"the report gives no interval length n: {n!r}")
    X, obstruction = mk
    try:
        prod = interval_product(X, int(n), size_guard=PROP52_CELL_BUDGET)
    except CoarseKitError as exc:
        return out.check(name, False, n=n, reason=str(exc))
    if not same_structure(P, prod.complex):
        return out.check(name, False, n=n,
                         reason=f"the product witness is not M_k x [0, {n}]")
    want = product_obstruction_cocycle(obstruction, prod)
    if (target.ring, target.values) != (want.ring, want.values):
        return out.check(name, False, n=n,
                         reason="target is not the pulled-back obstruction")
    return out.check(name, True, n=n)


def _check_dual_witness(out, params, entry, claimed):
    """Re-check the LP dual y behind a claimed minimal norm m_k: one entry
    per relative face, ||A^T y||_1 <= 1 and y . b > m_k - 1 on the relative
    system, and the stored bound equal to m_k - 1.  A malformed entry or
    claim, or no ``params`` to rebuild the system from, is a FAIL record."""
    name = "lower-bound-dual-certificate"
    if params is None:
        return out.check(name, False,
                         reason="the report's params give no M(p, q, k)")
    try:
        m_k = decode_number(claimed)
        bound = decode_number(entry["bound"])
        if not isinstance(entry["dual"], list):
            raise TypeError("dual is not a list")
        dual = [Fraction(v) for v in entry["dual"]]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return out.check(name, False, reason=f"malformed certificate: {exc}")
    if bound != m_k - 1:
        return out.check(name, False, bound=bound,
                         reason=f"bound is not m_k - 1 = {m_k - 1}")
    mat, rhs, _, _ = _relative_system(build_Mk(params))
    if len(dual) != len(rhs):
        return out.check(name, False, bound=bound,
                         reason=f"{len(dual)} dual entries for "
                                f"{len(rhs)} relative faces")
    return out.check(name, check_lp_lower_bound(mat, rhs, dual, m_k - 1),
                     bound=bound)


def _find_value(data, record_names, key):
    for rec in data.get("records", []):
        if rec["name"] in record_names:
            return rec["values"].get(key)
    return None


def homology_summary(X, ring=RING_Z):
    """Per-degree cohomology table for a complex (used by the CLI)."""
    from .cochains import cohomology

    out = []
    for k in range(X.dim + 1):
        s = cohomology(X, k, ring)
        out.append({"degree": k, "free_rank": s.free_rank,
                    "torsion": list(s.torsion)})
    return out
