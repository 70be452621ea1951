"""Verification pipelines behind the CLI subcommands.

Each pipeline builds the complexes it needs, runs the exact checks and
returns a report that carries its witness cochains inline, so that
``check_witness`` can validate its PASS records on complexes it rebuilds
from the report's params, without re-running any search.
"""

import os
import re
import warnings
from fractions import Fraction

from .cochains import (
    RING_Z,
    Cochain,
    _subcomplex_cells,
    coboundary,
    cohomology,
    min_norm_primitive,
    relative_coboundary_matrix,
)
from .complexes import interval_product, labeled_cycle
from .degrees import DegreeReport, bezout, check_degree_relation, min_m_bound
from .errors import (
    CoarseKitError,
    InvalidParams,
    NodeLimitExceeded,
    NotACoboundary,
)
from .exact_linalg import check_lp_lower_bound, smith_normal_form, solve_integer
from .report import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    VerificationReport,
    decode_number,
    load_report,
)
from .towers import (
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

# a witness entry maps canonical decimal cell indices to decimal integers
_INDEX = re.compile(r"0|[1-9][0-9]*")
_INTEGER = re.compile(r"-?[0-9]+")
NO_MK = "the report's params give no M(p, q, k)"


def _params_dict(params, extra):
    return {"p": params.p, "q": params.q, "k": params.k,
            "reduce": params.reduce, **extra}


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
    """(sparse rows, rhs, kept columns, kept rows) of the obstruction's
    relative system delta(gamma) = obstruction on the bundle's M(p, q, k)."""
    M = bundle.complex
    A_cells = _subcomplex_cells(M, bundle.boundary_label)
    mat, cols, rows = relative_coboundary_matrix(M, A_cells, 1)
    rhs = [bundle.obstruction.values[j] for j in rows]
    return mat, rhs, cols, rows


def verify_prop51(params, node_limit=10_000_000):
    """Retraction obstruction, Bezout bound, degree relation, norm growth."""
    report = VerificationReport(
        command="verify-prop51",
        params=_params_dict(params, {"node_limit": node_limit}),
    )
    bundle = build_Mk(params)
    q, k = params.q, params.k

    # (a) the obstruction cocycle has a primitive: absolute and relative.
    # The relative system is factored once, by the minimal-primitive search
    # of (d), which raises NotACoboundary when it has no solution
    try:
        prim, exhausted = _search_primitive(report, bundle, node_limit)
    except NotACoboundary:
        prim = exhausted = None
    _add_solvable_record(report, bundle,
                         prim is not None or exhausted is not None)

    _add_arithmetic_records(report, bundle)

    # (d) exact minimal primitive norm >= q^k - 1; without a relative
    # primitive there is no norm to bound and (a) has already failed
    if prim is not None:
        _add_norm_lower_bound(
            report, prim.certificate.optimum, q, k,
            certificate=prim.certificate.infeasibility_proof.get("kind"),
            evaluations=prim.certificate.node_count)
        _attach_primitive(report, prim)
    elif exhausted is not None:
        _add_exhausted(report, "norm-lower-bound", exhausted)
    return report


def _add_solvable_record(report, bundle, relative):
    """prop51's retraction-obstruction-solvable record: the obstruction has
    integer primitives relative to the boundary and absolute.  ``relative``
    None solves the relative system; the absolute one is solved only when
    it has no solution, as a relative primitive is an absolute one."""
    M, obstruction = bundle.complex, bundle.obstruction
    if relative is None:
        mat, rhs, cols, _ = _relative_system(bundle)
        on_boundary = M.label_cells_of_dim(bundle.boundary_label, 2)
        relative = not any(obstruction.values[j] for j in on_boundary) \
            and bool(solve_integer(mat, rhs, snf=smith_normal_form(
                mat, ncols=len(cols))))
    absolute = relative
    if not absolute:
        abs_mat, abs_cols, abs_rows = relative_coboundary_matrix(M, set(), 1)
        absolute = bool(solve_integer(
            abs_mat, [obstruction.values[j] for j in abs_rows],
            snf=smith_normal_form(abs_mat, ncols=len(abs_cols))))
    report.check("retraction-obstruction-solvable", absolute and relative,
                 absolute=absolute, relative=relative)


ARITHMETIC_RECORDS = ("bezout-coefficient-bound", "degree-relation",
                      "winding-relation")
# with the stage-* records: what check-witness recomputes from the params
# and the witnesses alone
RECOMPUTED_RECORDS = (*ARITHMETIC_RECORDS, "interval-length")


def _add_arithmetic_records(report, bundle):
    """Add prop51's :data:`ARITHMETIC_RECORDS`, functions of the bundle's
    M(p, q, k) alone that check-witness recomputes."""
    p, q, k = bundle.params.p, bundle.params.q, bundle.params.k
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


def _add_norm_lower_bound(report, m_k, q, k, **values):
    """prop51's norm-lower-bound record: the minimal norm m_k >= q^k - 1."""
    bound = q ** k - 1
    report.check("norm-lower-bound", m_k is not None and m_k >= bound,
                 m_k=m_k, bound=bound, **values)


def _sparse(cochain):
    """A witness entry: the nonzero values of a cochain by cell index."""
    return {str(i): str(v) for i, v in enumerate(cochain.values) if v}


def _attach_primitive(report, prim):
    """Carry a minimal primitive as a witness, and its LP dual lower-bound
    certificate when it has one, so that check-witness can re-check the
    claimed minimal norm."""
    report.witnesses["primitive"] = _sparse(prim.gamma)
    proof = prim.certificate.infeasibility_proof
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


def verify_prop52(params, node_limit=10_000_000, n_mode="factorial"):
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
    _attach_primitive(report, prim)
    n = _add_interval_length(report, gamma, n_mode)
    if n is None:
        return report
    cert = build_beta(gamma, n, size_guard=PROP52_CELL_BUDGET)
    target = product_obstruction_cocycle(bundle.obstruction, cert.product)
    lhs = coboundary(cert.beta)
    report.check("product-coboundary-identity", lhs == target,
                 cells=cert.product.complex.n_cells(3))
    report.check("beta-norm-bound", cert.beta.norm() <= 4,
                 norm=cert.beta.norm())
    report.witnesses["beta"] = _sparse(cert.beta)
    return report


def _add_interval_length(report, gamma, n_mode):
    """prop52's interval-length record for the primitive ``gamma``: the n
    that ``pick_n`` gives it, PASS when M(p, q, k) x [0, n] fits
    :data:`PROP52_CELL_BUDGET`, else INCONCLUSIVE, suggesting lcm when it
    was not the mode.  Returns n when the record passes, else None."""
    try:
        n = pick_n(gamma, n_mode)
    except OverflowError:
        report.add("interval-length", FAIL, reason="factorial overflow")
        return None
    est = (2 * n + 1) * gamma.complex.total_cells()
    if est > PROP52_CELL_BUDGET:
        hint = ({} if n_mode == "lcm" else
                {"suggestion": "rerun with --n-mode lcm"})
        report.add("interval-length", INCONCLUSIVE, n=n, estimated_cells=est,
                   **hint)
        return None
    report.add("interval-length", PASS, n=n, mode=n_mode)
    return n


def verify_tower(params, stages, node_limit=10_000_000):
    """Stage records (:func:`_add_stage_records`) and the growth of the
    minimal norms across levels, each row with its primitive."""
    report = VerificationReport(
        command="verify-tower",
        params=_params_dict(params, {"stages": stages,
                                     "node_limit": node_limit}),
    )
    _add_stage_records(report, params, stages)
    table, gammas = {}, {}
    for j in range(1, params.k + 1):
        sub = MkParams(params.p, params.q, j, reduce=params.reduce)
        prim, exhausted = _search_primitive(report, build_Mk(sub), node_limit)
        if exhausted is not None:
            _add_exhausted(report, f"norm-growth-level-{j}", exhausted)
            continue
        table[str(j)] = prim.certificate.optimum
        gammas[f"level-{j}-primitive"] = _sparse(prim.gamma)
    if len(table) == params.k:
        _add_growth_table(report, table, params.q, params.k)
        report.witnesses.update(gammas)
    return report


def _add_stage_records(report, params, stages):
    """verify-tower's records for each stage j >= 1 of ``build_tower(params,
    stages - 1)``: its tau map into the mesh-1/2 subdivision of stage j-1 is
    1-Lipschitz, and its projection approximates it and refines stars."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tower = build_tower(params, depth=stages - 1,
                            size_guard=TOWER_CELL_BUDGET)
    # imported here: at module level it would load metric_nerve in every
    # CLI start
    from .metric_nerve import lipschitz_constant

    for stage in tower[1:]:
        vertex_level = lipschitz_constant(stage.tau_map)
        report.check(f"stage-{stage.level}-lipschitz", vertex_level <= 1,
                     vertex_level=vertex_level,
                     cells=stage.complex.total_cells())
        carriers = stage_carriers(stage)
        ok_c, offending = check_stage_carriers(stage, carriers)
        report.check(f"stage-{stage.level}-carrier-containment", ok_c,
                     offending=offending)
        ok_o, wit = open_star_refinement_witnesses(stage, carriers)
        report.check(f"stage-{stage.level}-star-refinement", ok_o,
                     vertices=len(wit),
                     missing=sum(1 for u in wit.values() if u is None))


def _add_growth_table(report, table, q, k):
    """verify-tower's norm-growth-table record of ``{str(j): m_j}``: every
    level 1..k has an integer m_j, growing strictly and >= q^j - 1."""
    rows = [_claimed_int(table.get(str(j))) for j in range(1, k + 1)]
    whole = None not in rows
    growing = whole and all(a < b for a, b in zip(rows, rows[1:]))
    meets = whole and all(m >= q ** j - 1 for j, m in enumerate(rows, 1))
    report.check("norm-growth-table", growing and meets, table=table,
                 strictly_growing=growing, meets_lower_bounds=meets)


def _claimed_int(value):
    """The integer a report's value names, or None."""
    try:
        return int(str(value))
    except ValueError:
        return None


def check_witness(report_path):
    """Re-check a report without any search, on the complexes its params
    fix: its inline witnesses (primitive and LP dual on M(p, q, k), beta on
    M x [0, n], row j of a norm-growth table on M(p, q, j)), its status and
    the records its params and its witnesses give
    (:func:`_check_recomputed`).  A missing or an unexpected witness, a
    verify-tower level record that is not INCONCLUSIVE, and a report that
    cannot be read are each a FAIL."""
    out = VerificationReport(command="check-witness",
                             params={"report": os.path.basename(str(report_path))})
    try:
        data = load_report(report_path)
        records, witnesses = _report_parts(data)
    except ValueError as exc:
        out.add("report-parse", FAIL, reason=str(exc))
        return out
    status = VerificationReport(command="", params={},
                                records=data.get("records", [])).status
    if data.get("status") != status:
        out.add("report-status", FAIL, claimed=data.get("status"),
                recomputed=status)
    params = None
    given = data.get("params")
    given = given if isinstance(given, dict) else {}
    try:
        params = _report_mk_params(given)
    except InvalidParams as exc:
        out.add("report-params", FAIL, reason=str(exc))
    claims = {name: rec["values"] for name, rec in records.items()}
    # prop51 claims m_k under norm-lower-bound, prop52 under
    # minimal-primitive: the primitive must attain it and an LP dual, when
    # that is its certificate, must bound it from below.  The product
    # identity calls for beta, and row j of verify-tower's norm-growth table
    # for the primitive of level j
    mk_claim = (claims.get("norm-lower-bound")
                or claims.get("minimal-primitive") or {})
    table = claims.get("norm-growth-table", {}).get("table", {})
    needed = {f"level-{j}-primitive" for j in table}
    if "m_k" in mk_claim:
        needed.add("primitive")
    if mk_claim.get("certificate") == "lp-dual":
        needed.add("norm-lower-bound-dual")
    if "product-coboundary-identity" in claims or records.get(
            "interval-length", {}).get("status") == PASS:
        needed.add("beta")
    for name, names in (("missing-witness", needed - witnesses.keys()),
                        ("unexpected-witness", witnesses.keys() - needed)):
        if names:
            out.add(name, FAIL, witnesses=sorted(names))
    present = needed & witnesses.keys()
    command = data.get("command")
    bundle = None
    if params is not None and (command == "verify-prop51" or present & {
            "primitive", "beta", "norm-lower-bound-dual"}):
        bundle = build_Mk(params)
    # the records the params and the witnesses give
    redo = None if params is None else VerificationReport(command="",
                                                          params={})
    m_k = mk_claim.get("m_k")
    gamma = None
    attained = False
    if "primitive" in present:
        gamma, attained = _check_primitive(out, bundle,
                                           witnesses["primitive"], m_k)
    if "norm-lower-bound-dual" in present:
        _check_dual_witness(out, bundle, witnesses["norm-lower-bound-dual"],
                            m_k)
    if "beta" in present:
        _check_beta(out, redo, bundle, witnesses["beta"],
                    claims.get("interval-length", {}).get("n"))
    for j, claimed in table.items():
        tag = f"level-{j}-"
        if f"{tag}primitive" not in present:
            continue
        level = None
        if params is not None:
            if j not in map(str, range(1, params.k + 1)):
                out.add(f"{tag}witness-solves-system", FAIL,
                        reason=f"{j!r} is not a level 1..{params.k}")
                continue
            level = build_Mk(_report_mk_params({**given, "k": j}))
        _check_primitive(out, level, witnesses[f"{tag}primitive"], claimed,
                         tag)
    if redo is not None:
        # a primitive that attains m_k solves the relative system and makes
        # prop52's minimal-primitive a PASS; one that does not has failed
        if command == "verify-prop51":
            _add_solvable_record(redo, bundle, attained or None)
            _add_arithmetic_records(redo, bundle)
        minimal = records.get("minimal-primitive", {"status": INCONCLUSIVE})
        if command == "verify-prop52" and attained and \
                minimal["status"] != INCONCLUSIVE:
            redo.add("minimal-primitive", PASS, m_k=m_k,
                     certificate=mk_claim.get("certificate"))
        try:
            if command == "verify-prop52" and gamma is not None:
                _add_interval_length(redo, gamma, given.get("n_mode"))
            elif command == "verify-tower":
                _add_stage_records(redo, params,
                                   _claimed_int(given.get("stages")) or 0)
        except CoarseKitError as exc:
            out.add("report-params", FAIL, reason=str(exc))
        nlb = records.get("norm-lower-bound", {"status": INCONCLUSIVE})
        if nlb["status"] != INCONCLUSIVE:
            claim = nlb["values"]
            _add_norm_lower_bound(
                redo, _claimed_int(claim.get("m_k")), params.q, params.k,
                certificate=claim.get("certificate"),
                evaluations=claim.get("evaluations"))
        if "norm-growth-table" in claims:
            _add_growth_table(redo, table, params.q, params.k)
    _check_recomputed(out, records, redo)
    # verify-tower writes a level record only when that level's search ran
    # out of nodes, and then writes no table
    levels = [name for name in records
              if name.startswith("norm-growth-level-")]
    for name in levels:
        if records[name]["status"] != INCONCLUSIVE:
            out.add(name, FAIL, reason="a level outside the norm-growth "
                                       "table can only be INCONCLUSIVE")
    if command == "verify-tower" and not levels and \
            "norm-growth-table" not in records:
        out.add("norm-growth-table", FAIL,
                reason="the report has no such record")
    if not out.records:
        out.add("no-witnesses-found", FAIL, report=str(report_path))
    return out


def _report_parts(data):
    """A report's records by record name, and its witnesses; ValueError
    says why the report has none."""
    if not isinstance(data, dict):
        raise ValueError("the report is not a JSON object")
    records, witnesses = data.get("records", []), data.get("witnesses", {})
    if not isinstance(records, list):
        raise ValueError("the report's records are not a list")
    if not isinstance(witnesses, dict):
        raise ValueError("the report's witnesses are not an object")
    by_name = {}
    for i, rec in enumerate(records):
        if not (isinstance(rec, dict) and isinstance(rec.get("values"), dict)):
            raise ValueError(f"record {i} is not an object with a values "
                             "object")
        if rec.get("status") not in (PASS, FAIL, INCONCLUSIVE):
            raise ValueError(f"record {i} has no status {PASS}, {FAIL} or "
                             f"{INCONCLUSIVE}")
        by_name.setdefault(str(rec.get("name")), rec)
    table = by_name.get("norm-growth-table", {"values": {}})["values"]
    if not isinstance(table.get("table", {}), dict):
        raise ValueError("the norm-growth-table is not an object")
    return by_name, witnesses


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


def _read_entry(entry, X, degree):
    """The integer cochain on the degree-cells of X that a witness entry
    ``{cell: value}`` gives; ValueError says why the entry gives none."""
    if not isinstance(entry, dict):
        raise ValueError("the witness is not an object of cell values")
    values = [0] * X.n_cells(degree)
    for cell, v in entry.items():
        if not (_INDEX.fullmatch(cell) and int(cell) < len(values)):
            raise ValueError(f"cell {cell!r} is not a {degree}-cell index "
                             f"below {len(values)}")
        if not (isinstance(v, str) and _INTEGER.fullmatch(v)):
            raise ValueError(f"the value {v!r} of cell {cell} is not a "
                             "decimal integer")
        values[int(cell)] = int(v)
    return Cochain(X, degree, RING_Z, values)


def _check_primitive(out, bundle, entry, claimed, tag=""):
    """Re-check a primitive gamma on the bundle's M(p, q, k): delta(gamma) =
    obstruction, gamma vanishing on the boundary subcomplex and, when a
    value is claimed, its norm equal to it.  Returns (gamma, whether every
    check passed); no bundle, or an entry that is no 1-cochain on it, is a
    FAIL of the first record and returns (None, False)."""
    name = f"{tag}witness-solves-system"
    if bundle is None:
        out.check(name, False, reason=NO_MK)
        return None, False
    try:
        gamma = _read_entry(entry, bundle.complex, 1)
    except ValueError as exc:
        out.check(name, False, reason=str(exc))
        return None, False
    solves = coboundary(gamma) == bundle.obstruction
    out.check(name, solves, norm=gamma.norm())
    boundary = bundle.complex.label_cells_of_dim(bundle.boundary_label, 1)
    vanishes = all(gamma.values[e] == 0 for e in boundary)
    out.check(f"{tag}witness-vanishes-on-boundary", vanishes)
    attains = True
    if claimed is not None:
        name = f"{tag}witness-norm-matches-claim"
        try:
            attains = gamma.norm() == decode_number(claimed)
        except (TypeError, ValueError, ZeroDivisionError):
            attains = False
            out.check(name, False, claimed=claimed,
                      reason="the claim is not a number")
        else:
            out.check(name, attains, claimed=claimed, actual=gamma.norm())
    return gamma, solves and vanishes and attains


def _check_recomputed(out, records, redo):
    """Each record of ``redo`` must be in the report and equal it, status and
    values, and the report may hold no record of
    :data:`RECOMPUTED_RECORDS` and no stage record that ``redo`` lacks; no
    ``redo`` (no M(p, q, k)) fails every such record."""
    want = {} if redo is None else {r.pop("name"): r for r in redo.records}
    names = list(want) + [name for name in records if name not in want and (
        name in RECOMPUTED_RECORDS or name.startswith("stage-"))]
    for name in names:
        if name not in want:
            out.check(name, False, reason=NO_MK if redo is None else
                      "the report's params give no such record")
        elif {key: records.get(name, {}).get(key)
              for key in ("status", "values")} != want[name]:
            out.check(name, False, recomputed=want[name], reason=(
                "the report's record is not the one its params give"
                if name in records else "the report has no such record"))
        else:
            out.check(name, True)


def _check_beta(out, redo, bundle, entry, n):
    """Re-check beta on M x [0, n], for M the bundle's M(p, q, k) and n the
    report's interval length: delta(beta) is the obstruction pulled back to
    the product (:func:`towers.product_obstruction_cocycle`); a beta that
    does gives ``redo`` prop52's product-coboundary-identity and
    beta-norm-bound records.  No bundle, no n, or an entry that is no
    2-cochain on the product is a FAIL of the first record."""
    name = "beta-coboundary-identity"
    if bundle is None:
        return out.check(name, False, reason=NO_MK)
    if not (isinstance(n, str) and _INDEX.fullmatch(n)):
        return out.check(name, False, reason="the report gives no interval "
                                             f"length n: {n!r}")
    try:
        prod = interval_product(bundle.complex, int(n),
                                size_guard=PROP52_CELL_BUDGET)
        beta = _read_entry(entry, prod.complex, 2)
    except (CoarseKitError, ValueError) as exc:
        return out.check(name, False, n=n, reason=str(exc))
    target = product_obstruction_cocycle(bundle.obstruction, prod)
    if out.check(name, coboundary(beta) == target, n=n) == PASS:
        redo.check("product-coboundary-identity", True,
                   cells=prod.complex.n_cells(3))
        redo.check("beta-norm-bound", beta.norm() <= 4, norm=beta.norm())


def _check_dual_witness(out, bundle, entry, claimed):
    """Re-check the LP dual y behind a claimed minimal norm m_k: one entry
    per relative face, ||A^T y||_1 <= 1 and y . b > m_k - 1 on the relative
    system of the bundle's M(p, q, k), and the stored bound equal to
    m_k - 1.  A malformed entry or claim, or no bundle, is a FAIL record."""
    name = "lower-bound-dual-certificate"
    if bundle is None:
        return out.check(name, False, reason=NO_MK)
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
    mat, rhs, cols, _ = _relative_system(bundle)
    if len(dual) != len(rhs):
        return out.check(name, False, bound=bound,
                         reason=f"{len(dual)} dual entries for "
                                f"{len(rhs)} relative faces")
    return out.check(name, check_lp_lower_bound(mat, rhs, dual, m_k - 1,
                                                ncols=len(cols)),
                     bound=bound)


def homology_summary(X, ring=RING_Z):
    """Per-degree cohomology table for a complex (used by the CLI)."""
    out = []
    for k in range(X.dim + 1):
        s = cohomology(X, k, ring)
        out.append({"degree": k, "free_rank": s.free_rank,
                    "torsion": list(s.torsion)})
    return out
