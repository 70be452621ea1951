"""The report records that a verify pipeline writes and check-witness
recomputes.

Each function here adds one or a few records to a report from the params
and the witnesses alone: prop51's solvability, arithmetic and norm-bound
records, prop52's interval length, verify-tower's stage records and growth
table.  :mod:`coarse_kit.verify` calls them to write a report and
:mod:`coarse_kit.witness` calls them again to check one, so every verify
command and check-witness load this module.  The tower code the stage
records need is imported where they run.
"""

import warnings

from .cochains import relative_coboundary_matrix
from .complexes import _subcomplex_cells, labeled_cycle
from .degrees import DegreeReport, bezout, check_degree_relation, min_m_bound
from .exact_linalg import smith_normal_form, solve_integer
from .report import FAIL, INCONCLUSIVE, PASS

# cell budgets: the beta product of verify-prop52, the tower of verify-tower
PROP52_CELL_BUDGET = 200_000
TOWER_CELL_BUDGET = 300_000


def _relative_system(bundle):
    """(sparse rows, rhs, kept columns, kept rows) of the obstruction's
    relative system delta(gamma) = obstruction on the bundle's M(p, q, k)."""
    M = bundle.complex
    A_cells = _subcomplex_cells(M, bundle.boundary_label)
    mat, cols, rows = relative_coboundary_matrix(M, A_cells, 1)
    rhs = [bundle.obstruction.values[j] for j in rows]
    return mat, rhs, cols, rows


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


def _add_interval_length(report, gamma, n_mode):
    """prop52's interval-length record for the primitive ``gamma``: the n
    that ``pick_n`` gives it, PASS when M(p, q, k) x [0, n] fits
    :data:`PROP52_CELL_BUDGET`, else INCONCLUSIVE, suggesting lcm when it
    was not the mode.  Returns n when the record passes, else None."""
    from .towers import pick_n  # not loaded for a verify-prop51 report

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


def _add_stage_records(report, params, stages):
    """verify-tower's records for each stage j >= 1 of ``build_tower(params,
    stages - 1)``: its tau map into the mesh-1/2 subdivision of stage j-1 is
    1-Lipschitz, and its projection approximates it and refines stars."""
    # imported here: at module level they would load the tower code and
    # metric_nerve in every verify-prop51 and check-witness start
    from .metric_nerve import lipschitz_constant
    from .towers import (
        build_tower,
        check_stage_carriers,
        open_star_refinement_witnesses,
        stage_carriers,
    )

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tower = build_tower(params, depth=stages - 1,
                            size_guard=TOWER_CELL_BUDGET)
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
