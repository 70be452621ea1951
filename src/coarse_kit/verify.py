"""Verification pipelines behind the verify-prop51, verify-prop52 and
verify-tower commands.

Each pipeline builds the complexes it needs, runs the exact checks and
returns a report that carries its witness cochains inline, so that
check-witness (:mod:`coarse_kit.witness`) can validate its PASS records on
complexes it rebuilds from the report's params, without re-running any
search.  The records that check-witness recomputes are added by
:mod:`coarse_kit.records`, which both load.  The towers and the product
certificate (:mod:`coarse_kit.towers`) are imported by the pipelines that
run them, so verify-prop51 loads neither.
"""

from .cochains import coboundary, min_norm_primitive
from .errors import NodeLimitExceeded, NotACoboundary
from .mk import MkParams, build_Mk
from .records import (
    PROP52_CELL_BUDGET,
    _add_arithmetic_records,
    _add_growth_table,
    _add_interval_length,
    _add_norm_lower_bound,
    _add_solvable_record,
    _add_stage_records,
)
from .report import INCONCLUSIVE, PASS, VerificationReport


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


def verify_prop52(params, node_limit=10_000_000, n_mode="factorial"):
    """Bounded product primitive: delta(beta) = pulled-back cocycle, norm <= 4."""
    # imported here, so that verify-prop51 does not load the tower code
    from .towers import build_beta, product_obstruction_cocycle

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


def __getattr__(name):
    # perfbench/design.json traces check_witness and homology_summary as
    # verify.<name>, where they were defined; importing them here would load
    # the checkers and the cohomology code in every verify start
    if name == "check_witness":
        from .witness import check_witness

        return check_witness
    if name == "homology_summary":
        from .homology import homology_summary

        return homology_summary
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
