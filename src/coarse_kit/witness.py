"""check-witness: re-check a report without any search.

:func:`check_witness` rebuilds the complexes a report's params fix,
re-checks its inline witnesses on them and recomputes the records its
params and witnesses give (:mod:`coarse_kit.records`).  check-witness
loads this module and not the verify pipelines of
:mod:`coarse_kit.verify`; the towers and the product certificate are
imported only to check a verify-prop52 or verify-tower report.
"""

import os
import re
import warnings
from fractions import Fraction

from .cochains import Cochain, coboundary
from .errors import CoarseKitError, InvalidParams
from .exact_linalg import check_lp_lower_bound
from .mk import MkParams, build_Mk
from .records import (
    PROP52_CELL_BUDGET,
    RECOMPUTED_RECORDS,
    _add_arithmetic_records,
    _add_growth_table,
    _add_interval_length,
    _add_norm_lower_bound,
    _add_solvable_record,
    _add_stage_records,
    _claimed_int,
    _relative_system,
)
from .report import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    VerificationReport,
    decode_number,
    load_report,
)
from .rings import RING_Z

# a witness entry maps canonical decimal cell indices to decimal integers
_INDEX = re.compile(r"0|[1-9][0-9]*")
_INTEGER = re.compile(r"-?[0-9]+")
NO_MK = "the report's params give no M(p, q, k)"


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
    reduce = given.get("reduce")
    if reduce not in ("true", "false"):
        raise InvalidParams("the report's reduce must be \"true\" or "
                            f"\"false\", got {reduce!r}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return MkParams(p, q, k, reduce=reduce == "true")


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
    # imported here: only a verify-prop52 report has a beta to check
    from .constructions import interval_product
    from .towers import product_obstruction_cocycle

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


# its public name stays verify.check_witness, where perfbench/design.json
# traces it; verify resolves that name lazily
check_witness.__module__ = "coarse_kit.verify"
