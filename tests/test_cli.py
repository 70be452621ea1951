import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from coarse_kit.cli import build_parser, main
from coarse_kit.cochains import RING_Z, Cochain
from coarse_kit.report import VerificationReport, load_report
from coarse_kit.verify import ARITHMETIC_RECORDS, NO_MK

# sha256 of reports for the fixed runs below; refactors of the exact core
# must leave these bytes unchanged.  Each report carries its witness
# cochains inline, so its digest pins them too.  They were re-pinned when
# the witnesses moved inline from .ckx files: each report differs from the
# run before only in its `witnesses`.  They were re-pinned again when the
# constant `edge_scale` param left every report and the constant `bound`
# left verify-tower's stage-<j>-lipschitz records: each report is the one
# before with those keys deleted.  The (7,2,1), (5,2,2), prop52 lcm (7,2,1)
# and (3,2,2), and tower (3,2,2) reports were re-pinned when a cut loop
# took over the lattice search: each is the one before with only its
# node_count and evaluations changed
PROP51_521_REPORT = \
    "916c1ed181494336a19ca8aef3ebb7531ea89aca8f776cce5198d189cd47598b"
# the prop52 report carries its lp-dual certificate as the witness
# norm-lower-bound-dual, which check-witness re-checks
PROP52_521_LCM_REPORT = \
    "106a2f3fc86b59a56476cc037518d8cab7d022ae16fdb172e35dc78e764c3694"
# (7,2,1) picks n = 2, so its product obstruction is off the first layer
PROP52_721_LCM_REPORT = \
    "4cad9a8a0cf323401ce7658086cf110648a38901814e2cef99ea657d86f724e9"
# (3,2,2) picks n = 6: a k = 2 product certificate
PROP52_322_LCM_REPORT = \
    "cf24592c38798f9531ee88771bfdf8665c67c0989145a6418ae5dfcac706de11"
PROP51_721_REPORT = \
    "c72fea9e78eca8755b079a47a2a185f209276de2ff5c9f41165f24687bdbc761"
# (5,2,2) is the triple whose lattice search visited 271 points before
# the cut loop, which probes 4
PROP51_522_REPORT = \
    "ae0ca8953c1eb2203f74c193474cbb6aab4a1774c41d33d9212a604ddb2730fa"
# the last stage of build tower (5,2,2) and build y-stage (5,2,1), two
# stages each: the simplicial builders and the .ckx writer
TOWER_522_CKX = \
    "27df807890dd4f5ec514ca5da65fee353cc522b7ffc0b8295a41250e4e08c679"
Y_STAGE_521_CKX = \
    "d571728ec6d4f0a543360f4a313e99f54304305c158b8d82bfb24ae8c4f60911"
# build y-stage (3,2,1), two stages: a second fiber product
Y_STAGE_321_CKX = \
    "2668a0962f489b2801807ddf98992c27483bdbbdc69f517395f2b20e4ea51bf5"
# verify-tower (3,2,2) --reduce, two stages: its carrier-containment and
# star-refinement records come from the stage-1 subdivision's carriers
TOWER_322_REPORT = \
    "20eac7b3afd8a8dbbd2dc625856924eb890dab075f60489d1c085f5e746b1240"


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def report_fixture(name, argv, rc=0):
    """A module fixture: the report of one verify run, written by --out,
    that exits ``rc``."""

    @pytest.fixture(scope="module")
    def report(tmp_path_factory):
        path = tmp_path_factory.mktemp(name) / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(argv + ["--reduce", "--out", str(path)]) == rc
        return path

    return report


# a verify-prop51 (5,2,1) report, whose norm lower bound carries an LP dual
# certificate
prop51_521_report = report_fixture("prop51_521", [
    "verify-prop51", "--p", "5", "--q", "2", "--k", "1"])
# a verify-prop52 --n-mode lcm (5,2,1) report, whose minimal norm carries an
# LP dual certificate
prop52_521_report = report_fixture("prop52_521", [
    "verify-prop52", "--p", "5", "--q", "2", "--k", "1", "--n-mode", "lcm"])
# a verify-prop51 (7,2,1) report, whose M_k has more edges than (5,2,1)'s
prop51_721_report = report_fixture("prop51_721", [
    "verify-prop51", "--p", "7", "--q", "2", "--k", "1"])
# a verify-prop52 --n-mode lcm (7,2,1) report: n = 2 and no LP dual
prop52_721_report = report_fixture("prop52_721", [
    "verify-prop52", "--p", "7", "--q", "2", "--k", "1", "--n-mode", "lcm"])
# a verify-tower (3,2,2) report, whose table has rows 1 and 2
tower_322_report = report_fixture("tower_322", [
    "verify-tower", "--p", "3", "--q", "2", "--k", "2", "--stages", "2"])
# honest FAIL reports: at (2,3,1) m_k 1 is below the bound 2, and the
# (2,3,2) table 1, 2 is below the bounds 2, 8
prop51_231_report = report_fixture("prop51_231", [
    "verify-prop51", "--p", "2", "--q", "3", "--k", "1"], rc=1)
tower_232_report = report_fixture("tower_232", [
    "verify-tower", "--p", "2", "--q", "3", "--k", "2", "--stages", "2"],
    rc=1)
# honest INCONCLUSIVE reports: at (5,2,2) the factorial n = 720 puts the
# product past its cell budget, and at node limit 1 both levels of the
# (3,2,2) tower run out of nodes
prop52_522_factorial_report = report_fixture("prop52_522_factorial", [
    "verify-prop52", "--p", "5", "--q", "2", "--k", "2"], rc=2)
tower_322_exhausted_report = report_fixture("tower_322_exhausted", [
    "verify-tower", "--p", "3", "--q", "2", "--k", "2", "--stages", "2",
    "--node-limit", "1"], rc=2)


def recheck(capsys, tmp_path, report, edit=None):
    """check-witness on a copy of a report after ``edit`` of its data: the
    exit code, and the values of the records that did not pass by name."""
    data = load_report(report)
    if edit is not None:
        edit(data)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    rc = main(["check-witness", "--report", str(path)])
    records = json.loads(capsys.readouterr().out)["records"]
    return rc, {r["name"]: r["values"] for r in records
                if r["status"] != "PASS"}


# edits of a norm-lower-bound-dual witness that check-witness must refuse
DUAL_TAMPERS = [
    # an all-zero dual with its bound lowered to match: y . b = 0 > -1
    lambda e: e.update(dual=["0"] * len(e["dual"]), bound="-1"),
    lambda e: e.update(dual=e["dual"][:-1]),
    lambda e: e.update(dual=["abc"] + e["dual"][1:]),
    lambda e: e.update(dual=e["dual"] + ["0"]),
]
DUAL_TAMPER_IDS = ["zero-dual-low-bound", "one-short", "non-numeric",
                   "one-long"]


def record(data, name):
    return next(r["values"] for r in data["records"] if r["name"] == name)


def negate_first(entry):
    cell = min(entry, key=int)
    entry[cell] = str(-int(entry[cell]))


# edits of a verify-prop52 (5,2,1) report that check-witness must refuse
# with a FAIL of beta-coboundary-identity, and the reason it gives (None:
# delta(beta) differs from the obstruction pulled back to M x [0, n]), and
# whether the interval-length record, recomputed from the primitive, fails
# too.  Forging the product complex itself, or the M_k it is built on, is
# no longer possible: check-witness builds both from the report's params
PRODUCT_FORGERIES = {
    "zeroed": (lambda data: data["witnesses"]["beta"].clear(), None, False),
    "one-value-changed": (lambda data: negate_first(data["witnesses"]["beta"]),
                          None, False),
    "n-edited": (lambda data: record(data, "interval-length").update(n="2"),
                 None, True),
    "no-n": (lambda data: record(data, "interval-length").pop("n"),
             "the report gives no interval length n: None", True),
    "value-not-integer": (lambda data: data["witnesses"]["beta"].update(
        {"0": "1/2"}), "the value '1/2' of cell 0 is not a decimal integer",
        False),
    "cell-out-of-range": (lambda data: data["witnesses"]["beta"].update(
        {"99999": "1"}), "cell '99999' is not a 2-cell index below 387",
        False),
}


def unreadable(reason):
    return {"witness-solves-system": {"reason": reason}}


def first_half(entry):
    return dict(sorted(entry.items(), key=lambda kv: int(kv[0]))
                [:len(entry) // 2])


# edits of the witnesses of a verify-prop51 (5,2,1) report, whose M_k has
# 165 edges, and the records check-witness must fail for them
WITNESS_BREAKS = {
    "one-value-changed": (lambda w: negate_first(w["primitive"]),
                          {"witness-solves-system": {"norm": "1"}}),
    "truncated": (lambda w: w.update(primitive=first_half(w["primitive"])),
                  {"witness-solves-system": {"norm": "1"}}),
    "missing": (lambda w: w.pop("primitive"),
                {"missing-witness": {"witnesses": ["primitive"]}}),
    "no-primitive": (lambda w: w.update(g=w.pop("primitive")),
                     {"missing-witness": {"witnesses": ["primitive"]},
                      "unexpected-witness": {"witnesses": ["g"]}}),
    "not-an-object": (lambda w: w.update(primitive=list(w["primitive"])),
                      unreadable("the witness is not an object of cell "
                                 "values")),
    "cell-out-of-range": (lambda w: w["primitive"].update({"165": "1"}),
                          unreadable("cell '165' is not a 1-cell index "
                                     "below 165")),
    "negative-cell": (lambda w: w["primitive"].update({"-1": "1"}),
                      unreadable("cell '-1' is not a 1-cell index below "
                                 "165")),
    "leading-zero-cell": (lambda w: w["primitive"].update(
        {"08": w["primitive"].pop("8")}),
        unreadable("cell '08' is not a 1-cell index below 165")),
    "value-not-integer": (lambda w: w["primitive"].update({"8": "1/2"}),
                          unreadable("the value '1/2' of cell 8 is not a "
                                     "decimal integer")),
    "value-a-json-number": (lambda w: w["primitive"].update({"8": -1}),
                            unreadable("the value -1 of cell 8 is not a "
                                       "decimal integer")),
}


@pytest.fixture(autouse=True)
def quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


class TestBuild:
    def test_circle(self, capsys, tmp_path):
        rc = main(["build", "circle", "--n", "3",
                   "--out", str(tmp_path / "c.ckx")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cells 3 3" in out
        assert "euler 0" in out

    def test_mk_summary(self, capsys, tmp_path):
        rc = main(["build", "mk", "--p", "5", "--q", "2", "--k", "1",
                   "--reduce", "--out", str(tmp_path / "mk.ckx")])
        assert rc == 0
        assert "euler -1" in capsys.readouterr().out

    def test_mk_prints_no_warning(self):
        # a fresh interpreter, so that no test filter hides a warning
        src = Path(__file__).resolve().parents[1] / "src"
        run = subprocess.run(
            [sys.executable, "-m", "coarse_kit.cli", "build", "mk", "--p", "5",
             "--q", "2", "--k", "1", "--reduce"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert run.returncode == 0
        assert "euler -1" in run.stdout
        assert "Warning" not in run.stderr

    def test_not_prime_is_usage_error(self, capsys):
        rc = main(["build", "mk", "--p", "4", "--q", "2", "--k", "1"])
        assert rc == 3

    def test_product(self, capsys):
        rc = main(["build", "product", "--n", "3", "--levels", "2"])
        assert rc == 0
        assert "euler 0" in capsys.readouterr().out

    def test_y_stage_single(self, capsys):
        rc = main(["build", "y-stage", "--p", "5", "--q", "2", "--k", "1",
                   "--reduce", "--stages", "1"])
        assert rc == 0
        assert "euler -1" in capsys.readouterr().out

    @pytest.mark.parametrize("kind, p, k, digest", [
        ("tower", "5", "2", TOWER_522_CKX),
        ("y-stage", "5", "1", Y_STAGE_521_CKX),
        ("y-stage", "3", "1", Y_STAGE_321_CKX),
    ], ids=["tower-522", "y-stage-521", "y-stage-321"])
    def test_two_stage_ckx_bytes(self, capsys, tmp_path, kind, p, k, digest):
        path = tmp_path / f"{kind}.ckx"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # p = 3 <= q^2 warns
            assert main(["build", kind, "--p", p, "--q", "2", "--k", k,
                         "--reduce", "--stages", "2", "--out", str(path)]) == 0
        capsys.readouterr()
        assert sha256_of(path) == digest

    def test_annulus(self, capsys):
        rc = main(["build", "annulus", "--a", "6", "--b", "3"])
        assert rc == 0
        assert "euler 0" in capsys.readouterr().out


class TestVerify:
    def test_prop51_full_cycle(self, capsys, tmp_path):
        report_path = tmp_path / "p51.json"
        rc = main(["verify-prop51", "--p", "5", "--q", "2", "--k", "1",
                   "--reduce", "--out", str(report_path)])
        assert rc == 0
        data = load_report(report_path)
        assert data["status"] == "PASS"
        names = {r["name"] for r in data["records"]}
        assert {"retraction-obstruction-solvable", "bezout-coefficient-bound",
                "degree-relation", "norm-lower-bound"} <= names
        capsys.readouterr()
        rc2 = main(["check-witness", "--report", str(report_path)])
        assert rc2 == 0

    def test_prop52_lcm(self, capsys, tmp_path):
        report_path = tmp_path / "p52.json"
        rc = main(["verify-prop52", "--p", "5", "--q", "2", "--k", "1",
                   "--reduce", "--n-mode", "lcm", "--out", str(report_path)])
        assert rc == 0
        data = load_report(report_path)
        record = {r["name"]: r for r in data["records"]}
        assert record["beta-norm-bound"]["status"] == "PASS"
        assert sha256_of(report_path) == PROP52_521_LCM_REPORT
        capsys.readouterr()
        assert main(["check-witness", "--report", str(report_path)]) == 0
        checked = json.loads(capsys.readouterr().out)
        claim = {r["name"]: r for r in checked["records"]}
        assert claim["witness-norm-matches-claim"]["status"] == "PASS"
        assert claim["lower-bound-dual-certificate"]["status"] == "PASS"
        assert claim["beta-coboundary-identity"] == {
            "name": "beta-coboundary-identity",
            "status": "PASS", "values": {"n": "1"}}
        # a report claiming a different m_k no longer matches its witness
        for r in data["records"]:
            if r["name"] == "minimal-primitive":
                r["values"]["m_k"] = str(int(r["values"]["m_k"]) + 1)
        report_path.write_text(json.dumps(data))
        assert main(["check-witness", "--report", str(report_path)]) != 0

    def test_prop52_721_lcm_bytes(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        rc = main(["verify-prop52", "--p", "7", "--q", "2", "--k", "1",
                   "--reduce", "--n-mode", "lcm", "--out", str(report_path)])
        capsys.readouterr()
        assert rc == 0
        assert sha256_of(report_path) == PROP52_721_LCM_REPORT
        assert main(["check-witness", "--report", str(report_path)]) == 0

    def test_reports_deterministic(self, capsys, tmp_path):
        # identical inputs (same output filename) in two directories
        d1, d2 = tmp_path / "one", tmp_path / "two"
        d1.mkdir()
        d2.mkdir()
        for d in (d1, d2):
            main(["verify-prop51", "--p", "5", "--q", "2", "--k", "1",
                  "--reduce", "--out", str(d / "report.json")])
        capsys.readouterr()
        assert (d1 / "report.json").read_bytes() == \
            (d2 / "report.json").read_bytes()
        assert sha256_of(d1 / "report.json") == PROP51_521_REPORT
        # --out writes the report only
        assert sorted(p.name for p in d1.iterdir()) == ["report.json"]

    def test_prop51_721_bytes(self, capsys, tmp_path):
        # (7,2,1) is a k = 1 triple where the lattice search takes more than
        # one evaluation, so these bytes pin the witness that search picks
        report_path = tmp_path / "report.json"
        rc = main(["verify-prop51", "--p", "7", "--q", "2", "--k", "1",
                   "--reduce", "--out", str(report_path)])
        capsys.readouterr()
        assert rc == 0
        assert sha256_of(report_path) == PROP51_721_REPORT

    def test_prop51_522_bytes(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        rc = main(["verify-prop51", "--p", "5", "--q", "2", "--k", "2",
                   "--reduce", "--out", str(report_path)])
        capsys.readouterr()
        assert rc == 0
        assert sha256_of(report_path) == PROP51_522_REPORT

    def test_node_limit_interval_522(self, capsys):
        # cut in the middle of the search: the upper end is the incumbent
        rc = main(["verify-prop51", "--p", "5", "--q", "2", "--k", "2",
                   "--reduce", "--node-limit", "3"])
        data = json.loads(capsys.readouterr().out)
        assert rc == 2
        record = {r["name"]: r for r in data["records"]}["norm-lower-bound"]
        assert record["status"] == "INCONCLUSIVE"
        assert record["values"] == {"lower": "1", "node_count": "3",
                                    "upper": "6"}
        assert data["node_count"] == "3"

    @pytest.mark.parametrize("p, q, k", [(5, 2, 3), (7, 2, 2), (3, 2, 3)],
                             ids=["523", "722", "323"])
    def test_growth_rows_close_in_few_probes(self, capsys, tmp_path, p, q,
                                             k):
        # the cut loop closes each lattice line in a few Bellman-Ford runs;
        # a sweep of the proof box takes 110,113, 1,387 and 1,961
        path = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = main(["verify-prop51", "--p", str(p), "--q", str(q),
                       "--k", str(k), "--reduce", "--node-limit", "50",
                       "--out", str(path)])
        assert rc == 0
        assert load_report(path)["status"] == "PASS"
        capsys.readouterr()
        assert main(["check-witness", "--report", str(path)]) == 0

    def test_node_limit_interval(self, capsys):
        rc = main(["verify-prop51", "--p", "7", "--q", "2", "--k", "1",
                   "--reduce", "--node-limit", "1"])
        data = json.loads(capsys.readouterr().out)
        assert rc == 2
        record = {r["name"]: r for r in data["records"]}["norm-lower-bound"]
        assert record["status"] == "INCONCLUSIVE"
        assert record["values"] == {"lower": "1", "node_count": "1",
                                    "upper": "2"}
        assert data["node_count"] == "1"

    @pytest.mark.parametrize("argv, counts", [
        (["verify-prop52"], {"minimal-primitive": "2"}),
        (["verify-tower", "--stages", "1"],
         {"norm-growth-level-1": "2", "norm-growth-level-2": "2"}),
    ], ids=["prop52", "tower"])
    def test_exhausted_searches_count_their_nodes(self, capsys, argv,
                                                  counts):
        rc = main(argv + ["--p", "5", "--q", "2", "--k", "2", "--reduce",
                          "--node-limit", "2"])
        data = json.loads(capsys.readouterr().out)
        assert rc == 2
        records = {r["name"]: r for r in data["records"]}
        for name, count in counts.items():
            assert records[name]["status"] == "INCONCLUSIVE"
            assert records[name]["values"]["node_count"] == count
        assert data["node_count"] == str(sum(map(int, counts.values())))

    def test_tower_322_bytes(self, tower_322_report):
        assert sha256_of(tower_322_report) == TOWER_322_REPORT

    def test_tower_witnesses_recheck(self, capsys, tmp_path):
        report_path = tmp_path / "tower.json"
        rc = main(["verify-tower", "--p", "3", "--q", "2", "--k", "2",
                   "--reduce", "--stages", "2", "--out", str(report_path)])
        assert rc == 0
        data = load_report(report_path)
        assert sorted(data["witnesses"]) == ["level-1-primitive",
                                             "level-2-primitive"]
        capsys.readouterr()
        assert main(["check-witness", "--report", str(report_path)]) == 0
        checked = json.loads(capsys.readouterr().out)
        names = [r["name"] for r in checked["records"]]
        for j in (1, 2):
            assert f"level-{j}-witness-solves-system" in names
            assert f"level-{j}-witness-vanishes-on-boundary" in names
            assert f"level-{j}-witness-norm-matches-claim" in names
        assert {r["status"] for r in checked["records"]} == {"PASS"}
        # a table entry the level-2 witness does not attain fails the check
        for r in data["records"]:
            if r["name"] == "norm-growth-table":
                r["values"]["table"]["2"] = str(
                    int(r["values"]["table"]["2"]) + 1)
        report_path.write_text(json.dumps(data))
        assert main(["check-witness", "--report", str(report_path)]) == 1
        checked = json.loads(capsys.readouterr().out)
        failed = [r["name"] for r in checked["records"]
                  if r["status"] != "PASS"]
        assert failed == ["level-2-witness-norm-matches-claim"]

    @pytest.mark.parametrize("tamper", DUAL_TAMPERS, ids=DUAL_TAMPER_IDS)
    def test_dual_certificate_tampering(self, capsys, tmp_path,
                                        prop51_521_report, tamper):
        rc, failed = recheck(capsys, tmp_path, prop51_521_report, lambda d:
                             tamper(d["witnesses"]["norm-lower-bound-dual"]))
        assert rc == 1
        assert list(failed) == ["lower-bound-dual-certificate"]

    @pytest.mark.parametrize("tamper", DUAL_TAMPERS, ids=DUAL_TAMPER_IDS)
    def test_prop52_dual_certificate_tampering(self, capsys, tmp_path,
                                               prop52_521_report, tamper):
        # the dual is checked against the minimal-primitive m_k
        rc, failed = recheck(capsys, tmp_path, prop52_521_report, lambda d:
                             tamper(d["witnesses"]["norm-lower-bound-dual"]))
        assert rc == 1
        assert list(failed) == ["lower-bound-dual-certificate"]

    @pytest.mark.parametrize("name", sorted(WITNESS_BREAKS))
    def test_unreadable_witness_is_a_fail_record(self, capsys, tmp_path,
                                                 prop51_521_report, name):
        edit, want = WITNESS_BREAKS[name]
        rc, failed = recheck(capsys, tmp_path, prop51_521_report,
                             lambda data: edit(data["witnesses"]))
        assert rc == 1
        # the LP dual is re-checked on the rebuilt M_k all the same
        assert failed == want

    def test_unreadable_product_witness_is_a_fail_record(
            self, capsys, tmp_path, prop52_521_report):
        rc, failed = recheck(capsys, tmp_path, prop52_521_report, lambda d:
                             d["witnesses"].update(beta=["1"]))
        assert rc == 1
        assert failed == {"beta-coboundary-identity": {
            "n": "1", "reason": "the witness is not an object of cell values"}}

    @pytest.mark.parametrize("name", sorted(PRODUCT_FORGERIES))
    def test_forged_product_witness_fails(self, capsys, tmp_path,
                                          prop52_521_report, name):
        # beta lives on the M_k of the report's params times [0, n] for the
        # report's n, and its coboundary is that M_k's obstruction pulled
        # back
        forge, reason, edits_n = PRODUCT_FORGERIES[name]
        rc, failed = recheck(capsys, tmp_path, prop52_521_report, forge)
        assert rc == 1
        assert list(failed) == ["beta-coboundary-identity",
                                *["interval-length"] * edits_n]
        assert failed["beta-coboundary-identity"].get("reason") == reason

    @pytest.mark.parametrize("edit, reason", [
        (lambda data: data.pop("params"), "the report's params have no 'p'"),
        (lambda data: data["params"].update(p="five"),
         "the report's p, q and k must be integers, got 'five'"),
        (lambda data: data["params"].update(p="4"),
         "p = 4 and q = 2 must be prime"),
    ], ids=["deleted", "non-integer", "not-prime"])
    def test_bad_report_params_fail(self, capsys, tmp_path,
                                    prop51_521_report, edit, reason):
        # params that give no M(p, q, k) are a FAIL record, and the
        # primitive, LP dual and arithmetic records checked on that
        # M(p, q, k) fail instead of being skipped
        rc, failed = recheck(capsys, tmp_path, prop51_521_report, edit)
        assert rc == 1
        assert sorted(failed) == sorted(
            ["lower-bound-dual-certificate", "report-params",
             "witness-solves-system", *ARITHMETIC_RECORDS])
        assert failed["report-params"]["reason"].startswith(reason)
        for name in ARITHMETIC_RECORDS:
            assert failed[name] == {"reason": NO_MK}

    def test_config_file_supplies_flags(self, capsys, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"p": 5, "q": 2, "k": 1, "reduce": True}))
        rc = main(["verify-prop51", "--config", str(conf)])
        assert rc == 0
        capsys.readouterr()

    def test_config_file_supplies_defaulted_flags(self, capsys, tmp_path):
        # flags whose default is not None (reduce, n-mode) come from the
        # file too: the report is the one of the same flags given inline
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"p": 5, "q": 2, "k": 1, "reduce": True,
                                    "n-mode": "lcm"}))
        report_path = tmp_path / "p52.json"
        assert main(["verify-prop52", "--config", str(conf),
                     "--out", str(report_path)]) == 0
        capsys.readouterr()
        assert sha256_of(report_path) == PROP52_521_LCM_REPORT

    def test_command_line_beats_config(self, capsys, tmp_path):
        # "p" as a string goes through the flag's type; --k and --levels
        # on the command line win, also at their default value
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"p": "5", "q": 2, "k": 1,
                                    "reduce": True}))
        assert main(["build", "mk", "--config", str(conf), "--k", "2"]) == 0
        from_config = capsys.readouterr().out
        assert main(["build", "mk", "--p", "5", "--q", "2", "--k", "2",
                     "--reduce"]) == 0
        assert from_config == capsys.readouterr().out
        conf.write_text(json.dumps({"n": 4, "levels": 2}))
        assert main(["build", "product", "--config", str(conf),
                     "--levels", "1"]) == 0
        assert "cells 8 12 4" in capsys.readouterr().out

    @pytest.mark.parametrize("conf", [
        {"p": 5, "edge-scale": 4}, {"command": "homology"}, "not json",
    ], ids=["unknown-key", "command-key", "bad-json"])
    def test_bad_config_usage_error(self, capsys, tmp_path, conf):
        path = tmp_path / "conf.json"
        path.write_text(conf if isinstance(conf, str) else json.dumps(conf))
        assert main(["verify-prop51", "--config", str(path)]) == 3
        assert "error:" in capsys.readouterr().err

    def test_missing_params_usage_error(self, capsys):
        rc = main(["verify-prop51"])
        assert rc == 3

    @pytest.mark.parametrize("argv", [
        ["verify-prop51", "--node-limit", "0"],
        ["verify-prop52", "--n-mode", "lcm", "--node-limit", "0"],
        ["verify-tower", "--stages", "2", "--node-limit", "0"],
        ["verify-prop51", "--node-limit", "-3"],
    ], ids=["prop51", "prop52", "tower", "negative"])
    def test_node_limit_below_one_usage_error(self, capsys, argv):
        # a search allowed no lattice point has no upper end to report
        rc = main(argv + ["--p", "3", "--q", "2", "--k", "2", "--reduce"])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert "error: --node-limit" in captured.err

    @pytest.mark.parametrize("command", [["build", "tower"],
                                         ["verify-tower"]],
                             ids=["build", "verify"])
    @pytest.mark.parametrize("stages", ["0", "-1"])
    def test_stages_below_one_usage_error(self, capsys, command, stages):
        # stage 1 is M_k itself; no tower has fewer stages
        rc = main(command + ["--p", "5", "--q", "2", "--k", "2", "--reduce",
                             "--stages", stages])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert "error: need at least one stage" in captured.err

    def test_node_limit_below_one_from_config(self, capsys, tmp_path):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps({"p": 5, "q": 2, "k": 1, "reduce": True,
                                    "node_limit": 0}))
        assert main(["verify-prop51", "--config", str(path)]) == 3
        assert "error: --node-limit 0 is below 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["build", "mk", "--p", "5", "--q", "2", "--k", "1", "--reduce",
         "--edge-scale", "4"],
        ["homology", "--in", "mk.ckx", "--ring", "R"],
        ["check-witness"],
    ], ids=["unknown-flag", "bad-choice", "missing-report"])
    def test_parse_errors_are_usage_errors(self, capsys, argv):
        assert main(argv) == 3
        assert "usage:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["verify-prop51", "--help"]) == 0
        assert "--node-limit" in capsys.readouterr().out


def swap_levels(data):
    w = data["witnesses"]
    w["level-1-primitive"], w["level-2-primitive"] = \
        w["level-2-primitive"], w["level-1-primitive"]


def replace_values(name, values):
    def edit(data):
        next(r for r in data["records"] if r["name"] == name)["values"] = \
            values
    return edit


def flip_winding_sign(data):
    signs = record(data, "winding-relation")["signs"]
    signs["q"] = str(-int(signs["q"]))


def add_row(level):
    """An edit that adds a table row and its witness for ``level``."""
    def edit(data):
        record(data, "norm-growth-table")["table"][level] = "1"
        data["witnesses"][f"level-{level}-primitive"] = \
            data["witnesses"]["level-1-primitive"]
    return edit


BIG = "9" * 5000


def add_stage_2_record(data):
    # a --stages 2 tower has no stage 2
    rec = dict(next(r for r in data["records"]
                    if r["name"] == "stage-1-lipschitz"),
               name="stage-2-lipschitz")
    data["records"].insert(1, rec)


def drop_record(name):
    def edit(data):
        data["records"] = [r for r in data["records"] if r["name"] != name]
    return edit


def set_status(name, status, **values):
    """An edit that gives the record ``name`` and the report ``status``,
    and updates the record's values."""
    def edit(data):
        rec = next(r for r in data["records"] if r["name"] == name)
        rec["status"] = data["status"] = status
        rec["values"].update(values)
    return edit


def pass_levels(data):
    """Turn every norm-growth-level record, and the report, to PASS."""
    for rec in data["records"]:
        if rec["name"].startswith("norm-growth-level-"):
            rec["status"] = "PASS"
    data["status"] = "PASS"


def drop_levels(data):
    data["records"] = [r for r in data["records"]
                       if not r["name"].startswith("norm-growth-level-")]
    data["status"] = "PASS"


def forge_tower_232(data):
    set_status("norm-growth-table", "PASS", meets_lower_bounds="true")(data)
    record(data, "stage-1-lipschitz").update(vertex_level="0")


NOT_THE_ONE = "the report's record is not the one its params give"
NO_SUCH = "the report's params give no such record"
STAGE_1 = dict.fromkeys(["stage-1-lipschitz", "stage-1-carrier-containment",
                         "stage-1-star-refinement"], NO_SUCH)
# edits of the verify-tower (3,2,2) report, whose stage records
# check-witness recomputes from its params, and the records that then
# fail, with their reasons
STAGE_TAMPERS = {
    "vertex-level": (lambda data: record(data, "stage-1-lipschitz").update(
        vertex_level="0"), {"stage-1-lipschitz": NOT_THE_ONE}),
    "offending": (lambda data: record(
        data, "stage-1-carrier-containment").update(offending="(0, 0)"),
        {"stage-1-carrier-containment": NOT_THE_ONE}),
    "vertices": (lambda data: record(data, "stage-1-star-refinement").update(
        vertices="1"), {"stage-1-star-refinement": NOT_THE_ONE}),
    "missing": (lambda data: record(data, "stage-1-star-refinement").update(
        missing="1"), {"stage-1-star-refinement": NOT_THE_ONE}),
    "dropped": (drop_record("stage-1-star-refinement"),
                {"stage-1-star-refinement": "the report has no such record"}),
    "stage-2-added": (add_stage_2_record, {"stage-2-lipschitz": NO_SUCH}),
    "stages-0": (lambda data: data["params"].update(stages="0"), {
        "report-params": "need at least one stage (tower depth >= 0)",
        **STAGE_1}),
    # stages that are no integer give no stage, like "0"
    "stages-x": (lambda data: data["params"].update(stages="x"), {
        "report-params": "need at least one stage (tower depth >= 0)",
        **STAGE_1}),
    "stages-3": (lambda data: data["params"].update(stages="3"), {
        "report-params": "tower depth must stay below the level k",
        **STAGE_1}),
}

class TestCheckWitness:
    """check-witness rebuilds every complex from the report's params and
    reads the witness cochains the records call for from the report."""

    @pytest.mark.parametrize("name", sorted(STAGE_TAMPERS))
    def test_edited_stage_record_fails(self, capsys, tmp_path,
                                       tower_322_report, name):
        edit, want = STAGE_TAMPERS[name]
        rc, failed = recheck(capsys, tmp_path, tower_322_report, edit)
        assert rc == 1
        assert {n: v.get("reason") for n, v in failed.items()} == want

    @pytest.mark.parametrize("report, edit, want", [
        ("prop51_231_report", set_status("norm-lower-bound", "PASS"),
         ["norm-lower-bound"]),
        ("tower_232_report", forge_tower_232,
         ["stage-1-lipschitz", "norm-growth-table"]),
        ("prop51_231_report", lambda data: data.update(status="PASS"),
         ["report-status"]),
        # an interval length past the cell budget claimed to fit: the
        # product certificate it promises then calls for beta
        ("prop52_522_factorial_report", set_status("interval-length", "PASS"),
         ["missing-witness", "interval-length"]),
        ("prop52_522_factorial_report", set_status(
            "interval-length", "PASS", mode="factorial"),
         ["missing-witness", "interval-length"]),
        # levels whose search ran out of nodes claimed to pass, or dropped
        ("tower_322_exhausted_report", pass_levels,
         ["norm-growth-level-1", "norm-growth-level-2"]),
        ("tower_322_exhausted_report", drop_levels, ["norm-growth-table"]),
    ], ids=["prop51-231-bound", "tower-232-table", "prop51-231-status",
            "prop52-522-interval", "prop52-522-interval-mode",
            "tower-322-levels", "tower-322-levels-dropped"])
    def test_forged_verdict_fails(self, capsys, tmp_path, request, report,
                                  edit, want):
        # a verdict is re-derived from the numbers its record claims, and
        # the report's status from its records
        rc, failed = recheck(capsys, tmp_path,
                             request.getfixturevalue(report), edit)
        assert rc == 1
        assert list(failed) == want

    @pytest.mark.parametrize("report", ["prop51_231_report",
                                        "tower_232_report"])
    def test_honest_fail_report_checks_pass(self, capsys, tmp_path, request,
                                            report):
        rc, failed = recheck(capsys, tmp_path,
                             request.getfixturevalue(report))
        assert (rc, failed) == (0, {})

    @pytest.mark.parametrize("report", ["prop52_522_factorial_report",
                                        "tower_322_exhausted_report"])
    def test_honest_inconclusive_report_checks_pass(self, capsys, tmp_path,
                                                    request, report):
        rc, failed = recheck(capsys, tmp_path,
                             request.getfixturevalue(report))
        assert (rc, failed) == (0, {})

    @pytest.mark.parametrize("report", ["tower_322_report",
                                        "tower_322_exhausted_report",
                                        "prop51_521_report",
                                        "prop51_231_report",
                                        "prop52_521_report"])
    def test_every_flipped_status_fails(self, capsys, tmp_path, request,
                                        report):
        # check-witness re-derives the status of every record: a record
        # added without a re-check fails here until it has one
        path = request.getfixturevalue(report)
        for name in [r["name"] for r in load_report(path)["records"]]:
            def flip(data, name=name):
                rec = next(r for r in data["records"] if r["name"] == name)
                rec["status"] = "FAIL" if rec["status"] == "PASS" else "PASS"
                data["status"] = VerificationReport(
                    command="", params={}, records=data["records"]).status
            rc, _ = recheck(capsys, tmp_path, path, flip)
            assert rc == 1, name

    @pytest.mark.parametrize("boundary, relative, absolute", [
        ([(0, 0)], True, True),
        ([(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)], False, True),
        (None, False, False),
    ], ids=["vertex", "triangle-boundary", "no-integer-primitive"])
    def test_solvable_record_solves(self, boundary, relative, absolute):
        # no M(p, q, k) tried has an obstruction without a relative
        # primitive, so the systems that check-witness solves when the
        # primitive witness fails are tried on a filled triangle, and on a
        # face wrapped twice around a loop, with c = 1 on the face
        from types import SimpleNamespace

        from coarse_kit import filled_triangle, new_complex
        from coarse_kit.verify import _add_solvable_record

        if boundary is None:
            X = new_complex([1, 1, 1], [None, [{}], [{0: 2}]],
                            labels={"boundary": []})
        else:
            X = filled_triangle().relabeled({"boundary": boundary})
        bundle = SimpleNamespace(complex=X, boundary_label="boundary",
                                 obstruction=Cochain(X, 2, RING_Z, [1]))
        report = VerificationReport(command="", params={})
        _add_solvable_record(report, bundle, None)
        assert report.records == [{
            "name": "retraction-obstruction-solvable",
            "status": "PASS" if relative and absolute else "FAIL",
            "values": {"absolute": str(absolute).lower(),
                       "relative": str(relative).lower()}}]

    @pytest.mark.parametrize("report, witness", [
        ("tower_322_report", "level-2-primitive"),
        ("prop52_721_report", "beta"),
        ("prop51_521_report", "primitive"),
    ], ids=["tower-level-2", "prop52-beta", "prop51-primitive"])
    def test_missing_witness_fails(self, capsys, tmp_path, request, report,
                                   witness):
        # each record that makes a claim calls for its witness: a row of
        # the norm-growth table, the product identity, the minimal norm
        rc, failed = recheck(capsys, tmp_path, request.getfixturevalue(report),
                             lambda data: data["witnesses"].pop(witness))
        assert rc == 1
        assert failed == {"missing-witness": {"witnesses": [witness]}}

    def test_primitive_of_another_triple_fails(
            self, capsys, tmp_path, prop51_521_report, prop51_721_report):
        # the (7,2,1) primitive does not solve the (5,2,1) system
        other = load_report(prop51_721_report)["witnesses"]["primitive"]
        rc, failed = recheck(capsys, tmp_path, prop51_521_report, lambda d:
                             d["witnesses"].update(primitive=other))
        assert rc == 1
        assert list(failed) == ["witness-solves-system"]

    @pytest.mark.parametrize("report, edit, failed", [
        # level 2's primitive has cells beyond level 1's edges
        ("tower_322_report", swap_levels,
         ["level-1-witness-solves-system", "level-2-witness-solves-system",
          "level-2-witness-norm-matches-claim"]),
        ("prop52_521_report", lambda data: negate_first(
            data["witnesses"]["primitive"]), ["witness-solves-system"]),
    ], ids=["levels-swapped", "prop52-primitive-value"])
    def test_forgery_fails(self, capsys, tmp_path, request, report, edit,
                           failed):
        rc, got = recheck(capsys, tmp_path, request.getfixturevalue(report),
                          edit)
        assert rc == 1
        assert list(got) == failed

    @pytest.mark.parametrize("edit, name", [
        (lambda data: record(data, "bezout-coefficient-bound").update(
            m="999"), "bezout-coefficient-bound"),
        (flip_winding_sign, "winding-relation"),
        (lambda data: record(data, "degree-relation")["samples"][0].update(
            ok="false"), "degree-relation"),
        # the report's status follows the record's, as report-status asks
        (set_status("degree-relation", "FAIL"), "degree-relation"),
    ], ids=["bezout-m", "winding-sign", "degree-sample", "degree-status"])
    def test_edited_arithmetic_record_fails(self, capsys, tmp_path,
                                            prop51_521_report, edit, name):
        # prop51's arithmetic records are recomputed from the params: the
        # report's record must equal the recomputed one, status and values
        want = next(r for r in load_report(prop51_521_report)["records"]
                    if r["name"] == name)
        rc, failed = recheck(capsys, tmp_path, prop51_521_report, edit)
        assert rc == 1
        assert failed == {name: {
            "recomputed": {"status": want["status"], "values": want["values"]},
            "reason": "the report's record is not the one its params give"}}

    @pytest.mark.parametrize("report, edit, name, reason", [
        ("prop51_521_report", lambda data: data.update(witnesses=[]),
         "report-parse", "the report's witnesses are not an object"),
        ("tower_322_report", lambda data: data["witnesses"].update(
            {"mk-level-x": data["witnesses"]["level-1-primitive"]}),
         "unexpected-witness", None),
        ("prop51_521_report", replace_values("norm-lower-bound", "m_k"),
         "report-parse", "record 4 is not an object with a values object"),
        ("prop52_721_report", lambda data: record(
            data, "minimal-primitive").update(m_k="abc"),
         "witness-norm-matches-claim", "the claim is not a number"),
        ("tower_322_report", add_row("x"), "level-x-witness-solves-system",
         "'x' is not a level 1..2"),
        ("prop51_521_report", lambda data: data["records"][0].pop("status"),
         "report-parse", "record 0 has no status PASS, FAIL or INCONCLUSIVE"),
        # more digits than int() converts
        ("tower_322_report", add_row(BIG), f"level-{BIG}-witness-solves-system",
         f"'{BIG}' is not a level 1..2"),
    ], ids=["witnesses-a-list", "witness-mk-level-x", "values-a-string",
            "m_k-not-a-number", "table-row-x", "no-status", "table-row-big"])
    def test_malformed_report_fails(self, capsys, tmp_path, request, report,
                                    edit, name, reason):
        rc, failed = recheck(capsys, tmp_path,
                             request.getfixturevalue(report), edit)
        assert rc == 1
        assert list(failed) == [name]
        assert failed[name].get("reason") == reason

    def test_report_not_json_fails(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("{not json")
        assert main(["check-witness", "--report", str(path)]) == 1
        failed = json.loads(capsys.readouterr().out)["records"]
        assert [r["name"] for r in failed] == ["report-parse"]
        assert failed[0]["values"]["reason"].startswith("Expecting ")
        path.write_text("[]")
        assert main(["check-witness", "--report", str(path)]) == 1
        assert json.loads(capsys.readouterr().out)["records"] == [{
            "name": "report-parse", "status": "FAIL",
            "values": {"reason": "the report is not a JSON object"}}]

    def test_unreadable_report_path_is_a_usage_error(self, capsys, tmp_path):
        # a path that cannot be opened is no report to re-check
        assert main(["check-witness", "--report", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith("error: [Errno ")
        assert main(["check-witness", "--report",
                     str(tmp_path / "none.json")]) == 3

    def test_stdout_report_rechecks(self, capsys, tmp_path):
        # without --out the report on stdout carries its witnesses too
        assert main(["verify-prop51", "--p", "5", "--q", "2", "--k", "1",
                     "--reduce"]) == 0
        path = tmp_path / "saved.json"
        path.write_text(capsys.readouterr().out)
        assert main(["check-witness", "--report", str(path)]) == 0
        names = {r["name"] for r in
                 json.loads(capsys.readouterr().out)["records"]}
        assert {"witness-solves-system", "witness-norm-matches-claim",
                "lower-bound-dual-certificate", *ARITHMETIC_RECORDS} <= names

    @pytest.mark.parametrize("p, n, m_k, digest", [
        ("3", "6", "3", PROP52_322_LCM_REPORT),
        ("5", "60", "6", None),
    ], ids=["322", "522"])
    def test_prop52_k2(self, capsys, tmp_path, p, n, m_k, digest):
        # the k = 2 rows of the product certificate
        path = tmp_path / "report.json"
        assert main(["verify-prop52", "--p", p, "--q", "2", "--k", "2",
                     "--reduce", "--n-mode", "lcm", "--out",
                     str(path)]) == 0
        data = load_report(path)
        assert record(data, "interval-length")["n"] == n
        assert record(data, "minimal-primitive")["m_k"] == m_k
        if digest is not None:
            assert sha256_of(path) == digest
        capsys.readouterr()
        assert main(["check-witness", "--report", str(path)]) == 0
        checked = json.loads(capsys.readouterr().out)
        assert {r["name"]: r["values"] for r in checked["records"]}[
            "beta-coboundary-identity"] == {"n": n}

    def test_prop52_lcm_past_budget_names_no_other_mode(self, capsys,
                                                        tmp_path):
        # at (7,2,2) the lcm n = 4620 is past the cell budget, and lcm is
        # already the mode, so the record suggests no rerun
        path = tmp_path / "report.json"
        assert main(["verify-prop52", "--p", "7", "--q", "2", "--k", "2",
                     "--reduce", "--n-mode", "lcm", "--out",
                     str(path)]) == 2
        values = record(load_report(path), "interval-length")
        assert values["n"] == "4620" and "suggestion" not in values
        assert main(["check-witness", "--report", str(path)]) == 0


class TestLpProbe:
    """The LP probe at m_k - 1 pivots only for a Farkas vector: where it
    has a point, the cut loop finds it and the simplex never runs."""

    @pytest.mark.parametrize("p, k, digest, certificate, evaluations", [
        ("5", "2", PROP51_522_REPORT, "search-exhausted", "4"),
        ("7", "1", PROP51_721_REPORT, "search-exhausted", "4"),
        ("5", "1", PROP51_521_REPORT, "lp-dual", "4"),
    ], ids=["522", "721", "521"])
    def test_simplex_runs_only_for_farkas(self, capsys, tmp_path, monkeypatch,
                                          p, k, digest, certificate,
                                          evaluations):
        from coarse_kit import exact_linalg

        runs = []
        box_lp = exact_linalg._box_lp

        monkeypatch.setattr(exact_linalg, "_box_lp", lambda *args, **kwargs:
                            runs.append(1) or box_lp(*args, **kwargs))
        path = tmp_path / "report.json"
        assert main(["verify-prop51", "--p", p, "--q", "2", "--k", k,
                     "--reduce", "--out", str(path)]) == 0
        capsys.readouterr()
        claim = record(load_report(path), "norm-lower-bound")
        assert (claim["certificate"], claim["evaluations"]) == \
            (certificate, evaluations)
        # the pinned bytes carry the (5,2,1) Farkas vector as the witness
        # norm-lower-bound-dual
        assert sha256_of(path) == digest
        assert len(runs) == (certificate == "lp-dual")


# the CLI commands of the search-k2 and certify-small workloads of
# perfbench/run.py (its WORKLOADS), each with the exit code run.py pins
BENCH_WORKLOADS = {
    "search-k2": [
        (["verify-prop51", "--p", "5", "--q", "2", "--k", "2", "--reduce",
          "--out", "p51_522.json"], 0),
        (["check-witness", "--report", "p51_522.json"], 0),
    ],
    "certify-small": [
        (["verify-prop51", "--p", "5", "--q", "2", "--k", "1", "--reduce",
          "--out", "p51_521.json"], 0),
        (["check-witness", "--report", "p51_521.json"], 0),
        (["verify-prop51", "--p", "7", "--q", "2", "--k", "1", "--reduce",
          "--out", "p51_721.json"], 0),
        (["check-witness", "--report", "p51_721.json"], 0),
        (["verify-prop51", "--p", "2", "--q", "3", "--k", "1", "--reduce",
          "--out", "p51_231.json"], 1),
        (["check-witness", "--report", "p51_231.json"], 0),
        (["verify-prop52", "--p", "5", "--q", "2", "--k", "1", "--reduce",
          "--n-mode", "lcm", "--out", "p52_521.json"], 0),
        (["check-witness", "--report", "p52_521.json"], 0),
        (["verify-prop52", "--p", "7", "--q", "2", "--k", "1", "--reduce",
          "--n-mode", "lcm", "--out", "p52_721.json"], 0),
        (["check-witness", "--report", "p52_721.json"], 0),
        (["verify-tower", "--p", "3", "--q", "2", "--k", "2", "--reduce",
          "--stages", "2", "--out", "tower_report.json"], 0),
    ],
}


def test_traced_functions_run_on_their_workloads(tmp_path, monkeypatch,
                                                 capsys):
    """Every function perfbench/design.json marks as exercised by search-k2
    or certify-small is called by that workload's commands.  Each is
    counted at every binding in every coarse_kit module, as
    perfbench/tracing.py wraps it, so a change that stops a workload
    calling one fails here, not only under ``run.py --trace 1``."""
    import functools
    import importlib
    import pkgutil
    from collections import Counter

    import coarse_kit
    from coarse_kit import cli

    root = Path(__file__).resolve().parents[1]
    design = json.loads((root / "perfbench" / "design.json").read_text())
    modules = [coarse_kit] + [
        importlib.import_module(f"coarse_kit.{info.name}")
        for info in pkgutil.iter_modules(coarse_kit.__path__)]
    calls = Counter()

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    exercised = {workload: [] for workload in BENCH_WORKLOADS}
    for layer in design["layers"]:
        name = layer["function"]
        workloads = [w for w in layer["exercised_by"] if w in exercised]
        if not workloads:
            continue
        for workload in workloads:
            exercised[workload].append(name)
        home, attr = name.split(".")
        original = getattr(importlib.import_module(f"coarse_kit.{home}"),
                           attr)
        wrapper = counted(name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, wrapper)
    monkeypatch.chdir(tmp_path)
    for workload, commands in BENCH_WORKLOADS.items():
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for argv, rc in commands:
                assert cli.main(argv) == rc, argv
        capsys.readouterr()
        assert [name for name in exercised[workload] if not calls[name]] \
            == [], workload


def test_cli_import_loads_no_openssl():
    # hashlib loads libcrypto: a few MB in every CLI process for nothing
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run(
        [sys.executable, "-c", "import sys, coarse_kit.cli; "
         "print('_hashlib' in sys.modules)"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert run.returncode == 0
    assert run.stdout == "False\n"


def test_readme_flags_match_verify_parsers():
    # the README "Flags:" paragraph names exactly the options of the
    # verify-* subcommands
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme[readme.index("Flags:"):].split("\n\n")[0]
    documented = set(re.findall(r"--[a-z][a-z-]*", paragraph))
    _, commands = build_parser()
    options = {opt for name, parser in commands.items()
               if name.startswith("verify-")
               for action in parser._actions
               for opt in action.option_strings if opt.startswith("--")}
    assert documented == options - {"--help"}


class TestHomology:
    def test_reports_ranks(self, capsys, tmp_path):
        path = tmp_path / "mk.ckx"
        main(["build", "mk", "--p", "5", "--q", "2", "--k", "1", "--reduce",
              "--out", str(path)])
        capsys.readouterr()
        rc = main(["homology", "--in", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "H^1: free 2" in out
        assert "H^2: free 0" in out

    @pytest.mark.parametrize("prime", ["0", "1", "4", "-3"])
    def test_non_prime_modulus_usage_error(self, capsys, tmp_path, prime):
        # checked before the file is read: a malformed file would exit 1
        path = tmp_path / "bad.ckx"
        path.write_text("not a complex\n")
        assert main(["homology", "--in", str(path), "--ring", "Zp",
                     "--prime", prime]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: Z_p needs a prime p, got {prime}\n"

    def test_malformed_file_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "mk.ckx"
        main(["build", "mk", "--p", "5", "--q", "2", "--k", "1", "--reduce",
              "--out", str(path)])
        path.write_text(path.read_text().rsplit("end", 1)[0])
        capsys.readouterr()
        assert main(["homology", "--in", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.match(r"error: line \d+: block 'simplices 2' has no 'end'",
                        captured.err)
