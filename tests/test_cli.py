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
from coarse_kit.complexes import filled_triangle, interval_product
from coarse_kit.interchange import read_complex, write_complex
from coarse_kit.report import load_report

# sha256 of reports and witnesses for the fixed runs below; refactors of the
# exact core must leave these bytes unchanged.  They were re-pinned once, when
# .ckx went to format v2: each witness is its v1 file with the boundary blocks
# of simplicial complexes cut and v1 -> v2 in the header, and each report
# differs from its v1 run only in the witness sha256 values
PROP51_521_REPORT = \
    "aaf23b821057f30310f3ea9d982bde9f795c0c572149cd5af24e1e50d58d7623"
PROP51_521_MK_CKX = \
    "2f267c327ee26e0a786ab587140b8f968aee94b93292bfa1498be160a8a23182"
# the prop52 report carries its lp-dual certificate as the witness
# norm-lower-bound-dual, which check-witness re-checks
PROP52_521_LCM_REPORT = \
    "85b91852e10597fa0e6bfaaff917f8c09d87b1bb1899bbe07fe95db43c13cb31"
# (7,2,1) picks n = 2, so its product target is off the first layer; the
# report carries the sha256 of report.product.ckx
PROP52_721_LCM_REPORT = \
    "69f72f1b119cd12f0122eb9f5ba0be36f214d8ef653d62f7a78ba2854ee1cb65"
PROP51_721_REPORT = \
    "cb2bf192cec5dd8ec5f119a97bb62813c3b4e7749e50e69a6097e27df3e08f6f"
PROP51_721_MK_CKX = \
    "ce4b03d4d6cc5111cdbe35558f31005fad60c14724d7e181acc67a02fca93b1f"
# (5,2,2) is the triple whose lattice search visits 271 points
PROP51_522_REPORT = \
    "d729ead1bf51718d7fa63dce656a956b0ab66aaa9fd40203733eed6dfd7275c2"
PROP51_522_MK_CKX = \
    "64cc3963d6d5efc3363e72c6e4c72a426d11937e0c10cab6705d09bf015cfe42"
# the last stage of build tower (5,2,2) and build y-stage (5,2,1), two
# stages each: the simplicial builders and the .ckx writer
TOWER_522_CKX = \
    "27df807890dd4f5ec514ca5da65fee353cc522b7ffc0b8295a41250e4e08c679"
Y_STAGE_521_CKX = \
    "d571728ec6d4f0a543360f4a313e99f54304305c158b8d82bfb24ae8c4f60911"


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def prop51_521_report(tmp_path_factory):
    """A verify-prop51 (5,2,1) report and its witnesses, whose norm lower
    bound carries an LP dual certificate."""
    path = tmp_path_factory.mktemp("prop51_521") / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["verify-prop51", "--p", "5", "--q", "2", "--k", "1",
                     "--reduce", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def prop52_521_report(tmp_path_factory):
    """A verify-prop52 --n-mode lcm (5,2,1) report and its witnesses, whose
    minimal norm carries an LP dual certificate."""
    path = tmp_path_factory.mktemp("prop52_521") / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["verify-prop52", "--p", "5", "--q", "2", "--k", "1",
                     "--reduce", "--n-mode", "lcm", "--out", str(path)]) == 0
    return path


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


def failed_after_dual_tamper(capsys, tmp_path, report, tamper):
    """Copy a report and its witnesses, tamper with the dual, re-check:
    returns the names of the failed records (exit code 1 asserted)."""
    for src in report.parent.iterdir():
        (tmp_path / src.name).write_bytes(src.read_bytes())
    report_path = tmp_path / report.name
    data = load_report(report_path)
    tamper(data["witnesses"]["norm-lower-bound-dual"])
    report_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["check-witness", "--report", str(report_path)]) == 1
    checked = json.loads(capsys.readouterr().out)
    return [r["name"] for r in checked["records"] if r["status"] != "PASS"]


def forge_product(data, witness, X):
    """Replace a report's product witness by X with beta and target zero,
    and update the report's digest to match."""
    text = write_complex(witness, X, cochains={
        "beta": Cochain(X, 2, RING_Z, [0] * X.n_cells(2)),
        "target": Cochain(X, 3, RING_Z, [0] * X.n_cells(3)),
    })
    data["witnesses"]["product-complex"]["sha256"] = \
        hashlib.sha256(text.encode()).hexdigest()


def interval_length(data):
    return next(r["values"] for r in data["records"]
                if r["name"] == "interval-length")


# edits of a verify-prop52 (5,2,1) report or its product witness that keep
# delta(beta) = target and |beta| <= 4, and the reason check-witness gives
# for refusing them
PRODUCT_FORGERIES = {
    "one-triangle": (lambda data, witness: forge_product(
        data, witness, interval_product(filled_triangle(), 1).complex),
        "the product witness is not M_k x [0, 1]"),
    "zeroed": (lambda data, witness: forge_product(
        data, witness, read_complex(witness)[0]),
        "target is not the pulled-back obstruction"),
    "n-edited": (lambda data, witness: interval_length(data).update(n="2"),
                 "the product witness is not M_k x [0, 2]"),
    "no-n": (lambda data, witness: interval_length(data).pop("n"),
             "the report gives no interval length n: None"),
    "no-mk-witness": (lambda data, witness: data["witnesses"].pop(
        "mk-complex"), "no readable M_k witness"),
}


# edits of an M_k witness file (None: deleted) that check-witness must
# report as unreadable, and how the reason it gives starts
WITNESS_BREAKS = {
    # cut mid-line: the last simplex row is short
    "truncated": (lambda t: t[:t.index("\n", len(t) // 2) - 2], "line "),
    "cell-out-of-range": (lambda t: t.replace(
        "\nlabel boundary 0:0 ", "\nlabel boundary 0:999 ", 1), "line "),
    "no-end": (lambda t: t[:t.index("\nend\n")], "line "),
    "missing": (None, "cannot read report.mk.ckx"),
    "no-primitive": (lambda t: t.replace("cochain primitive", "cochain g"),
                     "no cochain 'primitive'"),
    "no-boundary-label": (lambda t: t.replace("label boundary", "label b"),
                          "no boundary label"),
    # Z_n cochains only for n prime
    "ring-z0": (lambda t: t.replace("ring=Z", "ring=Z0", 1), "line "),
    "ring-z4": (lambda t: t.replace("ring=Z", "ring=Z4", 1), "line "),
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

    @pytest.mark.parametrize("kind, k, digest", [
        ("tower", "2", TOWER_522_CKX),
        ("y-stage", "1", Y_STAGE_521_CKX),
    ], ids=["tower-522", "y-stage-521"])
    def test_two_stage_ckx_bytes(self, capsys, tmp_path, kind, k, digest):
        path = tmp_path / f"{kind}.ckx"
        assert main(["build", kind, "--p", "5", "--q", "2", "--k", k,
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
        assert claim["product-target-is-pulled-back-obstruction"] == {
            "name": "product-target-is-pulled-back-obstruction",
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
        assert (d1 / "report.mk.ckx").read_bytes() == \
            (d2 / "report.mk.ckx").read_bytes()
        assert sha256_of(d1 / "report.json") == PROP51_521_REPORT
        assert sha256_of(d1 / "report.mk.ckx") == PROP51_521_MK_CKX

    def test_prop51_721_bytes(self, capsys, tmp_path):
        # (7,2,1) is a k = 1 triple where the lattice search takes more than
        # one evaluation, so these bytes pin the witness that search picks
        report_path = tmp_path / "report.json"
        rc = main(["verify-prop51", "--p", "7", "--q", "2", "--k", "1",
                   "--reduce", "--out", str(report_path)])
        capsys.readouterr()
        assert rc == 0
        assert sha256_of(report_path) == PROP51_721_REPORT
        assert sha256_of(tmp_path / "report.mk.ckx") == PROP51_721_MK_CKX

    def test_prop51_522_bytes(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        rc = main(["verify-prop51", "--p", "5", "--q", "2", "--k", "2",
                   "--reduce", "--out", str(report_path)])
        capsys.readouterr()
        assert rc == 0
        assert sha256_of(report_path) == PROP51_522_REPORT
        assert sha256_of(tmp_path / "report.mk.ckx") == PROP51_522_MK_CKX

    def test_node_limit_interval_522(self, capsys):
        # cut in the middle of the search: the upper end is the incumbent
        rc = main(["verify-prop51", "--p", "5", "--q", "2", "--k", "2",
                   "--reduce", "--node-limit", "40"])
        data = json.loads(capsys.readouterr().out)
        assert rc == 2
        record = {r["name"]: r for r in data["records"]}["norm-lower-bound"]
        assert record["status"] == "INCONCLUSIVE"
        assert record["values"] == {"lower": "1", "node_count": "40",
                                    "upper": "6"}
        assert data["node_count"] == "40"

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

    def test_tower_witnesses_recheck(self, capsys, tmp_path):
        report_path = tmp_path / "tower.json"
        rc = main(["verify-tower", "--p", "3", "--q", "2", "--k", "2",
                   "--reduce", "--stages", "2", "--out", str(report_path)])
        assert rc == 0
        data = load_report(report_path)
        assert sorted(data["witnesses"]) == ["mk-level-1", "mk-level-2"]
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
        failed = failed_after_dual_tamper(capsys, tmp_path,
                                          prop51_521_report, tamper)
        assert failed == ["lower-bound-dual-certificate"]

    @pytest.mark.parametrize("tamper", DUAL_TAMPERS, ids=DUAL_TAMPER_IDS)
    def test_prop52_dual_certificate_tampering(self, capsys, tmp_path,
                                               prop52_521_report, tamper):
        # the dual is checked against the minimal-primitive m_k
        failed = failed_after_dual_tamper(capsys, tmp_path,
                                          prop52_521_report, tamper)
        assert failed == ["lower-bound-dual-certificate"]

    @pytest.mark.parametrize("name", sorted(WITNESS_BREAKS))
    def test_unreadable_witness_is_a_fail_record(self, capsys, tmp_path,
                                                 prop51_521_report, name):
        for src in prop51_521_report.parent.iterdir():
            (tmp_path / src.name).write_bytes(src.read_bytes())
        witness = tmp_path / "report.mk.ckx"
        edit, reason = WITNESS_BREAKS[name]
        if edit is None:
            witness.unlink()
        else:
            witness.write_text(edit(witness.read_text()))
        capsys.readouterr()
        rc = main(["check-witness", "--report",
                   str(tmp_path / prop51_521_report.name)])
        assert rc == 1
        records = json.loads(capsys.readouterr().out)["records"]
        failed = {r["name"]: r["values"] for r in records
                  if r["status"] != "PASS"}
        assert sorted(failed) == ["mk-witness-digest", "mk-witness-parse"]
        assert failed["mk-witness-parse"]["reason"].startswith(reason)
        # the dual re-check does not read the witness file
        assert "lower-bound-dual-certificate" in {r["name"] for r in records}

    def test_unreadable_product_witness_is_a_fail_record(
            self, capsys, tmp_path, prop52_521_report):
        for src in prop52_521_report.parent.iterdir():
            (tmp_path / src.name).write_bytes(src.read_bytes())
        witness = tmp_path / "report.product.ckx"
        witness.write_text(witness.read_text().replace("cochain target",
                                                       "cochain t"))
        capsys.readouterr()
        rc = main(["check-witness", "--report",
                   str(tmp_path / prop52_521_report.name)])
        assert rc == 1
        records = json.loads(capsys.readouterr().out)["records"]
        failed = {r["name"]: r["values"] for r in records
                  if r["status"] != "PASS"}
        assert failed == {"product-witness-digest": {},
                          "product-witness-parse":
                              {"reason": "no cochain 'target'"}}

    @pytest.mark.parametrize("name", sorted(PRODUCT_FORGERIES))
    def test_forged_product_witness_fails(self, capsys, tmp_path,
                                          prop52_521_report, name):
        # the product witness must be the M_k witness times [0, n] for the
        # report's n, carrying the obstruction pulled back as its target
        for src in prop52_521_report.parent.iterdir():
            (tmp_path / src.name).write_bytes(src.read_bytes())
        report_path = tmp_path / prop52_521_report.name
        data = load_report(report_path)
        forge, reason = PRODUCT_FORGERIES[name]
        forge(data, tmp_path / "report.product.ckx")
        report_path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["check-witness", "--report", str(report_path)]) == 1
        records = json.loads(capsys.readouterr().out)["records"]
        failed = {r["name"]: r["values"] for r in records
                  if r["status"] != "PASS"}
        assert list(failed) == ["product-target-is-pulled-back-obstruction"]
        assert failed["product-target-is-pulled-back-obstruction"][
            "reason"] == reason

    @pytest.mark.parametrize("edit, reason", [
        (lambda data: data.pop("params"), "the report's params have no 'p'"),
        (lambda data: data["params"].update(p="five"),
         "the report's p, q and k must be integers, got 'five'"),
        (lambda data: data["params"].update(p="4"),
         "p = 4 and q = 2 must be prime"),
    ], ids=["deleted", "non-integer", "not-prime"])
    def test_bad_report_params_fail(self, capsys, tmp_path,
                                    prop51_521_report, edit, reason):
        # params that give no M(p, q, k) are a FAIL record, and the LP dual
        # they would rebuild the system for fails instead of being skipped
        for src in prop51_521_report.parent.iterdir():
            (tmp_path / src.name).write_bytes(src.read_bytes())
        report_path = tmp_path / prop51_521_report.name
        data = load_report(report_path)
        edit(data)
        report_path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["check-witness", "--report", str(report_path)]) == 1
        records = json.loads(capsys.readouterr().out)["records"]
        failed = {r["name"]: r["values"] for r in records
                  if r["status"] != "PASS"}
        assert sorted(failed) == ["lower-bound-dual-certificate",
                                  "report-params"]
        assert failed["report-params"]["reason"].startswith(reason)

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

    def test_other_edge_scale_fails_check(self, capsys, tmp_path,
                                          prop51_521_report):
        # every M(p, q, k) hole has 3 edges; a report claiming another
        # edge scale cannot be rebuilt and fails its re-check
        for src in prop51_521_report.parent.iterdir():
            (tmp_path / src.name).write_bytes(src.read_bytes())
        report_path = tmp_path / prop51_521_report.name
        data = load_report(report_path)
        assert data["params"]["edge_scale"] == "3"
        data["params"]["edge_scale"] = "4"
        report_path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["check-witness", "--report", str(report_path)]) == 1
        checked = json.loads(capsys.readouterr().out)
        failed = [r["name"] for r in checked["records"]
                  if r["status"] != "PASS"]
        # nor can the LP dual it carries be re-checked
        assert failed == ["params-edge-scale", "lower-bound-dual-certificate"]


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
