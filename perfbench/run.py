"""coarse-kit benchmark: drive the CLI as a user does and check every verdict.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``.  One CLI process runs at a time, each a fresh interpreter started
through ``perfbench/launch.py``.  Workloads are fixed command sequences
(``WORKLOADS``; why each was chosen is in ``design.json``); the seed only
permutes the order of their independent command groups.  ``--workload all``
runs the three timed workloads in turn; ``tower-homology`` runs the known
refusal recorded in ``design.json``, which BENCHMARK.json does not list.

Every command's outcome (exit code, verdict, checked values) is compared
with pinned values; a command whose outcome differs counts as failed.

With ``--trace 0`` whole passes repeat until the next one would end past
``--seconds``.  End-to-end metrics, medians over passes, with times in
seconds at the reference host speed (see speed.py):
  setup_s      sum over the workload's commands of interpreter start plus
               ``import coarse_kit.cli``, up to entry into ``cli.main``
               (command count x median per-command set-up, sampled on the
               commands and on set-up-only probes)
  wall_s       the command sequence, sum of launch-to-exit times
  <p>_s        the same, over the commands of one pipeline
  peak_rss_mb  largest child peak RSS (``os.wait4``)
  wall_raw_s   wall_s before rescaling (in the table only)
With ``--trace 1`` one untraced pass and one traced pass run; the traced
pass wraps the functions listed in ``design.json`` (see ``tracing.py``) and
gives per-layer self times and counts.  The human-readable table above the
JSON line lists every metric with its unit and sample count.
"""

import argparse
import contextlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCHER = os.path.join(HERE, "launch.py")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 16         # set-up-only launches per run, after one warm-up
RUN_LIMIT_S = 165         # no command may run past this point of a run
PIPELINES = ("prop51", "prop52", "tower", "homology", "build")
TIMED = ("search-k2", "certify-small", "complexes")


# -- pinned outcomes -----------------------------------------------------------
#
# Sources independent of the code under test: the minimal norms m_k of
# (5,2,1), (7,2,1), (5,2,2) are 1, 2, 6 (6 is stated in the README; each meets
# the paper's bound q^k - 1 checked by acceptance criterion 04); M_k
# cohomology is (Z, Z^2, 0) with no torsion (the dense Smith oracle of
# criterion 02); cell counts are pinned and the Euler characteristic is
# recomputed here from them.


def _report(result):
    try:
        return json.loads(result.stdout)
    except ValueError:
        return None


def _records(report):
    return {r["name"]: r for r in report.get("records", [])}


def expect_report(exit_code, status, records=None):
    """The report on stdout has this status; named records hold these values;
    every other record passes."""
    records = records or {}

    def check(result, work):
        problems = []
        if result.rc != exit_code:
            problems.append(f"exit {result.rc}, expected {exit_code}")
        report = _report(result)
        if report is None:
            return problems + ["no report on stdout"]
        if report.get("status") != status:
            problems.append(f"status {report.get('status')}, expected {status}")
        have = _records(report)
        for name, want in records.items():
            rec = have.get(name)
            if rec is None:
                problems.append(f"record {name} missing")
                continue
            for key, value in want.items():
                got = rec["status"] if key == "status" else rec["values"].get(key)
                ok = value(got) if callable(value) else got == str(value)
                if not ok:
                    problems.append(f"{name}.{key} = {got}")
        for name, rec in have.items():
            if name not in records and rec["status"] != "PASS":
                problems.append(f"{name} is {rec['status']}, expected PASS")
        return problems

    return check


def expect_build(counts):
    """stdout names the pinned cell counts and their Euler characteristic;
    the written file's header carries the same counts."""
    euler = sum((-1) ** d * n for d, n in enumerate(counts))
    cells = " ".join(str(n) for n in counts)

    def check(result, work):
        problems = []
        if result.rc != 0:
            problems.append(f"exit {result.rc}, expected 0")
        lines = result.stdout.splitlines()
        if f"cells {cells}" not in lines:
            problems.append(f"cells differ from {cells}")
        if f"euler {euler}" not in lines:
            problems.append(f"euler differs from {euler}")
        path = os.path.join(work, result.argv[result.argv.index("--out") + 1])
        try:
            with open(path) as fp:
                header = [next(fp, "").strip() for _ in range(3)]
        except OSError:
            return problems + [f"{path} not written"]
        if header[2] != f"counts {cells}":
            problems.append(f"file header {header[2]!r}")
        return problems

    return check


def _free_ranks(result):
    ranks = []
    for line in result.stdout.splitlines():
        head, _, rest = line.partition(": free ")
        if not head.startswith("H^") or not rest:
            return None
        words = rest.split()
        if len(words) > 1:          # torsion present
            return None
        ranks.append(int(words[0]))
    return ranks or None


def expect_homology(free=None, euler=None):
    """Free ranks without torsion: exactly ``free``, or with alternating sum
    ``euler`` (the Euler characteristic of the pinned cell counts)."""

    def check(result, work):
        if result.rc != 0:
            return [f"exit {result.rc}, expected 0"]
        ranks = _free_ranks(result)
        if ranks is None:
            return ["no torsion-free cohomology table on stdout"]
        if free is not None and ranks != free:
            return [f"free ranks {ranks}, expected {free}"]
        alt = sum((-1) ** d * r for d, r in enumerate(ranks))
        if euler is not None and alt != euler:
            return [f"alternating rank sum {alt}, expected {euler}"]
        return []

    return check


@dataclass
class Command:
    pipeline: str
    argv: list
    check: object


def _mk(p, q, k):
    return ["--p", str(p), "--q", str(q), "--k", str(k), "--reduce"]


def prop51(p, q, k, m_k):
    bound = q ** k - 1
    ok = m_k >= bound
    name = f"p51_{p}{q}{k}"
    return [
        Command("prop51", ["verify-prop51", *_mk(p, q, k), "--out", f"{name}.json"],
                expect_report(0 if ok else 1, "PASS" if ok else "FAIL", {
                    "norm-lower-bound": {"status": "PASS" if ok else "FAIL",
                                         "m_k": m_k, "bound": bound}})),
        Command("prop51", ["check-witness", "--report", f"{name}.json"],
                expect_report(0, "PASS")),
    ]


def prop52(p, q, k, m_k):
    name = f"p52_{p}{q}{k}"
    return [
        Command("prop52", ["verify-prop52", *_mk(p, q, k), "--n-mode", "lcm",
                           "--out", f"{name}.json"],
                expect_report(0, "PASS", {
                    "minimal-primitive": {"m_k": m_k},
                    "beta-norm-bound": {"norm": lambda v: int(v) <= 4}})),
        Command("prop52", ["check-witness", "--report", f"{name}.json"],
                expect_report(0, "PASS")),
    ]


def tower(p, q, k, stages):
    def growth(table):
        values = [int(table[str(j)]) for j in range(1, k + 1)]
        return (all(m >= q ** j - 1 for j, m in enumerate(values, 1))
                and values == sorted(set(values)))

    return [Command("tower", ["verify-tower", *_mk(p, q, k), "--stages",
                              str(stages), "--out", "tower_report.json"],
                    expect_report(0, "PASS", {
                        "norm-growth-table": {"table": growth}}))]


def build(kind, p, q, k, stages, out, counts):
    argv = ["build", kind, *_mk(p, q, k), "--out", out]
    if stages:
        argv[2:2] = ["--stages", str(stages)]
    return Command("build", argv, expect_build(counts))


def homology(path, check, *ring):
    return Command("homology", ["homology", "--in", path, *ring], check)


MK3_COUNTS = (107, 357, 249)
TOWER_COUNTS = (8801, 29142, 19980)
WORKLOADS = {
    "search-k2": [prop51(5, 2, 2, m_k=6)],
    "certify-small": [
        prop51(5, 2, 1, m_k=1), prop51(7, 2, 1, m_k=2),
        prop51(2, 3, 1, m_k=1),
        prop52(5, 2, 1, m_k=1), prop52(7, 2, 1, m_k=2),
        tower(3, 2, 2, stages=2),
    ],
    "complexes": [
        [build("mk", 5, 2, 3, 0, "mk3.ckx", MK3_COUNTS),
         homology("mk3.ckx", expect_homology(free=[1, 2, 0])),
         homology("mk3.ckx", expect_homology(free=[1, 2, 0]),
                  "--ring", "Zp", "--prime", "3")],
        [build("tower", 5, 2, 2, 2, "tower.ckx", TOWER_COUNTS)],
        [build("y-stage", 5, 2, 1, 2, "y.ckx", (26657, 97362, 69660))],
    ],
    # The known refusal: not timed, since today the homology exits 3.
    "tower-homology": [
        [build("tower", 5, 2, 2, 2, "tower.ckx", TOWER_COUNTS),
         homology("tower.ckx", expect_homology(euler=-361))],
    ],
}


# -- running commands ----------------------------------------------------------


@dataclass
class Result:
    argv: list
    pipeline: str
    rc: int
    stdout: str
    raw_wall: float
    raw_setup: float          # None when cli.main was never entered
    scale: float              # to seconds at the reference host speed
    rss_mb: float
    stamp: dict
    problems: list = field(default_factory=list)

    @property
    def wall(self):
        return self.raw_wall * self.scale

    @property
    def setup(self):
        return None if self.raw_setup is None else self.raw_setup * self.scale


@dataclass
class Pass:
    results: list
    claims: int = 0         # norm-lower-bound PASS claims
    rechecked: int = 0      # ... re-validated by check-witness with a certificate

    @property
    def wall(self):
        return sum(r.wall for r in self.results)

    @property
    def raw_wall(self):
        return sum(r.raw_wall for r in self.results)

    @property
    def failed(self):
        return sum(1 for r in self.results if r.problems)

    def pipeline_s(self, name):
        return sum(r.wall for r in self.results if r.pipeline == name)


class Runner:
    """Runs CLI commands one at a time in ``work``, all before ``deadline``."""

    def __init__(self, work, deadline):
        self.work = work
        self.deadline = deadline

    def launch(self, argv, trace=None, probe=False, pipeline=""):
        """Run one CLI command to completion; time it from launch to exit."""
        if time.monotonic() >= self.deadline:
            raise SystemExit("error: the run's time limit has passed")
        stamp_path = os.path.join(self.work, "stamp.json")
        with contextlib.suppress(FileNotFoundError):
            os.remove(stamp_path)
        env = dict(os.environ, PYTHONPATH=SRC, PERFBENCH_STAMP=stamp_path)
        env.pop("PERFBENCH_TRACE", None)
        env.pop("PERFBENCH_PROBE", None)
        if trace:
            env["PERFBENCH_TRACE"] = ",".join(trace)
        if probe:
            env["PERFBENCH_PROBE"] = "1"
        out_path = os.path.join(self.work, "stdout.txt")
        with open(out_path, "wb") as out, \
                open(os.path.join(self.work, "stderr.txt"), "wb") as err:
            started = time.monotonic()
            proc = subprocess.Popen([sys.executable, LAUNCHER, *argv],
                                    cwd=self.work, env=env, stdout=out,
                                    stderr=err)
            timer = threading.Timer(self.deadline - started, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            ended = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as fp:
            stdout = fp.read()
        try:
            with open(stamp_path) as fp:
                stamp = json.load(fp)
        except (OSError, ValueError):
            stamp = {}
        setup = stamp["main_entry"] - started if "main_entry" in stamp else None
        result = Result(argv, pipeline, proc.returncode, stdout,
                        ended - started, setup,
                        speed.scale(stamp["speed"]) if "speed" in stamp else 1.0,
                        usage.ru_maxrss / 1024, stamp)
        if ended >= self.deadline:
            result.problems.append("killed at the run's time limit")
        if setup is None:
            result.problems.append("never reached cli.main")
        return result

    def run_pass(self, groups, trace=None):
        os.makedirs(self.work)
        done = Pass([])
        claim = False
        try:
            for group in groups:
                for cmd in group:
                    r = self.launch(cmd.argv, trace, pipeline=cmd.pipeline)
                    r.problems += cmd.check(r, self.work)
                    done.results.append(r)
                    if r.argv[0].startswith("verify"):
                        rec = _records(_report(r) or {}).get("norm-lower-bound")
                        claim = rec is not None and rec["status"] == "PASS"
                    elif r.argv[0] == "check-witness" and claim:
                        done.claims += 1
                        rec = _records(_report(r) or {}).get(
                            "lower-bound-dual-certificate")
                        done.rechecked += (rec is not None
                                           and rec["status"] == "PASS")
                        claim = False
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        return done

    def setup_samples(self):
        """One warm-up launch (fills the bytecode cache), then timed probes."""
        os.makedirs(self.work)
        try:
            warm = self.launch([], probe=True)
            if warm.rc != 0 or warm.setup is None:
                raise SystemExit("error: cannot import coarse_kit.cli from src/")
            return [self.launch([], probe=True).setup
                    for _ in range(SETUP_PROBES)]
        finally:
            shutil.rmtree(self.work, ignore_errors=True)


# -- metrics -------------------------------------------------------------------


def layer_metrics(results, layers):
    """Self time, calls and counters per traced function.

    Each result carries its own process's spans; a span's parent indexes
    that list.  Times are rescaled like the command's wall time.
    """
    agg = {}
    for r in results:
        spans = r.stamp.get("spans", [])
        children = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        for i, (name, start, end, parent, counters) in enumerate(spans):
            a = agg.setdefault(name, {"self_s": 0.0, "total_s": 0.0,
                                      "calls": 0})
            a["self_s"] += (end - start - children[i]) * r.scale
            a["total_s"] += (end - start) * r.scale
            a["calls"] += 1
            for key, value in (counters or {}).items():
                a[key] = a.get(key, 0) + value
    metrics = {}
    for layer in layers:
        a = agg.get(layer["function"], {})
        for m in layer["metrics"]:
            unit = "s" if m.endswith("_s") else "B" if m == "bytes" else "count"
            metrics[f"{layer['function']}.{m}"] = (a.get(m, 0), unit)
    return metrics, agg


def e2e_table(passes, setups, n_cmds):
    """End-to-end metrics: {name: (value, unit, samples)}."""
    med = statistics.median
    table = {
        "setup_s": (n_cmds * med(setups), "s", len(setups)),
        "wall_s": (med([p.wall for p in passes]), "s", len(passes)),
    }
    for name in PIPELINES:
        if any(r.pipeline == name for r in passes[0].results):
            table[f"{name}_s"] = (med([p.pipeline_s(name) for p in passes]),
                                  "s", len(passes))
    table["peak_rss_mb"] = (med([max(r.rss_mb for r in p.results)
                                 for p in passes]), "MB", len(passes))
    table["wall_raw_s"] = (med([p.raw_wall for p in passes]), "s", len(passes))
    return table


def run_workload(name, seed, seconds, trace, functions):
    started = time.monotonic()
    groups = [list(g) for g in WORKLOADS[name]]
    random.Random(seed).shuffle(groups)
    n_cmds = sum(len(g) for g in groups)
    work = os.path.join(WORK, f"{name}-{os.getpid()}")
    traced = None
    runner = Runner(work, started + RUN_LIMIT_S)
    setups = runner.setup_samples()
    passes = []
    while True:
        t0 = time.monotonic()
        passes.append(runner.run_pass(groups))
        now = time.monotonic()
        if trace or now + (now - t0) > started + min(seconds, RUN_LIMIT_S):
            break
    if trace:
        traced = runner.run_pass(groups, trace=functions)
    for p in passes:
        setups += [r.setup for r in p.results if r.setup is not None]
    if traced:
        for r0, r1 in zip(passes[0].results, traced.results):
            if (r0.rc, r0.stdout) != (r1.rc, r1.stdout):
                r1.problems.append("traced verdict differs from untraced")
    return e2e_table(passes, setups, n_cmds), passes, traced


def print_table(name, seed, table, passes, runs, attempted, failed):
    print(f"workload {name} (seed {seed}): {len(passes)} untraced pass(es) "
          f"of {len(passes[0].results)} commands")
    for metric, (value, unit, n) in table.items():
        print(f"  {metric:<18} {value:12.4f} {unit:<5} median of {n}")
    for metric in PIPELINES:
        if f"{metric}_s" not in table:
            print(f"  {metric + '_s':<18} {'-':>12}       no such command")
    print(f"  {'ops_failed':<18} {failed:>7}/{attempted:<4} count")
    p = passes[0]
    print(f"  {'bounds_rechecked':<18} {p.rechecked:>7}/{p.claims:<4} count "
          "(first pass)")
    for p in runs:
        for r in p.results:
            for problem in r.problems:
                print(f"  FAILED {' '.join(r.argv)}: {problem}")


def measure(name, seed, seconds, trace, design):
    functions = [layer["function"] for layer in design["layers"]]
    table, passes, traced = run_workload(name, seed, seconds, trace, functions)
    runs = passes + ([traced] if traced else [])
    attempted = sum(len(p.results) for p in runs)
    failed = sum(p.failed for p in runs)
    print_table(name, seed, table, passes, runs, attempted, failed)
    if not trace:
        metrics = {m: (v, u) for m, (v, u, _) in table.items()
                   if m in ("setup_s", "wall_s", "peak_rss_mb")}
        return attempted, failed, metrics
    metrics, agg = layer_metrics(traced.results, design["layers"])
    for layer in design["layers"]:
        fn = layer["function"]
        if name in layer["exercised_by"] and agg.get(fn, {}).get("calls", 0) == 0:
            raise SystemExit(f"error: {fn} recorded no call on {name}, "
                             "which exercises it")
        if not any(r.stamp.get("bindings", {}).get(fn) for r in traced.results):
            raise SystemExit(f"error: {fn} was not wrapped")
    untraced = passes[0]
    for p in PIPELINES:
        metrics[f"e2e.{p}_s"] = (untraced.pipeline_s(p), "s")
    metrics["e2e.wall_raw_s"] = (untraced.raw_wall, "s")
    metrics["e2e.bounds_claimed"] = (untraced.claims, "count")
    metrics["e2e.bounds_rechecked"] = (untraced.rechecked, "count")
    metrics["trace.wall_s"] = (traced.wall, "s")
    metrics["trace.overhead_s"] = (traced.wall - untraced.wall, "s")
    metrics["trace.spans"] = (sum(len(r.stamp.get("spans", []))
                                  for r in traced.results), "count")
    print("  per layer (traced pass):")
    for m, (v, u) in metrics.items():
        print(f"    {m:<52} {v:14.4f} {u}")
    return attempted, failed, metrics


def check_names(metrics, trace):
    """The metrics must be exactly those BENCHMARK.json lists."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path) as fp:
        spec = json.load(fp)
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if want != set(metrics):
        raise SystemExit(f"error: metrics differ from BENCHMARK.json: "
                         f"{sorted(want ^ set(metrics))}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    # One processor for the benchmark and, by inheritance, every CLI process:
    # the host-speed timings must run where the command runs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not os.path.isfile(os.path.join(SRC, "coarse_kit", "cli.py")):
        raise SystemExit(f"error: no coarse_kit sources under {SRC}")
    with open(os.path.join(HERE, "design.json")) as fp:
        design = json.load(fp)
    names = TIMED if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            a, f, m = measure(name, args.seed, args.seconds, args.trace, design)
            attempted += a
            failed += f
            if args.workload == "all":
                m = {f"{name}.{k}": v for k, v in m.items()}
            elif name in TIMED:
                check_names(m, args.trace)
            metrics.update(m)
    finally:
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
