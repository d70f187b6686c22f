"""hallbases benchmark: fixed CLI workloads, golden reports, layer tracing.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload roots-w6 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py            # every workload, one table, exit 1 on a bad report

Every command runs the ``hallbases`` CLI against ``src/`` in a fresh
subprocess, one at a time.  Its stdout must match the golden report in
``perfbench/golden`` byte for byte.  An untraced command runs under
``speedprobe.py``, which samples the machine's speed inside the command's
process; its times are reported at reference speed (``at_ref_speed``), so
that other tenants of a shared machine move them far less than they move
raw seconds.  With ``--trace 0`` the run reports the end-to-end metrics of
untraced passes; with ``--trace 1`` it alternates untraced and traced passes
(see ``tracer.py``) and reports per-layer metrics, the tracing overhead and
the raw seconds.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The inputs are fixed exact problems: ``--seed`` is accepted and recorded but
changes nothing.  See ``NOTES.md`` for why each workload was chosen.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_DIR = BENCH_DIR / "golden"
TMP_DIR = ROOT / ".perfbench_tmp"
OUT_DIR = ROOT / ".perfbench_out"

RUN_DEADLINE_S = 170.0
COMMAND_TIMEOUT_S = 120.0
SETUP_REPEATS = 5
FILL_REPEATS = 2  # each fill is a whole cold pass, 5-8 s
MIN_PASSES = 2  # a median of one sample cannot absorb a burst of load
# Times are reported at reference speed (see speedprobe.py): scaled by this
# over the mean reference sample taken while they ran.  It is close to the
# mean sample of a quiet core of the recording machine, so reference seconds
# are close to seconds there.
REF_NOMINAL_S = 0.0006

AFFINE = (
    ("comp-basis_kronecker_C", ("comp-basis", "--ctx", "kronecker", "--cap", "2,2",
                                "--emit", "C")),
    ("verify_all_kronecker", ("verify", "--suite", "all", "--ctx", "kronecker")),
    ("verify_all_a2tilde", ("verify", "--suite", "all", "--ctx", "a2tilde")),
)


@dataclass(frozen=True)
class Workload:
    commands: tuple  # ((golden name, cli argv), ...)
    cache: str | None = None  # None, "cold" (new empty dir per pass) or "warm"


WORKLOADS = {
    "roots-w6": Workload((("roots_kronecker_w6",
                           ("roots", "--ctx", "kronecker", "--window", "6")),)),
    "cyclic-cold": Workload((("cyclic-canonical_r2_d2-3",
                              ("cyclic-canonical", "--rank", "2", "--dim", "2,3")),),
                            cache="cold"),
    "affine-cold": Workload(AFFINE),
    "affine-warm": Workload(AFFINE, cache="warm"),
}

END_TO_END = (("wall_ref_s", "s"), ("cpu_ref_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))

# (metric, unit, better).  "<layer>.calls", "<layer>.s" and "<layer>.self_s"
# read the tracer's span statistics; other names are described in NOTES.md.
PER_LAYER = (
    ("modrep.catalog.calls", "count", "lower"),
    ("modrep.catalog.self_s", "s", "lower"),
    ("modrep.catalog.classes", "count", "lower"),
    ("modrep.catalog.mass_checked", "count", "higher"),
    ("modrep.hom_space.calls", "count", "lower"),
    ("modrep.hom_space.self_s", "s", "lower"),
    ("modrep.rref.calls", "count", "lower"),
    ("modrep.rref.s", "s", "lower"),
    ("modrep.rref.cells", "count", "lower"),
    ("modrep.kernel_basis.calls", "count", "lower"),
    ("modrep.kernel_basis.s", "s", "lower"),
    ("modrep.m_mul.calls", "count", "lower"),
    ("modrep.m_mul.s", "s", "lower"),
    ("modrep.classify.calls", "count", "lower"),
    ("modrep.classify.self_s", "s", "lower"),
    ("modrep.classify.hom_calls", "count", "lower"),
    ("modrep.scan_dim.calls", "count", "lower"),
    ("modrep.scan_dim.self_s", "s", "lower"),
    ("modrep.submodule_tuples.yielded", "count", "lower"),
    ("modrep.is_submodule.calls", "count", "lower"),
    ("modrep.is_submodule.accept_ratio", "ratio", "higher"),
    ("modrep.sub_quotient.calls", "count", "lower"),
    ("modrep.sub_quotient.self_s", "s", "lower"),
    ("modrep.cache.files_written", "count", "lower"),
    ("modrep.cache.bytes_written", "bytes", "lower"),
    ("hall.labels_of_dim.calls", "count", "lower"),
    ("hall.labels_of_dim.self_s", "s", "lower"),
    ("hall.mult_table.calls", "count", "lower"),
    ("hall.mult_table.self_s", "s", "lower"),
    ("hall.fit_and_verify.calls", "count", "lower"),
    ("hall.fit_and_verify.s", "s", "lower"),
    ("hall.fit_and_verify.escalations", "count", "lower"),
    ("hall.bar_matrix_from_monomials.s", "s", "lower"),
    ("hall.bar_invariant_solve.s", "s", "lower"),
    ("laurent.poly_gcd.calls", "count", "lower"),
    ("laurent.poly_gcd.s", "s", "lower"),
    ("laurent.in_lattice.calls", "count", "lower"),
    ("laurent.in_lattice.s", "s", "lower"),
    ("symfun.SymmetricLayer.s", "s", "lower"),
    ("symfun.SymmetricLayer.self_s", "s", "lower"),
    ("pbwbasis.get_context.s", "s", "lower"),
    ("pbwbasis.get_context.self_s", "s", "lower"),
    ("pbwbasis.basis_of_grading.calls", "count", "lower"),
    ("pbwbasis.basis_of_grading.self_s", "s", "lower"),
    ("pbwbasis.verify_almost_orthogonal.s", "s", "lower"),
    ("kashiwara.check_relation.s", "s", "lower"),
    ("kashiwara.check_lattice_stability.s", "s", "lower"),
    ("kashiwara.verify_sink_identity.s", "s", "lower"),
    ("cyclic.CyclicCanonicalBasis.self_s", "s", "lower"),
    ("cyclic.leq_G.calls", "count", "lower"),
    ("cyclic.diamond_step.calls", "count", "lower"),
    ("cli.startup_s", "s", "lower"),
    ("cli.emit.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("probe.wall_raw_s", "s", "lower"),
    ("probe.cpu_raw_s", "s", "lower"),
    ("probe.ref_sample_s", "s", "lower"),
)
STAT_FIELDS = {"calls": 0, "s": 1, "self_s": 2}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


@dataclass
class Proc:
    """One finished subprocess."""
    code: int
    wall: float
    cpu: float
    rss_mb: float
    timed_out: bool = False


def spawn(argv, cwd, env, stdout_path, timeout):
    """Run argv to completion; kill it after timeout.  Always reaps it."""
    with open(stdout_path, "wb") as out, open(str(stdout_path) + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        fired = []

        def kill():
            fired.append(True)
            proc.kill()

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, timed_out=bool(fired))


def report_problem(golden, proc, stdout):
    """Why a command's outcome is wrong, or None when it matches its golden."""
    if proc.timed_out:
        return "timed out"
    if proc.code != 0:
        return "exit %d" % proc.code
    want = (GOLDEN_DIR / (golden + ".json")).read_bytes()
    if stdout != want:
        at = next((i for i, (a, b) in enumerate(zip(stdout, want)) if a != b),
                  min(len(stdout), len(want)))
        return "stdout differs from golden/%s.json at byte %d" % (golden, at)
    return None


def cache_listing(path):
    """{file name: (bytes, sha256)} of a cache directory."""
    out = {}
    if path and os.path.isdir(path):
        for name in sorted(os.listdir(path)):
            data = (Path(path) / name).read_bytes()
            out[name] = (len(data), hashlib.sha256(data).hexdigest())
    return out


@dataclass
class Pass:
    """One pass over a workload's commands; per command its wall and CPU
    seconds (less the probe's own) and its mean reference sample."""
    walls: list = field(default_factory=list)
    cpus: list = field(default_factory=list)
    refs: list = field(default_factory=list)
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    startup: float = 0.0
    stats: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    files_written: int = 0
    bytes_written: int = 0


class Bench:
    def __init__(self, seconds, start):
        self.seconds = seconds
        self.start = start
        self.python = sys.executable
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        TMP_DIR.mkdir(exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="run-", dir=TMP_DIR)
        self.problems = []
        self.setup_attempted = self.setup_failed = 0
        self._n = 0

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def fresh_dir(self):
        self._n += 1
        path = os.path.join(self.tmp, "d%d" % self._n)
        os.mkdir(path)
        return path

    def remaining(self):
        return RUN_DEADLINE_S - (time.perf_counter() - self.start)

    def problem(self, msg):
        self.problems.append(msg)
        log("PROBLEM: " + msg)

    def probed_spawn(self, argv, cwd, stdout_path, timeout):
        """spawn() under speedprobe.py; returns the Proc, less the probe's
        own time, and the mean reference sample (REF_NOMINAL_S if the
        probe left no record, as when the command was killed)."""
        probe_path = os.path.join(cwd, "probe.json")
        r = spawn([self.python, str(BENCH_DIR / "speedprobe.py"), probe_path] + argv,
                  cwd, self.env, stdout_path, timeout)
        if not os.path.exists(probe_path):
            return r, REF_NOMINAL_S
        probe = json.loads(Path(probe_path).read_text())
        r.wall -= probe["spent_wall"]
        r.cpu -= probe["spent_cpu"]
        return r, statistics.mean(probe["samples"])

    def run_pass(self, workload, cache_dir=None, traced=False):
        """Run every command of the workload once; check each report."""
        p = Pass()
        before = cache_listing(cache_dir)
        for cmd_id, (golden, argv) in enumerate(workload.commands):
            argv = list(argv) + (["--cache-dir", cache_dir] if cache_dir else [])
            work = self.fresh_dir()
            out = os.path.join(work, "stdout")
            stats_path = os.path.join(work, "stats.json")
            p.attempted += 1
            timeout = min(COMMAND_TIMEOUT_S, self.remaining())
            if timeout <= 0:
                p.failed += 1
                p.walls.append(0.0)
                p.cpus.append(0.0)
                p.refs.append(REF_NOMINAL_S)
                self.problem("%s: not started, run deadline reached" % golden)
                continue
            if traced:
                r = spawn([self.python, str(BENCH_DIR / "tracer.py"), stats_path, "--"]
                          + argv, work, self.env, out, timeout)
                ref = REF_NOMINAL_S  # traced times are layer metrics, never scaled
            else:
                r, ref = self.probed_spawn(["--"] + argv, work, out, timeout)
            p.walls.append(r.wall)
            p.cpus.append(r.cpu)
            p.refs.append(ref)
            p.rss_mb = max(p.rss_mb, r.rss_mb)
            why = report_problem(golden, r, Path(out).read_bytes())
            if why:
                p.failed += 1
                err = Path(out + ".err").read_text(errors="replace").strip()
                self.problem("%s (%s): %s%s" % (golden, " ".join(argv), why,
                                                ("\n" + err[-2000:]) if err else ""))
            if traced and os.path.exists(stats_path):
                t = json.loads(Path(stats_path).read_text())
                for name, vals in t["stats"].items():
                    acc = p.stats.setdefault(name, [0, 0.0, 0.0])
                    for i, v in enumerate(vals):
                        acc[i] += v
                for name, v in t["counters"].items():
                    p.counters[name] = p.counters.get(name, 0) + v
                p.spans.append({"command": cmd_id, "argv": argv, "spans": t["spans"]})
                p.startup += r.wall - t["stats"]["cli.main"][1]
        after = cache_listing(cache_dir)
        written = [n for n in after if before.get(n) != after[n]]
        p.files_written = len(written)
        p.bytes_written = sum(after[n][0] for n in written)
        if workload.cache == "warm" and written:
            self.problem("warm pass wrote %d cache files (cache miss): %s"
                         % (len(written), ", ".join(written[:5])))
        if workload.cache == "cold" and not written:
            self.problem("cold pass wrote no cache file")
        return p

    def setup(self, workload):
        """Set up several times; returns ([(walls, refs) of each set-up],
        warm cache dir or None)."""
        times = []
        if workload.cache == "warm":
            # the cold pass that fills the cache is the warm workload's set-up
            listings = []
            for _ in range(FILL_REPEATS):
                cache_dir = self.fresh_dir()
                fill = self.run_pass(Workload(workload.commands, "cold"), cache_dir)
                times.append((fill.walls, fill.refs))
                self.setup_failed += fill.failed
                self.setup_attempted += fill.attempted
                listings.append(cache_listing(cache_dir))
            if any(listing != listings[0] for listing in listings):
                self.problem("fill passes left different cache contents")
            log("warm cache: %d files, %d bytes" % (
                len(listings[0]), sum(size for size, _ in listings[0].values())))
            return times, cache_dir
        for _ in range(SETUP_REPEATS):
            work = self.fresh_dir()
            r, ref = self.probed_spawn(["--import-only"], work,
                                       os.path.join(work, "stdout"), self.remaining())
            times.append(([r.wall], [ref]))
            self.setup_attempted += 1
            if r.code != 0:
                self.setup_failed += 1
                self.problem("import hallbases.cli exited %d" % r.code)
        return times, None

    def measure(self, name, trace):
        workload = WORKLOADS[name]
        setup_times, warm_dir = self.setup(workload)

        def one_pass(traced):
            cache_dir = self.fresh_dir() if workload.cache == "cold" else warm_dir
            return self.run_pass(workload, cache_dir, traced)

        plain, traced = [], []
        t0 = time.perf_counter()
        # one traced pair is enough: counts repeat exactly
        min_passes = 1 if trace else MIN_PASSES
        while len(plain) < min_passes or (time.perf_counter() - t0 < self.seconds
                                          and self.remaining() > 0):
            plain.append(one_pass(False))
            if trace:
                traced.append(one_pass(True))
        passes = plain + traced
        attempted = self.setup_attempted + sum(p.attempted for p in passes)
        failed = self.setup_failed + sum(p.failed for p in passes)
        log("%s: %d untraced and %d traced passes, walls %s, at reference speed %s" % (
            name, len(plain), len(traced), ["%.3f" % sum(p.walls) for p in passes],
            ["%.3f" % sum(at_ref_speed(p.walls, p.refs)) for p in plain]))
        if trace:
            metrics = layer_metrics(plain, traced, self.problem)
            OUT_DIR.mkdir(exist_ok=True)
            (OUT_DIR / (name + ".spans.json")).write_text(json.dumps(traced[-1].spans))
        else:
            values = {
                "wall_ref_s": median_sum(at_ref_speed(p.walls, p.refs) for p in plain),
                "cpu_ref_s": median_sum(at_ref_speed(p.cpus, p.refs) for p in plain),
                "peak_rss_mb": max(p.rss_mb for p in plain),
                "setup_s": statistics.median(sum(at_ref_speed(walls, refs))
                                             for walls, refs in setup_times),
            }
            metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END}
        return attempted, failed, metrics


def at_ref_speed(seconds, refs):
    """Each time scaled by REF_NOMINAL_S over the mean reference sample that
    was taken in the same process while it ran."""
    return [t * REF_NOMINAL_S / ref for t, ref in zip(seconds, refs)]


def median_sum(per_pass):
    """Sum over commands of each command's median over passes.

    A burst of load on the machine then spoils one command's sample, not
    the whole pass."""
    return sum(statistics.median(col) for col in zip(*per_pass))


def layer_metrics(plain, traced, problem):
    """Per-layer metrics: counts from the first traced pass, times as medians."""
    def value(p, metric):
        layer, _, leaf = metric.rpartition(".")
        if metric == "modrep.is_submodule.accept_ratio":
            calls = p.stats.get("modrep.is_submodule", [0])[0]
            return p.counters.get("modrep.is_submodule.accepted", 0) / calls if calls else 0.0
        if metric == "modrep.cache.files_written":
            return p.files_written
        if metric == "modrep.cache.bytes_written":
            return p.bytes_written
        if metric == "cli.startup_s":
            return p.startup
        if leaf in STAT_FIELDS:
            return p.stats.get(layer, [0, 0.0, 0.0])[STAT_FIELDS[leaf]]
        return p.counters.get(metric, 0)

    metrics = {}
    for metric, unit, _ in PER_LAYER:
        if metric == "trace.overhead_s":
            v = (median_sum(p.walls for p in traced)
                 - median_sum(p.walls for p in plain))
        elif metric == "probe.wall_raw_s":
            v = median_sum(p.walls for p in plain)
        elif metric == "probe.cpu_raw_s":
            v = median_sum(p.cpus for p in plain)
        elif metric == "probe.ref_sample_s":
            v = statistics.median(ref for p in plain for ref in p.refs)
        elif unit == "s":
            v = statistics.median(value(p, metric) for p in traced)
        else:
            v = value(traced[0], metric)
            if any(value(p, metric) != v for p in traced[1:]):
                problem("count %s differs between traced passes" % metric)
        metrics[metric] = {"value": v, "unit": unit}
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0, help="recorded; inputs are fixed")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit, so that spawn() kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "hallbases" / "cli.py").is_file():
        log("no hallbases source under %s" % (ROOT / "src"))
        return 2
    start = time.perf_counter()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    problems = []
    for name in names:
        bench = Bench(args.seconds, time.perf_counter())
        try:
            results[name] = bench.measure(name, args.trace)
        finally:
            bench.close()
        problems += bench.problems
    attempted = sum(r[0] for r in results.values())
    failed = sum(r[1] for r in results.values())
    correct = failed == 0 and not problems
    if args.workload == "all":
        metrics = {}
        for name, (att, fail, ms) in results.items():
            print("%-12s fail_frac %.4f (%d of %d)" % (name, fail / att, fail, att))
            for metric, m in ms.items():
                print("%-12s %-36s %14.6f %s" % (name, metric, m["value"], m["unit"]))
                metrics["%s/%s" % (name, metric)] = m
    else:
        metrics = results[args.workload][2]
    log("seed %d, %.1f s" % (args.seed, time.perf_counter() - start))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
