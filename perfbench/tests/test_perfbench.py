"""Self-tests of the benchmark.  Run from the checkout root:

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402

A2TILDE = run.Workload((run.AFFINE[2],))


def test_self_time_on_nested_span_tree():
    # a[0,10] holds b[1,4] (holding c[2,3]), b[5,6] and a recursive a[7,9]
    ticks = iter([0, 1, 2, 3, 4, 5, 6, 7, 9, 10])
    t = tracer.Tracer(clock=lambda: next(ticks), hot={"c"})
    t.enter("a")
    t.enter("b")
    t.enter("c")
    t.exit()
    t.exit()
    t.enter("b")
    t.exit()
    t.enter("a")
    t.exit()
    t.exit()
    # [calls, inclusive s of outermost activations, self s]
    assert t.stats == {"a": [2, 10, 4 + 2], "b": [2, 4, 2 + 1], "c": [1, 1, 1]}
    # the hot span "c" is aggregated only
    assert t.spans == [[0, None, "a", 0, 10], [1, 0, "b", 1, 4],
                       [2, 0, "b", 5, 6], [3, 0, "a", 7, 9]]


def _hallbases_namespaces():
    import hallbases.cli  # noqa: F401  (imports every layer module)
    return {n: m for n, m in sys.modules.items()
            if n == "hallbases" or n.startswith("hallbases.")}


def test_every_binding_of_a_target_is_wrapped():
    namespaces = _hallbases_namespaces()
    originals = {}
    for mod, attr, name in tracer.TARGETS:
        if "." not in attr:
            fn = getattr(namespaces["hallbases." + mod], attr)
            originals[name] = {(n, k) for n, m in namespaces.items()
                               for k, v in vars(m).items() if v is fn}
    # names that other modules import must be among the ones checked
    assert ("hallbases.cli", "check_lattice_stability") in originals[
        "kashiwara.check_lattice_stability"]
    assert ("hallbases.pbwbasis", "in_lattice") in originals["laurent.in_lattice"]
    installed = tracer.install(tracer.Tracer())
    try:
        for (original, wrapper, owner, attr), (_, _, name) in zip(installed,
                                                                  tracer.TARGETS):
            if owner is not None:
                assert owner.__dict__[attr] is wrapper
                continue
            for n, m in namespaces.items():
                assert all(v is not original for v in vars(m).values()), (n, name)
            for n, k in originals[name]:
                assert getattr(namespaces[n], k) is wrapper
    finally:
        for original, wrapper, owner, attr in installed:
            if owner is not None:
                setattr(owner, attr, original)
                continue
            for m in namespaces.values():
                for k, v in list(vars(m).items()):
                    if v is wrapper:
                        setattr(m, k, original)


def test_golden_comparator_flags_one_byte(tmp_path, monkeypatch):
    golden = "verify_all_a2tilde"
    good = (run.GOLDEN_DIR / (golden + ".json")).read_bytes()
    ok = run.Proc(code=0, wall=1.0, cpu=1.0, rss_mb=1.0)
    assert run.report_problem(golden, ok, good) is None
    flipped = bytearray(good)
    flipped[len(good) // 2] ^= 1
    assert "byte %d" % (len(good) // 2) in run.report_problem(golden, ok, bytes(flipped))
    assert run.report_problem(golden, ok, good + b"\n") is not None
    assert run.report_problem(golden, run.Proc(1, 1.0, 1.0, 1.0), good) == "exit 1"
    # and a real pass against a golden copy with one byte changed fails
    (tmp_path / (golden + ".json")).write_bytes(bytes(flipped))
    monkeypatch.setattr(run, "GOLDEN_DIR", tmp_path)
    bench = run.Bench(seconds=0, start=time.perf_counter())
    try:
        assert bench.run_pass(A2TILDE).failed == 1
    finally:
        bench.close()


def test_probe_samples_inside_the_command(tmp_path):
    probe_path = tmp_path / "probe.json"
    env = dict(run.os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "speedprobe.py"),
                           str(probe_path), "--import-only"],
                          env=env, capture_output=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout == b""
    probe = json.loads(probe_path.read_text())
    # one sample before the command, one after, and one per timer tick
    assert len(probe["samples"]) >= 2
    assert probe["spent_wall"] >= sum(probe["samples"]) > 0
    assert probe["spent_cpu"] > 0


def test_times_scale_by_their_own_reference():
    ref = run.REF_NOMINAL_S
    # a command that took twice as long while the reference work also took
    # twice as long reads the same at reference speed
    assert run.at_ref_speed([1.0, 2.0, 3.0], [ref, 2 * ref, ref / 2]) == [1.0, 1.0, 6.0]


def test_traced_pass_keeps_stdout_and_repeats_counts():
    bench = run.Bench(seconds=0, start=time.perf_counter())
    try:
        plain = bench.run_pass(A2TILDE)
        first = bench.run_pass(A2TILDE, traced=True)
        second = bench.run_pass(A2TILDE, traced=True)
    finally:
        bench.close()
    # run_pass compares each stdout byte for byte with its golden report
    assert (plain.failed, first.failed, second.failed) == (0, 0, 0)
    assert not bench.problems
    assert first.stats["modrep.catalog"][0] > 0
    assert first.counters == second.counters
    assert ({k: v[0] for k, v in first.stats.items()}
            == {k: v[0] for k, v in second.stats.items()})
    metrics = run.layer_metrics([plain], [first, second], bench.problem)
    assert not bench.problems
    assert [m for m, _, _ in run.PER_LAYER] == list(metrics)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER)
    assert set(spec["paths"]) == {BENCH_DIR.name}


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "roots-w6",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == b""

