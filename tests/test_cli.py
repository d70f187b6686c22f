import hashlib
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hallbases
from hallbases.cartan import BUILTIN_QUIVERS
from hallbases.cli import main
from hallbases import modrep, pbwbasis
from hallbases.modrep import IsoClassCatalog


def run(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = main(list(argv) + ["--out", str(out)])
    return code, json.loads(out.read_text())


class TestRoots:
    def test_kronecker_window(self, tmp_path):
        code, doc = run(tmp_path, "roots", "--ctx", "kronecker", "--window", "2")
        assert code == 0 and doc["schema"] == 1
        table = {row["t"]: row for row in doc["table"]}
        assert table[-1]["beta"] == [1, 2]
        assert table[2]["beta"] == [2, 1]
        assert table[0]["defect"] == "preprojective"
        assert table[1]["defect"] == "preinjective"

    def test_finite_type_terminates(self, tmp_path):
        code, doc = run(tmp_path, "roots", "--ctx", "a2", "--window", "6")
        assert code == 0
        assert not doc["affine"]
        assert len(doc["table"]) == 6  # both rays list the three positive roots

    def test_finite_type_ray_ends_quietly_in_a_wide_window(self, tmp_path):
        code, doc = run(tmp_path, "roots", "--ctx", "a2", "--window", "100")
        assert code == 0 and doc["window"] == 100
        assert len(doc["table"]) == 6

    def test_quiver_file(self, tmp_path):
        qf = tmp_path / "q.txt"
        qf.write_text("vertex 1\nvertex 2\narrow a 1 2\narrow b 1 2\n")
        code, doc = run(tmp_path, "roots", "--quiver", str(qf), "--window", "1")
        assert code == 0 and doc["affine"]

    def test_bad_quiver_file(self, tmp_path):
        qf = tmp_path / "q.txt"
        qf.write_text("nonsense 1 2\n")
        with pytest.raises(SystemExit):
            run(tmp_path, "roots", "--quiver", str(qf))


class TestVerify:
    def test_serre_kronecker(self, tmp_path):
        code, doc = run(tmp_path, "verify", "--ctx", "kronecker", "--suite", "serre")
        assert code == 0 and doc["pass"]

    def test_eta(self, tmp_path):
        code, doc = run(tmp_path, "verify", "--suite", "eta", "--rank", "2",
                        "--bound", "4")
        assert code == 0
        assert doc["suites"][0]["pairs_checked"] > 50
        assert doc["suites"][0]["counterexamples"] == []

    def test_unknown_suite_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            run(tmp_path, "verify", "--ctx", "kronecker", "--suite", "bogus")


class TestBases:
    def test_comp_basis_small(self, tmp_path):
        code, doc = run(tmp_path, "comp-basis", "--ctx", "kronecker",
                        "--cap", "1,1", "--emit", "C")
        assert code == 0
        slice11 = doc["slices"]["[1, 1]"]
        assert len(slice11) == 2

    def test_comp_basis_report(self, tmp_path):
        code, doc = run(tmp_path, "comp-basis", "--ctx", "kronecker",
                        "--cap", "1,1", "--emit", "report")
        assert code == 0
        assert all(s["bar_involution"] for s in doc["slices"].values())

    def test_cyclic_canonical(self, tmp_path):
        code, doc = run(tmp_path, "cyclic-canonical", "--rank", "2", "--dim", "1,1")
        assert code == 0
        assert "r=2; 1:2 x1" in doc["basis"]
        entry = doc["basis"]["r=2; 1:2 x1"]
        assert entry["bar_invariant"]
        assert ["r=2; 1:1 x1; 2:1 x1", "1*v^-1"] in entry["coords"]


class TestHallPoly:
    def test_cyclic_triple(self, tmp_path):
        code, doc = run(tmp_path, "hall-poly", "--ctx", "cyclic:2",
                        "--triple", "1:2 x1 / 1:1 x1 / 2:1 x1")
        assert code == 0
        assert doc["poly"] == ["1"] and doc["verified"]

    def test_a1_triple(self, tmp_path):
        code, doc = run(tmp_path, "hall-poly", "--ctx", "a1", "--triple", "2/1/1")
        assert code == 0
        assert doc["poly"] == ["1", "1"]  # 1 + q


class TestRefusals:
    @pytest.mark.parametrize("argv, names", [
        (("roots", "--ctx", "nonsense"), "nonsense"),
        (("roots", "--ctx", "cyclic:0"), "cyclic:0"),
        (("cyclic-canonical", "--rank", "2", "--dim", "1"), "--dim"),
        (("cyclic-canonical", "--rank", "1", "--dim", "1"), "--rank"),
        (("comp-basis", "--ctx", "kronecker", "--cap", "3,3"), "--cap"),
        (("comp-basis", "--ctx", "kronecker", "--cap", "1,1,1"), "--cap"),
        (("verify", "--suite", "kashiwara", "--ctx", "kronecker", "--cap", "3,0"), "--cap"),
        (("hall-poly", "--ctx", "cyclic:2", "--triple", "1:2x1/zz/2:1"), "--triple"),
        (("hall-poly", "--ctx", "cyclic:2", "--triple", "r=3; 1:1 x1 / 1:1 x1 / 0"),
         "--triple"),
        (("hall-poly", "--ctx", "cyclic:2", "--triple", "1:1 x1 / 1:1 x1 / 2:1 x1"),
         "--triple"),
        (("hall-poly", "--ctx", "a1", "--triple", "2/1/x"), "--triple"),
        (("hall-poly", "--ctx", "a1", "--triple", "2/1/1", "--verify-prime", "0"), "q = 0"),
        (("hall-poly", "--ctx", "cyclic:2", "--triple", "1:2 x1 / 1:1 x1 / 2:1 x1",
          "--primes", "2,3,6"), "q = 6"),
        (("hall-poly", "--ctx", "a1", "--triple", "2/1/1", "--verify-prime", "12"), "q = 12"),
        (("hall-poly", "--ctx", "a1", "--triple", "2/1/1", "--primes", "2,x"), "--primes"),
        (("roots", "--quiver", "no/such/quiver.txt"), "--quiver"),
        (("hall-poly", "--ctx", "a1", "--triple", "9/5/4"), "exceeds budget"),
        (("cyclic-canonical", "--rank", "2", "--dim", "9,9"), "exceeds budget"),
        (("cyclic-canonical", "--rank", "2", "--dim=-1,2"), "--dim -1,2"),
        (("comp-basis", "--ctx", "kronecker", "--cap", "1,-1"), "--cap 1,-1"),
        (("roots", "--ctx", "kronecker", "--window", "-2"), "--window -2"),
        (("verify", "--suite", "eta", "--bound", "-1"), "--bound -1"),
        (("verify", "--suite", "eta", "--rank", "-1"), "--rank -1"),
        (("verify", "--suite", "eta", "--rank", "0"), "--rank 0"),
        (("verify", "--suite", "eta", "--rank", "1"), "--rank 1"),
        (("verify", "--suite", "all", "--ctx", "a2tilde", "--rank", "1"), "--rank 1"),
        (("roots", "--ctx", "kronecker", "--window", "100"), "--window 100"),
        (("cyclic-canonical", "--rank", "2", "--dim", "4,4"), "exceeds budget"),
        # a held-out field that is also fitted verifies nothing
        (("hall-poly", "--ctx", "a1", "--triple", "2/1/1", "--verify-prime", "5"),
         "--verify-prime 5"),
        (("verify", "--suite", "hallpoly", "--verify-prime", "4"), "--verify-prime 4"),
        # a fit keys its points by q, so a repeated field is fitted once
        (("hall-poly", "--ctx", "a1", "--triple", "2/1/1", "--primes", "2,2,3",
          "--verify-prime", "5"), "--primes 2,2,3"),
    ])
    def test_one_line_refusal(self, tmp_path, argv, names):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, *argv)
        message = exc.value.code
        assert isinstance(message, str) and names in message and "\n" not in message
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("argv", [
        ("hall-poly", "--ctx", "a1", "--triple", "9/5/4"),
        ("cyclic-canonical", "--rank", "2", "--dim", "9,9"),
        ("cyclic-canonical", "--rank", "2", "--dim", "4,4"),
    ])
    def test_no_catalog_before_budget_refusal(self, tmp_path, monkeypatch, argv):
        def build(self, shape, F, *args, **kwargs):
            raise AssertionError("GF(%d) catalog built before the budget refusal" % F.q)

        monkeypatch.setattr(IsoClassCatalog, "__init__", build)
        with pytest.raises(SystemExit, match="exceeds budget"):
            run(tmp_path, *argv)

    def test_no_catalog_before_walk_refusal(self, tmp_path, monkeypatch):
        # three Kronecker arrows have no synthesizer: (4, 1) walks 2^12 states
        # over GF(2) but 3^12 over GF(3), refused before the GF(2) catalog
        qf = tmp_path / "k3.txt"
        qf.write_text(KRONECKER_FILE + "arrow c 1 2\n")

        def build(self, shape, F, *args, **kwargs):
            raise AssertionError("GF(%d) catalog built before the walk refusal" % F.q)

        monkeypatch.setattr(IsoClassCatalog, "__init__", build)
        with pytest.raises(SystemExit, match=r"orbit enumeration of \(4, 1\) over GF\(3\) "
                                             r"walks 531441 states"):
            run(tmp_path, "verify", "--suite", "serre", "--quiver", str(qf))

    @pytest.mark.parametrize("text, names", [
        ("vertex 1\narrow a 1 2\n", "outside the vertex set"),
        ("vertex 1\nvertex 2\nvertex 1\narrow a 1 2\n", "duplicate vertex ids"),
        ("vertex 1\nvertex 2\narrow a 1 2 m=0\n", "m=0"),
        ("vertex 1\nvertex 2\narrow a 1 2 m=-2\n", "m=-2"),
    ], ids=["undeclared-vertex", "repeated-vertex", "m=0", "m=-2"])
    def test_malformed_quiver_file(self, tmp_path, text, names):
        path = tmp_path / "q.txt"
        path.write_text(text)
        proc = _run_cli("roots", "--quiver", str(path))
        assert proc.returncode == 1 and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr
        assert names in proc.stderr

    def test_refusal_exit_status(self):
        proc = _run_cli("cyclic-canonical", "--rank", "2", "--dim", "1")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ("roots", "--quiver", "{bad_quiver}"),
        ("hall-poly", "--ctx", "cyclic:2", "--triple", "1:2x1/zz/2:1"),
        ("hall-poly", "--ctx", "cyclic:2", "--triple", "1:2 x1 / 1:1 x1 / 2:1 x1",
         "--primes", "2,3,6"),
        ("hall-poly", "--ctx", "a1", "--triple", "9/5/4"),
        ("cyclic-canonical", "--rank", "2", "--dim=-1,2"),
        ("roots", "--window", "-2"),
        ("verify", "--suite", "eta", "--rank", "1"),
        ("roots", "--ctx", "kronecker", "--window", "61"),
        ("roots", "--window", "x"),
        ("verify", "--suite", "bogus"),
        ("cyclic-canonical", "--rank", "2", "--dim", "1,1", "--cache-dir", "{bad_quiver}"),
    ])
    def test_bad_input_exit_status(self, tmp_path, argv):
        bad_quiver = tmp_path / "q.txt"
        bad_quiver.write_text("nonsense 1 2\n")
        proc = _run_cli(*(a.format(bad_quiver=bad_quiver) for a in argv))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr


    @pytest.mark.parametrize("argv", [
        ("hall-poly", "--ctx", "a1", "--triple", "4/2/2"),
        ("hall-poly", "--ctx", "a1", "--triple", "2/1/1", "--primes", "2"),
    ])
    def test_unverified_fit_exit_status(self, argv):
        # too few fit fields for the degree: the held-out field disagrees
        proc = _run_cli(*argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr
        assert "fit through" in proc.stderr

    def test_orbit_enumeration_refused_up_front(self, tmp_path, monkeypatch):
        # a2tilde has no known families; its slice (2,3,3) has 2^21 states
        def walk(*args):
            raise AssertionError("a slice was enumerated before the state-budget refusal")

        monkeypatch.setattr(modrep, "enumerate_bfs", walk)
        code, doc = run(tmp_path, "roots", "--ctx", "a2tilde", "--window", "5")
        assert code == 0
        assert doc["table"][0] == {"warning": "no catalog: orbit enumeration of (2, 3, 3) "
                                              "over GF(2) walks 2097152 states, over 2^17"}
        assert len(doc["table"]) == 12

    def test_failed_certificate_exit_status(self, tmp_path, monkeypatch, capsys):
        # a failed mass check is a failed identity, not a missing catalog
        def fail(self, dims):
            raise modrep.OracleError("planted mass check failure at %s" % (dims,))

        monkeypatch.setattr(IsoClassCatalog, "_mass_check", fail)
        code = main(["roots", "--ctx", "kronecker", "--window", "2",
                     "--out", str(tmp_path / "out.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and "planted" in err and "Traceback" not in err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("text", ['{"schema": 1, "classes": [', '{"schema": 1}'],
                             ids=["cut", "no-classes"])
    def test_bad_catalog_file_exit_status(self, tmp_path, capsys, text):
        # a catalog file that is not JSON, or lacks a field, is refused by name
        cache = tmp_path / "cache"
        argv = ["roots", "--ctx", "kronecker", "--window", "2", "--cache-dir", str(cache),
                "--out", str(tmp_path / "out.json")]
        assert main(argv) == 0
        [path] = cache.glob("cat_*.json")
        path.write_text(text)
        (tmp_path / "out.json").unlink()
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err == "check failed: cache file %s is not a catalog\n" % path
        assert not (tmp_path / "out.json").exists()


def _run_cli(*argv):
    src = os.path.dirname(os.path.dirname(hallbases.__file__))
    return subprocess.run([sys.executable, "-m", "hallbases.cli", *argv],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))


class TestRemovedOptions:
    @pytest.mark.parametrize("argv", [
        ("verify", "--suite", "eta", "--threads", "4"),
        ("verify", "--suite", "eta", "--order", "3"),
        ("basis", "comp", "--ctx", "kronecker", "--cap", "1,1"),
        ("cyclic-canonical", "--rank", "2", "--dim", "1,1", "--emit", "B"),
        # only hall-poly and verify take explicit fit fields
        ("cyclic-canonical", "--rank", "2", "--dim", "1,1", "--primes", "2,3"),
        ("comp-basis", "--ctx", "kronecker", "--cap", "1,1", "--verify-prime", "7"),
        ("roots", "--ctx", "kronecker", "--primes", "2,3"),
    ])
    def test_rejected_by_the_parser(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, *argv)
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv", [
        ("roots", "--ctx", "kronecker", "--cap", "1,1"),
        ("comp-basis", "--ctx", "kronecker", "--cap", "1,1", "--quiver", "nowhere.txt"),
        ("cyclic-canonical", "--rank", "2", "--dim", "1,1", "--quiver", "nowhere.txt"),
        ("cyclic-canonical", "--rank", "2", "--dim", "1,1", "--cap", "1,1"),
        ("cyclic-canonical", "--rank", "2", "--dim", "1,1", "--ctx", "cyclic:2"),
        ("hall-poly", "--ctx", "a1", "--triple", "2/1/1", "--quiver", "nowhere.txt"),
        ("hall-poly", "--ctx", "a1", "--triple", "2/1/1", "--cap", "2"),
    ], ids=["roots-cap", "comp-basis-quiver", "cyclic-canonical-quiver", "cyclic-canonical-cap",
            "cyclic-canonical-ctx", "hall-poly-quiver", "hall-poly-cap"])
    def test_unread_option_rejected(self, tmp_path, capsys, argv):
        # a subcommand registers only the options it reads
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, *argv)
        err = capsys.readouterr().err
        assert exc.value.code == 1
        assert len(err.splitlines()) == 1 and "unrecognized arguments: %s" % argv[-2] in err

    def test_verify_reads_every_shared_option(self, tmp_path):
        # the serre suite reads --quiver, the basis suites --cap, hallpoly the fields
        qf = tmp_path / "kron.txt"
        qf.write_text(KRONECKER_FILE)
        code, doc = run(tmp_path, "verify", "--suite", "serre", "--quiver", str(qf))
        assert code == 0 and doc == run(tmp_path, "verify", "--suite", "serre",
                                        "--ctx", "kronecker")[1]
        code, doc = run(tmp_path, "verify", "--suite", "triangularity", "--ctx", "kronecker",
                        "--cap", "1,1")
        assert code == 0 and len(doc["suites"][0]["slices"]) == 4
        code, doc = run(tmp_path, "verify", "--suite", "hallpoly", "--primes", "2,3,4,5",
                        "--verify-prime", "8")
        assert code == 0 and doc["suites"][0]["verified_at"] == 8


#: the Kronecker quiver spelled out as builtin_quiver("kronecker") has it
KRONECKER_FILE = "vertex 1\nvertex 2\narrow a 1 2\narrow b 1 2\n"


class TestShapeDecidesSynthesizer:
    """A --quiver file of the Kronecker quiver is cataloged as --ctx kronecker is."""

    def test_kronecker_file_matches_the_golden_report(self, tmp_path):
        qf = tmp_path / "kron.txt"
        qf.write_text(KRONECKER_FILE)
        out = tmp_path / "out.json"
        assert main(["roots", "--quiver", str(qf), "--window", "6", "--out", str(out)]) == 0
        want = REPO / "perfbench" / "golden" / "roots_kronecker_w6.json"
        assert out.read_bytes() == want.read_bytes()

    def test_one_cache_file_with_family_keys(self, tmp_path):
        qf = tmp_path / "kron.txt"
        qf.write_text(KRONECKER_FILE)
        cache = tmp_path / "cache"
        reports = []
        for source in (("--quiver", str(qf)), ("--ctx", "kronecker")):
            out = tmp_path / ("%s.json" % source[0][2:])
            assert main(["roots", *source, "--window", "2", "--cache-dir", str(cache),
                         "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        [path] = cache.glob("cat_*.json")
        keys = [c["synth_key"] for c in json.loads(path.read_text())["classes"] if c["indec"]]
        # family keys such as ["pp", n] and ["reg", p, l], not tuples of arrow maps
        assert keys and {key[0] for key in keys} == {"pp", "reg", "reginf", "pi"}


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
        cache = str(tmp_path / "cache")
        for out in (o1, o2):
            main(["verify", "--ctx", "kronecker", "--suite", "serre",
                  "--cache-dir", cache, "--out", str(out)])
        assert o1.read_bytes() == o2.read_bytes()


REPO = Path(__file__).resolve().parents[1]


def _fail(*args, **kwargs):
    raise RuntimeError("injected failure")


class TestContextTable:
    """cartan.BUILTIN_QUIVERS is the one record of every shipped shape."""

    def test_readme_table_mirrors_the_records(self):
        text = (REPO / "README.md").read_text()
        section = text.split("## Built-in contexts and caps")[1].split("\n## ")[0]
        rows = [[cell.strip() for cell in line.strip("|").split("|")]
                for line in section.splitlines() if line.startswith("|")][2:]
        caps = {row[0].strip("`"): row[2].strip("`") for row in rows}
        assert len(rows) == len(caps)
        assert set(caps) == set(BUILTIN_QUIVERS) | {"cyclic:r"}
        for name, (_, cap) in BUILTIN_QUIVERS.items():
            assert caps[name] == ("(%s)" % ",".join(map(str, cap)) if cap else "–"), name

    def test_one_record_makes_a_context(self, tmp_path, monkeypatch, capsys):
        # the Kronecker quiver under a new name with cap (1,1): its reports are
        # those of --ctx kronecker --cap 1,1 under the new name
        monkeypatch.setitem(BUILTIN_QUIVERS, "kron11", (BUILTIN_QUIVERS["kronecker"][0], (1, 1)))
        monkeypatch.setattr(pbwbasis, "_CONTEXTS", {})
        with pytest.raises(SystemExit):
            main(["comp-basis", "--help"])
        assert "(a1, a2, kronecker, a2tilde, d32, c2-folded, kron11, cyclic:<r>)" in " ".join(
            capsys.readouterr().out.split())
        for argv in (("comp-basis", "--emit", "report"), ("verify", "--suite", "triangularity")):
            code, doc = run(tmp_path, *argv, "--ctx", "kron11")
            want = run(tmp_path, *argv, "--ctx", "kronecker", "--cap", "1,1")[1]
            if "ctx" in want:
                want["ctx"] = "kron11"
            assert code == 0 and doc == want
        with pytest.raises(SystemExit, match="--cap 2,2 is outside the kron11 basis cap 1,1"):
            run(tmp_path, "comp-basis", "--ctx", "kron11", "--cap", "2,2")


class TestGoldenReports:
    """In-process reports equal the benchmark's golden files byte for byte."""

    @pytest.mark.parametrize("golden, argv", [
        ("verify_all_a2tilde", ("verify", "--suite", "all", "--ctx", "a2tilde")),
        ("comp-basis_kronecker_C", ("comp-basis", "--ctx", "kronecker", "--cap", "2,2",
                                    "--emit", "C")),
        ("roots_kronecker_w6", ("roots", "--ctx", "kronecker", "--window", "6")),
        ("cyclic-canonical_r2_d2-3", ("cyclic-canonical", "--rank", "2", "--dim", "2,3")),
        ("verify_all_kronecker", ("verify", "--suite", "all", "--ctx", "kronecker")),
    ])
    def test_matches_golden(self, tmp_path, golden, argv):
        out = tmp_path / "out.json"
        assert main(list(argv) + ["--out", str(out)]) == 0
        want = REPO / "perfbench" / "golden" / (golden + ".json")
        assert out.read_bytes() == want.read_bytes()


def _kind(name):
    """"cat" for a catalog file, "full" for scan_<key>_<dims>.json and
    "split" for scan_<key>_<dims>_<sub>.json."""
    parts = name[:-len(".json")].split("_")
    return "cat" if parts[0] == "cat" else ("full", "split")[len(parts) - 3]


def _cache_digest(tmp_path, monkeypatch, runs, kinds=("cat", "full")):
    """One sha256 over the cache files of the runs of the given kinds (_kind):
    their names, with the catalog key masked, and their contents.

    A run writes its catalogs and the file of every split its products
    read, but no full scan; after it, the full scan of every nonzero slice
    of each catalog it scanned is written.  That is the file set of the
    slices a product reads, whatever the product skips: a product by the
    unit reads no scan.
    """
    lines = []
    scan = IsoClassCatalog.scan_dim
    for label, argv in runs:
        scanned = []

        def recorded(cat, dims, sub=None):
            if cat not in scanned:
                scanned.append(cat)
            return scan(cat, dims, sub)

        monkeypatch.setattr(IsoClassCatalog, "scan_dim", recorded)
        cache = tmp_path / label
        assert main(list(argv) + ["--cache-dir", str(cache),
                                  "--out", str(tmp_path / (label + ".json"))]) == 0
        assert "full" not in {_kind(path.name) for path in cache.iterdir()}
        for cat in scanned:
            for dims in cat.by_dim:
                if any(dims):
                    scan(cat, dims)
        for path in cache.iterdir():
            if _kind(path.name) in kinds:
                lines.append("%s/%s %s" % (label, re.sub(r"_[0-9a-f]{24}", "_KEY", path.name),
                                           hashlib.sha256(path.read_bytes()).hexdigest()))
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


CYCLIC_23 = ("cyclic", ("cyclic-canonical", "--rank", "2", "--dim", "2,3"))


def test_cache_files_pinned(tmp_path, monkeypatch):
    """The catalog and full-scan files of two benchmark commands, byte for
    byte, by one digest.

    The class order of every slice fixes the class ids and so every cache
    file; the digest holds both fixed while the way catalogs are built changes.
    The key in a file name versions the catalog format, so it is masked.  The
    digest is that of the files from before the field ladder, less the GF(7)
    ones: no fit of these commands reads GF(7) any more.
    """
    runs = (("roots", ("roots", "--ctx", "kronecker", "--window", "6")), CYCLIC_23)
    assert _cache_digest(tmp_path, monkeypatch, runs) == (
        "a8e251411d8983f3b94c45963af34643313cf559169cffaaeb146decf3053bbb")


def test_scan_files_pinned(tmp_path, monkeypatch):
    """Every submodule count of cyclic-canonical --rank 2 --dim 2,3, by one digest.

    The full-scan files hold the counts of (quotient, sub) classes per class;
    the digest was taken before the scan grew its tuples vertex by vertex,
    and the GF(7) files were left out of it once no fit read GF(7).
    """
    assert _cache_digest(tmp_path, monkeypatch, (CYCLIC_23,), ("full",)) == (
        "262bf2c7b047aafd563bab2de00ae5777b15fbd58e5a9589cc1b1f20e1bc1916")


def test_split_scan_files_pinned(tmp_path, monkeypatch):
    """The split files that cyclic-canonical --rank 2 --dim 2,3 writes, by one
    digest, taken when every split was first scanned on its own.

    Each split file holds the counts of its full scan, whose digest is
    pinned above, restricted to the subs of its dimension.
    """
    digest = _cache_digest(tmp_path, monkeypatch, (CYCLIC_23,), ("split",))
    cache = tmp_path / "cyclic"
    splits = [path for path in cache.iterdir() if _kind(path.name) == "split"]
    assert splits
    for path in splits:
        _, key, dims, sub = path.stem.split("_")
        classes = json.loads((cache / ("cat_%s.json" % key)).read_text())["classes"]
        want = [int(x) for x in sub.split("-")]
        full = json.loads((cache / ("scan_%s_%s.json" % (key, dims))).read_text())
        assert json.loads(path.read_text()) == {
            cid: {pair: g for pair, g in counts.items()
                  if classes[int(pair.split(",")[1])]["dims"] == want}
            for cid, counts in full.items()}, path.name
    assert digest == "29029f04fdcec0c7bc76a3705c40b387429e0eb4d6db82ab45cfa9114a22e2e8"


def test_cyclic_33_report_pinned(tmp_path):
    """The report of cyclic-canonical --rank 2 --dim 3,3, by its digest from
    before its products by divided powers scanned only their own submodules."""
    out = tmp_path / "out.json"
    assert main(["cyclic-canonical", "--rank", "2", "--dim", "3,3", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "35a0dfd0ccbd1d34340cc1390f6820048d1072c8d8aff1a4dee33c6cb0ca9559")


def test_serre_suite_writes_no_full_scan(tmp_path, monkeypatch):
    """verify --suite serre reads no full scan: the product of both layers
    takes a factor of grading 0 for the unit and reads no table for it, and
    a product by a divided power reads only its own split, so the cache
    holds the two catalogs and split files alone.  A warm rerun reads them
    all and scans nothing.  The report digest is that of the report from
    before unit products skipped their scans."""
    out, cache = tmp_path / "out.json", tmp_path / "cache"
    argv = ["verify", "--suite", "serre", "--ctx", "kronecker",
            "--cache-dir", str(cache), "--out", str(out)]
    assert main(argv) == 0
    files = sorted(path.name for path in cache.iterdir())
    assert sorted(_kind(name) for name in files if _kind(name) != "split") == ["cat", "cat"]
    assert "split" in map(_kind, files)
    digest = "34a8d692db5346518d28a66d5ff793e236ef9654daf01d14280086389a3101a5"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    monkeypatch.setattr(modrep, "submodule_tuples", _fail)
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert sorted(path.name for path in cache.iterdir()) == files


def test_e_basis_reports_pinned(tmp_path):
    """The E-basis reports of both contexts, byte for byte, by one digest.

    Their Q(v) coefficients are read off in the N basis of each slice
    (expand_in_N), which no golden report covers; the digest was taken
    before that solve was factored once per grading.
    """
    digest = hashlib.sha256()
    for ctx in ("kronecker", "a2tilde"):
        out = tmp_path / (ctx + ".json")
        assert main(["comp-basis", "--ctx", ctx, "--emit", "E", "--out", str(out)]) == 0
        digest.update(out.read_bytes())
    assert digest.hexdigest() == (
        "0a9ea0e79ac1170d141acfe3c725d9c26d60f98d30a85133230dc0788ce66d94")


class TestValuedContext:
    """D_3^(2), the folded A~_3 with the valued vertex 2+4 a source, at cap delta."""

    def test_reports_pinned(self, tmp_path):
        for argv, want in (
                (("comp-basis", "--ctx", "d32", "--emit", "report"),
                 "0d98edb952805c9cdd72619ba516fc975100bca6c0e333962cb45b90571cc4b7"),
                (("verify", "--suite", "all", "--ctx", "d32"),
                 "147dd65dd1b4e19c00beaef419439666937dd79749948509f11631c65dc0596e")):
            out = tmp_path / "out.json"
            assert main(list(argv) + ["--out", str(out)]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == want, argv

    def test_kostant_counts(self, tmp_path):
        # Kostant's partition function, with mult delta = 1 in D_3^(2):
        # (1,1,1) is delta, (1,1,0) + (0,0,1), (0,1,1) + (1,0,0) or
        # (1,0,0) + (0,1,0) + (0,0,1); (1,1,0) is itself or (1,0,0) + (0,1,0)
        code, doc = run(tmp_path, "comp-basis", "--ctx", "d32", "--emit", "report")
        assert code == 0
        assert doc["slices"]["[1, 1, 1]"]["indices"] == doc["slices"]["[1, 1, 1]"]["aperiodic"] == 4
        assert doc["slices"]["[1, 1, 0]"]["indices"] == 2


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("tracer", REPO / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, attr, _ in tracer.TARGETS:
        obj = importlib.import_module("hallbases." + module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (module, attr)


_LAYERS_RUN = """\
import os, sys, types
from hallbases.cli import main
if sys.argv[1:]:
    main(sys.argv[1:] + ["--out", os.devnull])
mods = {n[len("hallbases."):]: m for n, m in sys.modules.items() if n.startswith("hallbases.")}
print(" ".join(sorted(n for n, m in mods.items() if type(m) is types.ModuleType)))
print(" ".join(sorted(mods)))
"""

# importing cli runs kashiwara too, since cli binds its functions, but kashiwara
# reads its own layers through the package's lazy modules
CLI_LAYERS = {"cartan", "gf", "modrep", "kashiwara", "cli"}
LAZY_LAYERS = {"laurent", "hall", "cyclic", "symfun", "pbwbasis"}


def _layers_run(*argv):
    """(the hallbases layers compiled and run, every hallbases layer in sys.modules)
    in a fresh interpreter without bytecode, once cli has run argv; a layer that no
    one has read yet is still an importlib.util lazy module."""
    src = os.path.dirname(os.path.dirname(hallbases.__file__))
    proc = subprocess.run([sys.executable, "-c", _LAYERS_RUN, *argv],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 0, proc.stderr
    ran, present = proc.stdout.splitlines()
    return set(ran.split()), set(present.split())


class TestStartupImports:
    """Each command compiles only the layers it runs."""

    def test_cli_import_runs_no_lazy_layer(self):
        ran, present = _layers_run()
        assert ran == CLI_LAYERS
        # the rest are modules already, as perfbench/tracer.py reads them
        assert present == CLI_LAYERS | LAZY_LAYERS

    @pytest.mark.parametrize("ctx, window", [("kronecker", "3"), ("a2tilde", "2")])
    def test_roots_runs_no_lazy_layer(self, ctx, window):
        assert _layers_run("roots", "--ctx", ctx, "--window", window)[0] == CLI_LAYERS

    def test_cyclic_canonical_runs_no_composition_layer(self):
        ran = _layers_run("cyclic-canonical", "--rank", "2", "--dim", "1,1")[0]
        assert {"cyclic", "hall", "laurent"} <= ran and not ran & {"pbwbasis", "symfun"}

    def test_moved_names_are_one_object(self):
        from hallbases import cartan, hall

        # main catches FitError, and _basis_cap reads the caps, without hall or pbwbasis
        assert hall.FitError is modrep.FitError
        assert issubclass(modrep.FitError, modrep.OracleError)
        assert pbwbasis.context_caps is cartan.context_caps
