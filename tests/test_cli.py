import json
import os
import subprocess
import sys

import pytest

import hallbases
from hallbases.cli import main


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

    def test_quiver_file(self, tmp_path):
        qf = tmp_path / "q.txt"
        qf.write_text("vertex 1\nvertex 2\narrow a 1 2\narrow b 1 2\n")
        code, doc = run(tmp_path, "roots", "--quiver", str(qf), "--window", "1")
        assert code == 0 and doc["affine"]

    def test_bad_quiver_file(self, tmp_path):
        qf = tmp_path / "q.txt"
        qf.write_text("nonsense 1 2\n")
        with pytest.raises(Exception):
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

    def test_eta_threaded_matches(self, tmp_path):
        _, doc1 = run(tmp_path, "verify", "--suite", "eta", "--bound", "4")
        _, doc2 = run(tmp_path, "verify", "--suite", "eta", "--bound", "4",
                      "--threads", "4")
        assert doc1 == doc2

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

    def test_basis_subcommand_delegates(self, tmp_path):
        code, doc = run(tmp_path, "basis", "comp", "--ctx", "kronecker",
                        "--cap", "1,1", "--emit", "N")
        assert code == 0 and doc["command"] == "comp-basis"


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
    ])
    def test_one_line_refusal(self, tmp_path, argv, names):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, *argv)
        message = exc.value.code
        assert isinstance(message, str) and names in message and "\n" not in message
        assert not (tmp_path / "out.json").exists()

    def test_refusal_exit_status(self):
        src = os.path.dirname(os.path.dirname(hallbases.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "hallbases.cli", "cyclic-canonical", "--rank", "2",
             "--dim", "1"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
        cache = str(tmp_path / "cache")
        for out in (o1, o2):
            main(["verify", "--ctx", "kronecker", "--suite", "serre",
                  "--cache-dir", cache, "--out", str(out)])
        assert o1.read_bytes() == o2.read_bytes()
