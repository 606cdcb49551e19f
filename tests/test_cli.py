import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from salemlat import k3 as k3_module
from salemlat.cli import EXIT_INTERNAL, main
from salemlat.serialize import lattice_to_json
from salemlat.lattice import GramLattice, diagonal_lattice, e8_minus_one


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


class TestExitCodes:
    def test_salem_accept_is_zero(self, capsys):
        code, out, _ = run(capsys, "salem-test", "--poly", "1,-1,-1,-1,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "salem-lattice/1"
        assert "salem_lo" in payload["result"]
        assert "salem_hi" in payload["result"]

    def test_salem_reject_is_one(self, capsys):
        code, out, _ = run(capsys, "salem-test", "--poly", "1,1,1,1,1")
        assert code == 1
        payload = json.loads(out)
        assert payload["result"]["salem"] is False

    def test_unknown_subcommand_is_two(self, capsys):
        code, _, _ = run(capsys, "bogus")
        assert code == 2

    def test_missing_required_flag_is_two(self, capsys):
        code, _, _ = run(capsys, "salem-test")
        assert code == 2

    def test_missing_file_is_three(self, capsys):
        code, _, _ = run(capsys, "lattice-info", "--lattice", "/nonexistent.json")
        assert code == 3

    def test_duplicate_primes_is_two(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "primes.json", {
            "p": 2, "q": 2,
            "p_list": [7, 11, 13, 17, 19, 23, 29, 31],
            "q_list": [37, 41, 43, 47, 53, 59, 61, 67]})
        code, _, err = run(capsys, "k3-run", "--config", cfg)
        assert code == 2
        assert "distinct" in err

    def test_internal_error_is_four(self, capsys, monkeypatch):
        # a broken period identity raises ArithmeticError inside run_k3
        def nonzero_pairing(gram, x, y):
            return k3_module.QuarticAlgebraElement.of(x[0].a_param, x0=1)

        monkeypatch.setattr(k3_module, "_period_pairing", nonzero_pairing)
        code, out, err = run(capsys, "k3-run")
        assert code == EXIT_INTERNAL == 4
        assert out == ""
        assert "internal error: period identity" in err

    @pytest.mark.parametrize("flag", [("--precision", "0"), ("--precision=-1/10",)])
    def test_non_positive_precision_is_two(self, flag):
        # in a child process with a timeout, so that a bisection that never
        # stops fails the test instead of hanging the suite
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run(
            [sys.executable, "-m", "salemlat.cli", "salem-test", "--poly", "1,-3,1", *flag],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: precision must be positive")
        assert "Traceback" not in proc.stderr

    def test_malformed_json_is_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, _ = run(capsys, "lattice-info", "--lattice", str(bad))
        assert code == 2


class TestSubcommands:
    def test_salem_enum(self, capsys):
        code, out, _ = run(capsys, "salem-enum", "--degree", "4",
                           "--trace-min", "1", "--trace-max", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["count"] == 3

    def test_lattice_info(self, capsys, tmp_path):
        lat = write_json(tmp_path / "u.json", lattice_to_json(
            GramLattice.from_rows([[0, 1], [1, 0]])))
        code, out, _ = run(capsys, "lattice-info", "--lattice", lat)
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["signature"] == [1, 0, 1]
        assert payload["result"]["class"] == "hyperbolic"

    def test_lattice_vectors_e8(self, capsys, tmp_path):
        lat = write_json(tmp_path / "e8.json", lattice_to_json(e8_minus_one()))
        code, out, _ = run(capsys, "lattice-vectors", "--lattice", lat,
                           "--norm", "-2")
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["sign_pairs"] == 120
        assert payload["result"]["vector_count"] == 240

    def test_lattice_vectors_indefinite_is_two(self, capsys, tmp_path):
        lat = write_json(tmp_path / "u.json", lattice_to_json(
            GramLattice.from_rows([[0, 1], [1, 0]])))
        code, _, _ = run(capsys, "lattice-vectors", "--lattice", lat,
                         "--norm", "-2")
        assert code == 2

    def test_isom_classify(self, capsys, tmp_path):
        lat = write_json(tmp_path / "pell.json",
                         lattice_to_json(diagonal_lattice([2, -4])))
        mat = write_json(tmp_path / "m.json",
                         {"matrix": [["3", "4"], ["2", "3"]]})
        code, out, _ = run(capsys, "isom-classify", "--lattice", lat,
                           "--matrix", mat)
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["classification"]["kind"] == "salem"
        assert payload["result"]["order"] == "infinite"
        assert payload["result"]["char_poly"] == ["1", "-6", "1"]

    def test_isom_gram_violation_is_one(self, capsys, tmp_path):
        lat = write_json(tmp_path / "u.json", lattice_to_json(
            GramLattice.from_rows([[0, 1], [1, 0]])))
        mat = write_json(tmp_path / "m.json",
                         {"matrix": [["2", "0"], ["0", "1"]]})
        code, out, _ = run(capsys, "isom-classify", "--lattice", lat,
                           "--matrix", mat)
        assert code == 1
        payload = json.loads(out)
        assert payload["checks"][0]["pass"] is False

    def test_rank(self, capsys, tmp_path):
        vecs = write_json(tmp_path / "v.json",
                          {"vectors": [["2", "4"], ["1", "2"]]})
        code, out, _ = run(capsys, "rank", "--vectors", vecs)
        assert code == 0
        assert json.loads(out)["result"]["rank"] == 1

    def test_k3_skip_extension(self, capsys):
        code, out, _ = run(capsys, "k3-run", "--skip-extension")
        assert code == 0
        payload = json.loads(out)
        names = [c["name"] for c in payload["checks"]]
        assert "n_does_not_represent_minus_two" in names
        assert all(c["pass"] for c in payload["checks"])

    def test_k3_failing_selection_is_one(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "primes.json", {
            "p": 2, "q": 3,
            "p_list": [7, 11, 13, 17, 19, 23, 29, 31],
            "q_list": [37, 41, 43, 47, 53, 59, 61, 67]})
        code, out, _ = run(capsys, "k3-run", "--config", cfg,
                           "--skip-extension")
        assert code == 1
        payload = json.loads(out)
        failing = {c["name"] for c in payload["checks"] if not c["pass"]}
        assert "nbar_elliptic_rank_18" in failing
        bad = [c for c in payload["checks"]
               if c["name"] == "nbar_elliptic_rank_18"][0]
        assert "witness" in bad


class TestDeterminism:
    def test_byte_identical_output(self, capsys):
        _, first, _ = run(capsys, "salem-enum", "--degree", "4",
                          "--trace-min", "-1", "--trace-max", "1")
        _, second, _ = run(capsys, "salem-enum", "--degree", "4",
                           "--trace-min", "-1", "--trace-max", "1")
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "cert.json"
        code, out, _ = run(capsys, "--output", str(target),
                           "salem-test", "--poly", "1,-6,1")
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())
        assert payload["result"]["quadratic"] is True
