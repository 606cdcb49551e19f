import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from salemlat import k3 as k3_module
from salemlat.cli import EXIT_INTERNAL, _cmd_rank, main
from salemlat.isometry import verify_isometry
from salemlat.k3 import PrimeSelection
from salemlat.rational import parse_int
from salemlat.serialize import lattice_from_json, matrix_from_json
from salemlat.lattice import GramLattice, diagonal_lattice, e8_minus_one

from oracles import lattice_to_json


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

    def test_failed_torelli_check_is_one(self, capsys, monkeypatch):
        # extensions that do not fix e0 fail phis_fix_e0; the alpha vectors
        # are then not read, so no shape error can pose as a usage error
        def minus_identity(phi_power, l_emb, tbar_emb):
            n = l_emb.ambient.rank
            return verify_isometry(
                [[-(i == j) for j in range(n)] for i in range(n)], l_emb.ambient)

        monkeypatch.setattr(k3_module, "eichler_extension", minus_identity)
        code, out, err = run(capsys, "k3-run")
        assert code == 1
        assert err == ""
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["phis_fix_e0"]["pass"] is False
        assert checks["alpha_rank_18"]["pass"] is False

    def test_w_moved_off_e0_is_one(self, capsys, monkeypatch):
        # an extension that moves some w_i off Z e0 fails alpha_rank_18;
        # it is a failed check, not a usage error
        from salemlat import linalg

        subs = k3_module.build_sublattices(k3_module.DEFAULT_PRIMES)
        kernel = linalg.integer_kernel((subs.e0, *subs.tbar.basis))
        phi = next(row for row in kernel if linalg.mat_vec(subs.w_rows, row) != (0,) * 18)
        moved = [[(i == 1) * x for x in phi] for i in range(22)]
        g = k3_module.LatticeIsometry(
            subs.ambient, linalg.mat_add(linalg.identity(22), moved))
        monkeypatch.setattr(k3_module, "eichler_extension", lambda *args: g)
        code, out, err = run(capsys, "k3-run")
        assert code == 1
        assert err == ""
        payload = json.loads(out)
        checks = {c["name"]: c for c in payload["checks"]}
        assert checks["alpha_rank_18"]["pass"] is False
        assert checks["alpha_rank_18"]["detail"] == (
            "phi_1: w image does not differ by a multiple of e0")
        assert "alpha_vectors" not in payload["result"]
        assert "group_rank" not in payload["result"]

    def test_failed_extension_is_one(self, capsys, monkeypatch):
        # a non-integral extension of generator 5 is a failed check, not an
        # error that escapes run_k3
        extend = k3_module.eichler_extension

        def failing_at_five(phi, l_emb, tbar_emb):
            if phi.matrix == k3_module.build_phi(5, phi.lattice).matrix:
                raise k3_module.NonIntegralExtensionError("not integral")
            return extend(phi, l_emb, tbar_emb)

        monkeypatch.setattr(k3_module, "eichler_extension", failing_at_five)
        code, out, err = run(capsys, "k3-run")
        assert code == 1
        assert err == ""
        payload = json.loads(out)
        checks = {c["name"]: c for c in payload["checks"]}
        assert checks["extensions_integral"]["pass"] is False
        assert checks["extensions_integral"]["detail"].startswith("phi_5: ")
        assert "extension_orders" not in payload["result"]

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


PRIMES_JSON = {"p": 2, "q": 3,
               "p_list": [29, 31, 37, 41, 43, 47, 53, 59],
               "q_list": [61, 67, 71, 73, 79, 83, 89, 97]}

# (argv, contents of the file named "{in}"): each input is malformed, and
# none may run as a rounded or truncated value or leave as a traceback
MALFORMED = [
    (("lattice-info", "--lattice", "{in}"), {"rank": 2, "gram": [[2.7, 1], [1, 2]]}),
    (("lattice-info", "--lattice", "{in}"), {"rank": "2", "gram": [["2", None], ["1", "2"]]}),
    (("lattice-info", "--lattice", "{in}"), [[2]]),
    (("lattice-info", "--lattice", "{in}"), {"rank": True, "gram": [[2]]}),
    (("lattice-info", "--lattice", "{in}"), {"gram": [[2]]}),
    (("k3-run", "--skip-extension", "--config", "{in}"), {**PRIMES_JSON, "p": 2.9}),
    (("k3-run", "--skip-extension", "--config", "{in}"), {**PRIMES_JSON, "p_list": 29}),
    (("k3-run", "--skip-extension", "--config", "{in}"), {**PRIMES_JSON, "q_list": [61, None]}),
    (("k3-run", "--skip-extension", "--config", "{in}"), [2, 3]),
    (("rank", "--vectors", "{in}"), {"vectors": 5}),
    (("rank", "--vectors", "{in}"), [[1, 2]]),
    (("rank", "--vectors", "{in}"), {"vectors": [[1, None]]}),
    (("rank", "--vectors", "{in}"), {"vectors": [[True, 0]]}),
    (("rank", "--vectors", "{in}"), {"vectors": [["1.5", "0"]]}),
    (("isom-classify", "--lattice", "{lattice}", "--matrix", "{in}"), [["1"]]),
    (("salem-test", "--poly", "1,-3,1", "--precision", "1/0"), None),
]


class TestStrictInputs:
    @pytest.mark.parametrize("argv, contents", MALFORMED)
    def test_malformed_input_is_two(self, capsys, tmp_path, argv, contents):
        files = {"{in}": write_json(tmp_path / "in.json", contents),
                 "{lattice}": write_json(tmp_path / "lat.json", {"rank": 1, "gram": [[2]]})}
        code, out, err = run(capsys, *(files.get(arg, arg) for arg in argv))
        assert code == 2, err
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_integer_reader(self):
        for value, expected in ((7, 7), ("-12", -12), ("0", 0), (10**40, 10**40)):
            assert parse_int(value) == expected
        for value in (True, 2.0, 2.7, "2.7", "", "-", "+5", " 5", "1_0", "\u0663", None, [1]):
            with pytest.raises(ValueError, match="expected an integer"):
                parse_int(value)

    json_scalars = (st.none() | st.booleans() | st.integers(-10**20, 10**20)
                    | st.floats(allow_nan=False) | st.text(max_size=3)
                    | st.integers(-300, 300).map(str))
    json_values = st.recursive(
        json_scalars,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                     max_size=4),
        max_leaves=12)
    int_rows = st.lists(st.lists(json_scalars, max_size=3), max_size=3)

    @staticmethod
    def parses_or_value_error(reader, value):
        try:
            return reader(value)
        except ValueError:
            return None

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(json_values | int_rows)
    def test_matrix_reader(self, value):
        rows = self.parses_or_value_error(matrix_from_json, value)
        if rows is not None:  # exact integers, no bool among them
            assert [[int(x) for x in row] for row in value] == [list(row) for row in rows]
            assert all(type(x) is int for row in rows for x in row)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(json_values | st.fixed_dictionaries({"gram": int_rows, "rank": json_scalars}))
    def test_lattice_reader(self, value):
        self.parses_or_value_error(lattice_from_json, value)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(json_values | st.fixed_dictionaries({
        "p": json_scalars, "q": json_scalars,
        "p_list": st.lists(json_scalars, max_size=9), "q_list": st.lists(json_scalars, max_size=9)}))
    def test_prime_selection_reader(self, value):
        self.parses_or_value_error(PrimeSelection.from_dict, value)

    @settings(derandomize=True, max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(value=json_values | st.fixed_dictionaries({"vectors": int_rows}))
    def test_rank_reader(self, tmp_path, value):
        path = write_json(tmp_path / "vectors.json", value)
        self.parses_or_value_error(_cmd_rank, argparse.Namespace(vectors=path))


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
