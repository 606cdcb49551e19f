"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from oracles import ORACLES  # noqa: E402


def _bench(workload: str, seed: int, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_tiny_run_passes_the_gate(workload):
    result = _bench(workload, inputs.DEFAULT_SEED)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {"op_s.p50", "op_s.tail", "ops_per_s",
                                      "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    result = _bench("salem-enum", 1, trace=1)
    assert result["correct"]
    assert set(result["metrics"]) == names
    assert result["metrics"]["salem.classify_salem.calls"]["value"] > 0


def _first_op(workload: str):
    """Default-seed input 0, its certificate text and a one-op result."""
    inps = inputs.make_inputs(workload, inputs.DEFAULT_SEED)
    objs, op = worker.build_ops(workload, inps[:1])
    rec = worker.Recorder()
    rec.run(op, objs[0], 0)
    return inps, rec.texts[0], {"ops": rec.ops, "texts": rec.texts}


def test_corrupted_golden_digest_counts_as_failure(monkeypatch):
    inps, _, result = _first_op("salem-enum")
    assert run.check_outputs("salem-enum", inps, result) == {}
    monkeypatch.setattr(run, "load_golden",
                        lambda w: {run.input_key(inps[0]): "0" * 64})
    failures = run.check_outputs("salem-enum", inps, result)
    assert failures == {0: "digest differs from golden.json"}


def test_repeat_with_other_certificate_counts_as_failure():
    inps, _, result = _first_op("salem-enum")
    result["ops"].append([0, 0.01, "f" * 64])
    assert run.check_outputs("salem-enum", inps, result) == {
        1: "certificate differs between repeats of one input"}


def test_oracles_reject_tampered_certificates():
    inps, text, _ = _first_op("isometry-spectra")
    cert = json.loads(text)
    assert ORACLES["isometry-spectra"](inps[0], cert) == []
    cert["g"]["char_poly"][0] = str(int(cert["g"]["char_poly"][0]) + 1)
    assert ORACLES["isometry-spectra"](inps[0], cert)

    scan = inputs.make_inputs("k3-scan", 0)[0]
    verdict = {"checks": [{"name": "nbar_elliptic_rank_18",
                           "pass": not inputs.nbar_is_definite(scan)}]}
    assert ORACLES["k3-scan"](scan, verdict)

    poly = {"polynomial": ["1", "0", "-1", "0", "1"], "salem_lo": "2",
            "salem_hi": "3", "degree": 4, "trace": 0, "quadratic": False}
    assert ORACLES["salem-enum"]({"degree": 4, "traces": [0]},
                                 {"windows": [{"trace": 0, "count": 1, "polynomials": [poly]}]})


def _tracer_wrappers() -> list[str]:
    found = []
    for name, mod in sorted(sys.modules.items()):
        if name != "salemlat" and not name.startswith("salemlat."):
            continue
        for attr, value in vars(mod).items():
            owners = [(attr, value)]
            if isinstance(value, type):
                owners += [(f"{attr}.{a}", v) for a, v in vars(value).items()]
            for label, obj in owners:
                fn = getattr(obj, "__func__", obj)
                if hasattr(fn, "span_name"):
                    found.append(f"{name}.{label}")
    return found


def test_no_wrapper_stays_patched(tmp_path):
    from tracer import TARGETS, Tracer

    inps = inputs.make_inputs("isometry-spectra", 3)[:4]
    objs, op = worker.build_ops("isometry-spectra", inps)
    tracer = Tracer()
    tracer.install()
    try:
        assert len(set(_tracer_wrappers())) >= len(TARGETS)
    finally:
        tracer.restore()
    assert _tracer_wrappers() == []

    out = worker.traced_loop("isometry-spectra", op, objs, 0.0,
                             str(tmp_path / "spans.jsonl"))
    assert _tracer_wrappers() == []
    assert out["spans"] > 0 and out["layers"]["isometry.entropy.calls"] == 8
    with open(tmp_path / "spans.jsonl", encoding="ascii") as fh:
        first = json.loads(fh.readline())
    assert set(first) == {"id", "name", "parent", "op", "start", "end"}


def test_inputs_are_deterministic_per_seed():
    for workload in inputs.WORKLOADS:
        a = inputs.make_inputs(workload, 5)
        assert a == inputs.make_inputs(workload, 5)
        if workload != "salem-enum":
            assert a != inputs.make_inputs(workload, 6)
    assert sorted(inputs.make_inputs("salem-enum", 6)[0]["traces"]) == [-2, -1, 0, 1, 2]


def test_input_generator_imports_no_salemlat():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import inputs, calibrate; "
            "[inputs.make_inputs(w, 1) for w in inputs.WORKLOADS]; calibrate.ref_sample(); "
            "print(sorted(m for m in sys.modules if m.startswith('salemlat')))")
    out = subprocess.run([sys.executable, "-I", "-c", code, HERE],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_default_seed_starts_with_default_primes():
    DEFAULT_PRIMES = worker.import_salemlat()[1].DEFAULT_PRIMES

    first = inputs.make_inputs("k3-certify", inputs.DEFAULT_SEED)[0]
    assert (first["p"], first["q"], tuple(first["p_list"]), tuple(first["q_list"])) == (
        DEFAULT_PRIMES.p, DEFAULT_PRIMES.q, DEFAULT_PRIMES.p_list, DEFAULT_PRIMES.q_list)


def test_scan_inputs_have_a_fixed_share_of_indefinite_selections():
    for seed in (0, 1, 2):
        sels = inputs.make_inputs("k3-scan", seed)
        assert sum(not inputs.nbar_is_definite(s) for s in sels) == 12


def test_tail_has_ten_samples_beyond_or_falls_back_to_the_median():
    xs = [float(i) for i in range(100)]
    assert run.tail(xs) == (89.0, 90.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 1)


def test_rescale_uses_the_kernel_samples_in_and_next_to_the_op():
    nominal = calibrate.NOMINAL_S
    slow = [(float(t), 2 * nominal) for t in range(10)]
    fast = [(float(t), nominal / 2) for t in range(100, 110)]
    # an op amid the slow samples ran at half the reference speed
    assert run.rescale([(4.5, 6.5, 1.0)], fast + slow) == [0.5]
    # one neighbour each side of the span, none inside: 2x and 0.5x average
    assert run.rescale([(9.5, 99.5, 3.0)], slow + fast) == pytest.approx([3.0 / 1.25])
    assert run.rescale([(150.0, 151.0, 3.0)], slow + fast) == pytest.approx([6.0])
    assert run.rescale([(5.5, 5.6, 1.0)], slow, around=3) == [0.5]


def test_ref_timer_samples_during_an_op_and_stops_its_clock():
    import signal
    from time import perf_counter

    before = signal.getsignal(signal.SIGALRM)
    with calibrate.RefTimer() as ref:
        start, net = perf_counter(), ref.net()
        while perf_counter() - start < 3 * calibrate.PERIOD_S:
            pass
        wall, net = perf_counter() - start, ref.net() - net
    assert len(ref.samples) >= 4
    assert net < wall
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
