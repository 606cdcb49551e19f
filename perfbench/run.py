"""salemlat benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload k3-scan --seed 3 --seconds 10 --trace 0

Run from the root of a checkout. The inputs come from perfbench/inputs.py
and the seed alone. The workload runs in a fresh worker process, a closed
loop with one client and one op at a time; set-up time is the median of
several fresh processes. Every time is reported at reference speed: wall
seconds rescaled by a fixed kernel that a timer runs every 0.2 s of the
loop, by its runs during and next to each op (calibrate.py), since the
shared host's speed drifts by more than the bounds. After the timed loop
every certificate is checked outside the timing: against the committed
digest where one exists (golden.json), for repeatability across repeats of
one input, and by the independent oracles. The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics of a
traced run for --trace 1. The line before it holds the run context (Python,
nproc, commit, source line count) and details: tail percentile and sample
count, fail rate, raw wall p50 and kernel median, tracing overhead. Spans
of a traced run are written to perfbench/out/spans-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from calibrate import WARMUP, ref_sample, rescale  # noqa: E402
from inputs import WORKLOADS, make_inputs  # noqa: E402

# Fresh processes timed for setup_s, after one unmeasured warm-up.
SETUP_REPEATS = 6

# Kernel runs after each set-up process; a set-up is too short for the timer.
SETUP_REFS = 4

# A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10

WORKER_TIMEOUT_S = 170


def input_key(inp: dict) -> str:
    return hashlib.sha256(json.dumps(inp, sort_keys=True).encode()).hexdigest()


def load_golden(workload: str) -> dict[str, str]:
    with open(os.path.join(HERE, "golden.json"), encoding="ascii") as fh:
        return json.load(fh).get(workload, {})


def _worker_cmd(*extra: str) -> list[str]:
    return [sys.executable, "-I", os.path.join(HERE, "worker.py"), *extra]


def _start(cmd: list[str], request: bytes) -> subprocess.Popen:
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE)
    proc.stdin.write(request)
    proc.stdin.close()
    proc.stdin = None  # lets communicate() collect stdout under a timeout
    return proc


def _await_ready(proc: subprocess.Popen) -> None:
    if proc.stdout.readline() != b"ready\n":
        proc.wait(WORKER_TIMEOUT_S)
        raise RuntimeError(f"worker failed during set-up (exit {proc.returncode})")


def setup_seconds(request: bytes) -> tuple[list[float], list[float]]:
    """Fresh process to first op ready, for SETUP_REPEATS processes: the
    times at reference speed and the raw wall times."""
    samples = [ref_sample() for _ in range(WARMUP + SETUP_REFS)][WARMUP:]
    events = []
    for i in range(SETUP_REPEATS + 1):
        start = perf_counter()
        proc = _start(_worker_cmd("--setup-only"), request)
        try:
            _await_ready(proc)
            elapsed = perf_counter() - start
        finally:
            proc.stdout.close()
            proc.wait(WORKER_TIMEOUT_S)
        samples += [ref_sample() for _ in range(SETUP_REFS)]
        if i:
            events.append((start, start + elapsed, elapsed))
    return rescale(events, samples, around=SETUP_REFS), [t for _, _, t in events]


def run_worker(request: bytes, seconds: float, trace: int, spans_path: str) -> dict:
    proc = _start(_worker_cmd("--seconds", str(seconds), "--trace", str(trace),
                              "--spans", spans_path), request)
    try:
        _await_ready(proc)
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(out)


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with
    TAIL_BEYOND samples beyond it, never below the median; with too few
    samples for that the median stands in and the percentile says so."""
    xs = sorted(times)
    n = len(xs)
    if n - TAIL_BEYOND > n / 2:
        return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND
    return statistics.median(xs), 50.0, n // 2


def check_outputs(workload: str, inputs: list[dict], result: dict) -> dict[int, str]:
    """Reason for failure of each failed op, by position in result["ops"]."""
    from oracles import ORACLES

    golden = load_golden(workload)
    texts = {int(k): v for k, v in result["texts"].items()}
    first_digest = {i: hashlib.sha256(t.encode()).hexdigest() for i, t in texts.items()}
    bad_input: dict[int, str] = {}
    for i, text in texts.items():
        want = golden.get(input_key(inputs[i]))
        if want is not None and want != first_digest[i]:
            bad_input[i] = "digest differs from golden.json"
            continue
        try:
            problems = ORACLES[workload](inputs[i], json.loads(text))
        except (KeyError, TypeError, ValueError) as exc:
            problems = [f"oracle cannot read the certificate: {exc!r}"]
        if problems:
            bad_input[i] = "; ".join(problems)
    failures = {}
    for pos, (i, _, digest) in enumerate(result["ops"]):
        if digest.startswith("error:"):
            failures[pos] = digest
        elif i in bad_input:
            failures[pos] = bad_input[i]
        elif digest != first_digest[i]:
            failures[pos] = "certificate differs between repeats of one input"
    return failures


def run_context() -> dict:
    src = os.path.join(ROOT, "src", "salemlat")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except OSError:
            pass
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(),
            "git_commit": commit, "src_salemlat_lines": lines}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="salemlat benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "salemlat")):
        print(f"error: no salemlat sources under {ROOT}/src", file=sys.stderr)
        return 2
    inputs = make_inputs(args.workload, args.seed)
    request = json.dumps({"workload": args.workload, "inputs": inputs}).encode()
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{args.workload}.jsonl")

    try:
        setups, raw_setups = ([], []) if args.trace else setup_seconds(request)
        result = run_worker(request, args.seconds, args.trace, spans_path)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = check_outputs(args.workload, inputs, result)
    attempted = len(result["ops"])
    details = {"workload": args.workload, "seed": args.seed,
               "context": run_context(), "fail_rate": len(failures) / attempted,
               "failures": sorted(set(failures.values()))[:5]}
    if args.trace:
        values = dict(result["layers"])
        values["trace.overhead"] = (statistics.median(result["traced"])
                                    / statistics.median(result["untraced"]))
        details.update(trace_passes=result["passes"], spans=result["spans"],
                       spans_file=os.path.relpath(spans_path, ROOT))
    else:
        raw = [seconds for _, seconds, _ in result["ops"]]
        times = rescale([(*span, t) for span, t in zip(result["spans"], raw)],
                        result["refs"])
        tail_s, pct, beyond = tail(times)
        values = {
            "op_s.p50": statistics.median(times),
            "op_s.tail": tail_s,
            "ops_per_s": attempted / sum(times),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["rss_mb"],
        }
        details.update(samples=attempted, tail_percentile=pct, tail_beyond=beyond,
                       raw_op_s_p50=statistics.median(raw),
                       ref_s_p50=statistics.median(s for _, s in result["refs"]),
                       ref_samples=len(result["refs"]),
                       setup_samples=setups, raw_setup_samples=raw_setups)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps(details))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
