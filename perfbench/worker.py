"""One workload in a fresh process: set up, then a closed timed loop.

Reads {"workload", "inputs"} as JSON on stdin, imports salemlat from the
checkout's src directory, turns the plain-integer inputs into library
objects and prints "ready". Unless --setup-only is given it then runs ops,
one at a time, until --seconds have passed, and prints one JSON line with
the per-op wall spans and net times, digests, the first certificate text
of each input and the reference kernel samples a timer took meanwhile
(calibrate.py).

With --trace 1 every input of the trace set runs twice in a row, untraced
and then with the span tracer installed, so the traced-over-untraced time
ratio compares the same work.

    python3 perfbench/worker.py --seconds 10 --trace 0 < request.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

ENTROPY_PRECISION = Fraction(1, 10**6)

# Inputs traced per pass; a pass must fit a run even at twice the op time.
TRACE_SET = {"k3-certify": 1, "k3-scan": 8, "salem-enum": 1, "isometry-spectra": 36}

# Stop tracing further passes beyond this many spans, to bound memory.
SPAN_BUDGET = 200_000


def import_salemlat():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import salemlat
    from salemlat import isometry, k3, lattice, salem, serialize

    if not os.path.abspath(salemlat.__file__).startswith(src + os.sep):
        raise ImportError(f"salemlat loaded from {salemlat.__file__}, not {src}")
    return isometry, k3, lattice, salem, serialize


def build_ops(workload: str, inputs: list[dict]):
    """The set-up objects and the op that turns one of them into certificate text."""
    isometry, k3, lattice, salem, serialize = import_salemlat()

    if workload in ("k3-certify", "k3-scan"):
        skip = workload == "k3-scan"
        objs = [k3.PrimeSelection(p=x["p"], q=x["q"], p_list=tuple(x["p_list"]),
                                  q_list=tuple(x["q_list"])) for x in inputs]

        def op(selection):
            report = k3.run_k3(selection, skip_extension=skip)
            return serialize.dumps_certificate(serialize.report_to_json(report))

    elif workload == "salem-enum":
        objs = [(x["degree"], tuple(x["traces"])) for x in inputs]

        def op(table):
            degree, traces = table
            windows = []
            for t in traces:
                certs = salem.enumerate_salem(degree, t, t)
                windows.append({
                    "trace": t,
                    "count": len(certs),
                    "polynomials": [serialize.salem_certificate_to_json(c) for c in certs],
                })
            return serialize.dumps_certificate({"windows": windows})

    elif workload == "isometry-spectra":
        lattices: dict = {}
        objs = []
        for x in inputs:
            gram = tuple(tuple(r) for r in x["gram"])
            if gram not in lattices:
                lattices[gram] = lattice.GramLattice.from_rows(gram)
            objs.append((lattices[gram], tuple(tuple(r) for r in x["g"]),
                         tuple(tuple(r) for r in x["g3"])))

        def spectra(matrix, lat) -> dict:
            g = isometry.verify_isometry(matrix, lat)
            k = isometry.order(g)
            out = {
                "char_poly": serialize.poly_to_json(isometry.char_poly(g)),
                "determinant": g.determinant(),
                "order": k if k is not None else "infinite",
                "classification": serialize.classification_to_json(
                    isometry.classify_isometry(g)),
            }
            try:
                out["entropy"] = serialize.interval_to_json(
                    isometry.entropy(g, ENTROPY_PRECISION))
            except isometry.UnsupportedSpectrumError as exc:
                # the documented refusal; the oracle checks that it is right
                out["entropy"] = {"refused": str(exc)}
            return out

        def op(item):
            lat, g, g3 = item
            return serialize.dumps_certificate(
                {"g": spectra(g, lat), "g3": spectra(g3, lat)})

    else:
        raise ValueError(f"unknown workload {workload!r}")
    return objs, op


class Recorder:
    """Per-op wall times and digests, and the first text seen per input."""

    def __init__(self, clock=perf_counter) -> None:
        self.ops: list[list] = []       # [input index, seconds, digest or error]
        self.texts: dict[int, str] = {}
        self.clock = clock

    def run(self, op, obj, index: int) -> float:
        start = self.clock()
        try:
            text = op(obj)
        except Exception as exc:  # a failed op is counted, not fatal
            seconds = self.clock() - start
            self.ops.append([index, seconds, f"error: {type(exc).__name__}: {exc}"])
            return seconds
        seconds = self.clock() - start
        self.ops.append([index, seconds, hashlib.sha256(text.encode()).hexdigest()])
        self.texts.setdefault(index, text)
        return seconds


def timed_loop(op, objs, seconds: float) -> dict:
    from calibrate import RefTimer

    spans = []
    with RefTimer() as ref:
        rec = Recorder(clock=ref.net)
        start = perf_counter()
        i = 0
        while True:
            op_start = perf_counter()
            rec.run(op, objs[i % len(objs)], i % len(objs))
            spans.append((op_start, perf_counter()))
            i += 1
            if perf_counter() - start >= seconds:
                break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"ops": rec.ops, "texts": rec.texts, "spans": spans,
            "refs": ref.samples, "rss_mb": rss_mb}


def traced_loop(workload: str, op, objs, seconds: float, spans_path: str) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    rec = Recorder()
    trace_set = objs[:TRACE_SET[workload]]
    untraced, traced = [], []
    passes = 0
    start = perf_counter()
    while True:
        for index, obj in enumerate(trace_set):
            untraced.append(rec.run(op, obj, index))
            tracer.op = len(rec.ops)
            tracer.install()
            try:
                traced.append(rec.run(op, obj, index))
            finally:
                tracer.restore()
        passes += 1
        if perf_counter() - start >= seconds or len(tracer.spans) >= SPAN_BUDGET:
            break
    tracer.write_jsonl(spans_path)
    layers = tracer.layer_metrics(sum(traced), passes)
    return {"ops": rec.ops, "texts": rec.texts, "passes": passes,
            "untraced": untraced, "traced": traced, "layers": layers,
            "spans": len(tracer.spans)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="JSON-lines file for the traced spans")
    args = parser.parse_args(argv)

    request = json.load(sys.stdin)
    objs, op = build_ops(request["workload"], request["inputs"])
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        out = traced_loop(request["workload"], op, objs, args.seconds, args.spans)
    else:
        out = timed_loop(op, objs, args.seconds)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
