"""Record golden.json: the sha256 of every default-seed certificate.

Each certificate is recorded only after the independent oracles accept it,
so a golden digest certifies an output that was checked once.

    python3 perfbench/make_golden.py            # all workloads
    python3 perfbench/make_golden.py k3-scan    # one workload, others kept
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from inputs import DEFAULT_SEED, WORKLOADS, make_inputs  # noqa: E402
from oracles import ORACLES  # noqa: E402
from run import input_key  # noqa: E402
from worker import build_ops  # noqa: E402


def golden_digests(workload: str) -> dict[str, str]:
    inputs = make_inputs(workload, DEFAULT_SEED)
    objs, op = build_ops(workload, inputs)
    out = {}
    for inp, obj in zip(inputs, objs):
        text = op(obj)
        problems = ORACLES[workload](inp, json.loads(text))
        if problems:
            raise SystemExit(f"{workload}: oracle rejects {inp}: {problems}")
        out[input_key(inp)] = hashlib.sha256(text.encode()).hexdigest()
    return out


def main(argv: list[str]) -> int:
    path = os.path.join(HERE, "golden.json")
    with open(path, encoding="ascii") as fh:
        golden = json.load(fh)
    for workload in argv or WORKLOADS:
        golden[workload] = golden_digests(workload)
        print(f"{workload}: {len(golden[workload])} digests", file=sys.stderr)
    with open(path, "w", encoding="ascii") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
