"""Span recording from outside the library.

A Tracer replaces each listed public function with a wrapper that records
a span (name, start, end, parent span, op id) at every salemlat module
namespace that binds the function; methods are replaced on their class.
Spans stay in memory until the run ends. restore() puts every original
back, so code between traced ops runs unwrapped.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (layer, function) pairs; the layer is the module that defines the function.
TARGETS = (
    ("k3", "run_k3"),
    ("k3", "build_sublattices"),
    ("k3", "build_phi"),
    ("k3", "extension_order"),
    ("k3", "extend_to_lambda"),
    ("k3", "period_point"),
    ("k3", "minimal_primitive_sublattice"),
    ("k3", "torelli_certificate"),
    ("k3", "alpha_map"),
    ("k3", "group_rank_via_alpha"),
    ("linalg", "fraction_inverse"),
    ("linalg", "rational_rank"),
    ("linalg", "smith_normal_form"),
    ("linalg", "hermite_normal_form"),
    ("linalg", "det_bareiss"),
    ("linalg", "adjugate"),
    ("linalg", "charpoly_coeffs"),
    ("linalg", "mat_mul"),
    ("linalg", "mat_pow"),
    ("lattice", "signature"),
    ("lattice", "classify"),
    ("lattice", "represents"),
    ("lattice", "vectors_of_norm"),
    ("lattice", "is_primitive"),
    ("lattice", "saturation"),
    ("lattice", "orthogonal_complement"),
    ("lattice", "discriminant_group"),
    ("lattice", "index_of_sum"),
    ("lattice", "definiteness_witness"),
    ("lattice", "SublatticeEmbedding.from_rows"),
    ("intpoly", "IntPolynomial.divmod_by"),
    ("intpoly", "strip_cyclotomic_factors"),
    ("intpoly", "sturm_count"),
    ("intpoly", "trace_polynomial"),
    ("intpoly", "gcd_poly"),
    ("intpoly", "squarefree_decomposition"),
    ("intpoly", "count_real_roots"),
    ("intpoly", "monic_irreducible_factors"),
    ("intpoly", "is_irreducible_over_integers"),
    ("salem", "enumerate_salem"),
    ("salem", "classify_salem"),
    ("salem", "salem_enclosure"),
    ("isometry", "verify_isometry"),
    ("isometry", "char_poly"),
    ("isometry", "order"),
    ("isometry", "classify_isometry"),
    ("isometry", "entropy"),
    ("parabolic", "abelian_rank_of_image"),
    ("serialize", "report_to_json"),
    ("serialize", "salem_certificate_to_json"),
    ("serialize", "classification_to_json"),
    ("serialize", "dumps_certificate"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _ in TARGETS))


def _max_entry_bits(isometry) -> int:
    return max(abs(x).bit_length() for row in isometry.matrix for x in row)


class Tracer:
    """Wrappers for TARGETS over the loaded salemlat modules."""

    def __init__(self) -> None:
        self.spans: list = []          # (name, parent index, op, start, end)
        self.op = -1
        self.max_bits = 0              # peak entry of extend_to_lambda results
        self.salem_accepted = 0        # classify_salem results that certify
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "salemlat" or name.startswith("salemlat.")]
        for layer, qualname in TARGETS:
            name = f"{layer}.{qualname}"
            module = sys.modules[f"salemlat.{layer}"]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._patches.append((cls, attr, raw, new))
                continue
            orig = getattr(module, qualname)
            new = self._wrap(name, orig)
            for mod in modules:
                for attr, value in vars(mod).items():
                    if value is orig:
                        self._patches.append((mod, attr, orig, new))

    def _observe(self, name: str, result) -> None:
        if name == "k3.extend_to_lambda":
            self.max_bits = max(self.max_bits, _max_entry_bits(result))
        elif name == "salem.classify_salem":
            if type(result).__name__ == "SalemCertificate":
                self.salem_accepted += 1

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        observed = name in ("k3.extend_to_lambda", "salem.classify_salem")

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, parent, self.op, start, end)
            if observed:
                self._observe(name, result)
            return result

        wrapper.span_name = name
        return wrapper

    def install(self) -> None:
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)

    def restore(self) -> None:
        for owner, attr, orig, _ in reversed(self._patches):
            setattr(owner, attr, orig)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for sid, (name, parent, op, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                     "op": op, "start": start, "end": end}))
                fh.write("\n")

    def layer_metrics(self, op_seconds: float, passes: int) -> dict[str, float]:
        """Per-function calls and self seconds per pass over the traced inputs,
        per-layer self seconds and share of traced op time."""
        calls = {f"{l}.{q}": 0 for l, q in TARGETS}
        self_s = {f"{l}.{q}": 0.0 for l, q in TARGETS}
        top_level = 0.0
        for name, parent, _, start, end in self.spans:
            dur = end - start
            calls[name] += 1
            self_s[name] += dur
            if parent >= 0:
                self_s[self.spans[parent][0]] -= dur
            else:
                top_level += dur
        out: dict[str, float] = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name] / passes
            out[f"{name}.self_s"] = self_s[name] / passes
        for layer in LAYERS:
            total = sum(s for n, s in self_s.items() if n.split(".")[0] == layer)
            out[f"{layer}.self_s"] = total / passes
            out[f"{layer}.share"] = total / op_seconds
        out["unattributed.share"] = 1.0 - top_level / op_seconds
        out["k3.extend_to_lambda.max_bits"] = self.max_bits
        classify = calls["salem.classify_salem"]
        out["salem.accept_ratio"] = self.salem_accepted / classify if classify else 0.0
        return out
