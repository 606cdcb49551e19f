"""Checks on the package source itself."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "salemlat"


def test_no_assert_statements():
    # python -O strips asserts, so no correctness check may live in one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(SOURCE.glob("*.py"))
    assert found == []


def test_no_assertion_error_raised():
    # an internal error raises ArithmeticError, which the command line
    # reports with its own exit code; AssertionError would pass for a
    # failed assert and leave as a traceback with exit code 1
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_congruence_core_builds_no_fraction():
    # the signature kernel stays in the integers
    tree = ast.parse((SOURCE / "lattice.py").read_text())
    core = [node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == "_congruence_bareiss"]
    assert len(core) == 1
    names = {node.id for node in ast.walk(core[0]) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(core[0]) if isinstance(node, ast.Attribute)}
    assert "Fraction" not in names
    assert "rows" in names


def _function(path, qualname):
    """The single def of a top-level function or method in a source file."""
    body = ast.parse(path.read_text()).body
    *owners, name = qualname.split(".")
    for owner in owners:
        body = next(n.body for n in body if isinstance(n, ast.ClassDef) and n.name == owner)
    found = [n for n in body if isinstance(n, ast.FunctionDef) and n.name == name]
    assert len(found) == 1, qualname
    return found[0]


def _names(node):
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def test_polynomial_kernels_build_no_fraction():
    # division, stripping, Sturm chains, gcds and sign tests run in integers
    kernels = ["_pseudo_divmod", "_remainder_sequence", "_horner", "_sturm_chain",
               "_eval_chain", "gcd_poly", "strip_cyclotomic_factors", "SturmContext.count",
               "IntPolynomial.sign_at", "IntPolynomial.divides", "IntPolynomial.exact_div"]
    found = [q for q in kernels if "Fraction" in _names(_function(SOURCE / "intpoly.py", q))]
    assert found == []
    defined = {node.name for path in SOURCE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef)}
    assert "_pseudo_divmod" in defined
    assert "_divmod_fractions" not in defined


def test_bisections_read_signs_from_sign_at():
    # a bisection never evaluates its polynomial in Fractions: no call p(x)
    # on the polynomial argument, every sign from sign_at
    for path, qualname in [(SOURCE / "salem.py", "_bisect_enclosure"),
                           (SOURCE / "salem.py", "salem_enclosure"),
                           (SOURCE / "isometry.py", "_largest_real_root_above_one")]:
        fn = _function(path, qualname)
        polys = {fn.args.args[0].arg} | {
            t.id for n in ast.walk(fn) if isinstance(n, ast.Assign)
            for t in n.targets if isinstance(t, ast.Name) and t.id in ("p", "q")}
        calls = [n.lineno for n in ast.walk(fn) if isinstance(n, ast.Call)
                 and isinstance(n.func, ast.Name) and n.func.id in polys]
        assert calls == [], qualname
        assert "sign_at" in _names(fn), qualname


def _tracer_targets():
    # read the literal without importing or running the tracer
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("perfbench/tracer.py has no TARGETS")


def _bindings(body, name):
    """The top-level statements of a block that bind name."""
    found = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.asname or alias.name for alias in node.names]
        else:
            names = [n.id for n in ast.walk(node)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
        if name in names:
            found.append(node)
    return found


def test_tracer_targets_are_distinct_defs():
    # every traced (layer, name) is a function defined once, by def, in
    # src/salemlat/<layer>.py: not deleted, aliased or rebound
    targets = _tracer_targets()
    for front in ("det_bareiss", "adjugate", "fraction_inverse", "rational_rank"):
        assert ("linalg", front) in targets
    assert len(set(targets)) == len(targets)
    problems = []
    for layer, qualname in targets:
        body = ast.parse((SOURCE / f"{layer}.py").read_text()).body
        *owners, name = qualname.split(".")
        for owner in owners:
            body = next((n.body for n in body
                         if isinstance(n, ast.ClassDef) and n.name == owner), [])
        bindings = _bindings(body, name)
        if len(bindings) != 1 or not isinstance(bindings[0], ast.FunctionDef):
            problems.append(f"{layer}.{qualname}")
    assert problems == []


def test_short_vectors_and_interpolation_build_no_fraction():
    # Fincke-Pohst runs on the symmetric core and Kronecker interpolation on
    # the Bareiss inverse; the Fraction eliminations live on as test oracles
    lattice = ast.parse((SOURCE / "lattice.py").read_text())
    imported = {alias.name for node in ast.walk(lattice)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "Fraction" not in _names(lattice) | imported
    for qualname in ("_monic_interpolation", "_kronecker_factor"):
        assert "Fraction" not in _names(_function(SOURCE / "intpoly.py", qualname))
    defined = {node.name for path in SOURCE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef)}
    assert {"_congruence_bareiss", "_monic_interpolation"} <= defined
    assert not {"_ldl", "_interpolate_monic", "floor_sqrt"} & defined


def test_one_product_kernel():
    # every integer matrix product goes through the zero-skipping kernel in
    # linalg; k3 imports it instead of keeping a copy
    k3_defs = {node.name for node in ast.parse((SOURCE / "k3.py").read_text()).body
               if isinstance(node, ast.FunctionDef)}
    assert not {"_nonzero_entries", "_sparse_mul"} & k3_defs
    assert not [name for name in k3_defs if "mul" in name]
    assert {"_nonzero_entries", "_sparse_mul"} <= _names(
        _function(SOURCE / "linalg.py", "mat_mul"))
