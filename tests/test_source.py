"""Checks on the package source itself."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "salemlat"


def test_readme_python_blocks_run():
    # every fenced python block of the README runs as written
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


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


def test_no_floating_point():
    # every comparison is decided in integers and rationals: no float, no
    # log from math and no mpmath anywhere in the package
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                bad = any(a.name.split(".")[0] == "mpmath" for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                bad = (node.module or "").split(".")[0] == "mpmath" or (
                    node.module == "math" and any(a.name.startswith("log") for a in node.names))
            elif isinstance(node, ast.Attribute):
                bad = (isinstance(node.value, ast.Name) and node.value.id == "math"
                       and node.attr.startswith("log"))
            else:
                bad = (isinstance(node, ast.Name) and node.id in ("float", "mpmath")
                       or isinstance(node, ast.Constant) and isinstance(node.value, float))
            if bad:
                found.append(f"{path.name}:{node.lineno}")
    assert sorted(SOURCE.glob("*.py"))
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
               "SturmContext.variations", "SturmContext.count", "gcd_poly",
               "strip_cyclotomic_factors", "IntPolynomial.sign_at", "IntPolynomial.divides",
               "IntPolynomial.exact_div"]
    found = [q for q in kernels if "Fraction" in _names(_function(SOURCE / "intpoly.py", q))]
    assert found == []
    defined = {node.name for path in SOURCE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef)}
    assert "_pseudo_divmod" in defined
    assert "_divmod_fractions" not in defined


def _two(node):
    return isinstance(node, ast.Constant) and node.value == 2


def _halves_a_bracket(loop):
    """Whether a loop forms a midpoint (x + y) / 2 or (x + y) // 2, or
    doubles a denominator as in d = 2 * d."""
    for n in ast.walk(loop):
        if (isinstance(n, ast.BinOp) and isinstance(n.op, (ast.Div, ast.FloorDiv))
                and _two(n.right) and isinstance(n.left, ast.BinOp)
                and isinstance(n.left.op, ast.Add)):
            return True
        if isinstance(n, ast.Assign):
            targets = [t for tgt in n.targets
                       for t in (tgt.elts if isinstance(tgt, ast.Tuple) else [tgt])]
            values = n.value.elts if isinstance(n.value, ast.Tuple) else [n.value]
            for t, v in zip(targets, values):
                if (isinstance(t, ast.Name) and isinstance(v, ast.BinOp)
                        and isinstance(v.op, ast.Mult)
                        and any(_two(x) for x in (v.left, v.right))
                        and any(isinstance(x, ast.Name) and x.id == t.id
                                for x in (v.left, v.right))):
                    return True
    return False


def _loops(node):
    return [n for n in ast.walk(node) if isinstance(n, (ast.For, ast.While, ast.comprehension))]


def test_one_bisection():
    # every root enclosure runs through salem._bisect_enclosure, whose loop
    # stays in the integers; its callers only set up the bracket
    halving = sorted(f"{path.stem}.{fn.name}" for path in SOURCE.glob("*.py")
                     for fn in ast.walk(ast.parse(path.read_text()))
                     if isinstance(fn, ast.FunctionDef)
                     and any(_halves_a_bracket(loop) for loop in _loops(fn)))
    assert halving == ["salem._bisect_enclosure"]
    # one mode: the kernel reads every step off the caller's value_at
    kernel = _function(SOURCE / "salem.py", "_bisect_enclosure")
    assert [a.arg for a in kernel.args.args] == ["value_at", "lo", "hi", "precision"]
    assert not (kernel.args.kwonlyargs or kernel.args.vararg or kernel.args.kwarg)
    # entropy decides on one Sturm chain of its trace polynomial, with no
    # second pass over the mirror p(-x)
    entropy = _function(SOURCE / "isometry.py", "entropy")
    called = [n.func.id if isinstance(n.func, ast.Name) else n.func.attr
              for n in ast.walk(entropy) if isinstance(n, ast.Call)
              and isinstance(n.func, (ast.Name, ast.Attribute))]
    assert called.count("trace_polynomial") == called.count("SturmContext") == 1
    assert "mirror" not in _names(entropy)
    value_at = [n for n in ast.walk(entropy)
                if isinstance(n, ast.FunctionDef) and n.name == "value_at"]
    assert len(value_at) == 1
    enclosure = _function(SOURCE / "salem.py", "salem_enclosure")
    assert "_bisect_enclosure" in _names(enclosure) & _names(entropy)
    for fn, name in [(enclosure, "salem_enclosure"), (value_at[0], "entropy.value_at")]:
        assert _loops(fn) == [], name
        # no nudge of a root endpoint, such as lo = 100001/100000
        assert not [n for n in ast.walk(fn) if isinstance(n, ast.Constant)
                    and isinstance(n.value, int) and n.value > 2], name
    kernel_loops = _loops(kernel)
    assert len(kernel_loops) == 1
    assert not {"Fraction", "sign_at"} & _names(kernel_loops[0])
    # nor of a root midpoint, such as (hi - lo) / 8 or / 17
    assert not [n for n in ast.walk(kernel_loops[0])
                if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Div)]


def test_one_factor_search():
    # the mod-p patterns divide on the integer kernel, and the factor search
    # strips cyclotomics once and finds rational roots as Kronecker's
    # search at degree 1, so none of these keeps a copy of its own
    defined = {node.name for path in SOURCE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef)}
    assert not {"_poly_mod", "_pm_mul", "_pm_divmod", "_pm_powmod"} & defined
    assert "_pseudo_divmod" in _names(_function(SOURCE / "intpoly.py", "_ddf_degrees"))
    search = _function(SOURCE / "intpoly.py", "monic_irreducible_factors")
    assert "_divisors_signed" not in _names(search)
    assert "_kronecker_factor" in _names(search)
    assert not [loop for loop in _loops(search) if "strip_cyclotomic_factors" in _names(loop)]
    assert not [n for n in ast.walk(search) if isinstance(n, ast.FunctionDef) and n is not search]


def _calls(node, name):
    return [n for n in ast.walk(node) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name) and n.func.id == name]


def test_classify_salem_reads_one_trace_chain():
    # repeated factors and the root layout come off the trace polynomial's
    # one Sturm chain, with no full-degree gcd and no bound for infinity
    classify = _function(SOURCE / "salem.py", "classify_salem")
    assert not {"gcd_poly", "cauchy_root_bound"} & _names(classify)


def test_single_use_helpers_stay_gone():
    # each of these had one caller or none, or repeated the Pollard loop
    intpoly = ast.parse((SOURCE / "intpoly.py").read_text())
    defined = {node.name for node in ast.walk(intpoly) if isinstance(node, ast.FunctionDef)}
    assert not {"_eval_chain", "_pollard_split"} & defined
    poly_class = next(n for n in intpoly.body
                      if isinstance(n, ast.ClassDef) and n.name == "IntPolynomial")
    assert "one" not in {n.name for n in poly_class.body if isinstance(n, ast.FunctionDef)}


def test_structural_signatures_go_through_one_check():
    structural = _function(SOURCE / "k3.py", "_structural_checks")
    assert len(_calls(structural, "_signature_check")) == 4
    assert not {"class_of_signature", "definiteness_witness"} & _names(structural)


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


def test_only_constant_tables_are_cached():
    # a cache that outlives a run lets a benchmark skip work that a user
    # running one input pays for; the only module caches left hold
    # constants: the ambient K3 lattice and the two cyclotomic tables
    cached, references = set(), 0
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                assert "cache" not in {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute) and node.attr in ("cache", "lru_cache"):
                references += 1
            elif isinstance(node, ast.Name) and node.id == "lru_cache":
                references += 1
            elif isinstance(node, ast.FunctionDef):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    if isinstance(target, ast.Name) and target.id == "lru_cache":
                        cached.add(f"{path.stem}.{node.name}")
    assert cached == {"k3.k3_lattice", "intpoly.cyclotomic_polynomial",
                      "intpoly._cyclotomic_indices_up_to_degree"}
    # every reference is one of those decorators: no lru_cache(f) call form
    assert references == len(cached)


_MUTABLE_CALLS = {"dict", "list", "set", "bytearray", "defaultdict", "OrderedDict", "Counter",
                  "deque", "ChainMap", "WeakValueDictionary", "WeakKeyDictionary", "WeakSet"}


def _shared_statements(body):
    """The statements of a module or class body, into if, try and with blocks
    and class bodies, but not into function bodies."""
    for node in body:
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _shared_statements(getattr(node, field, []))


def _is_mutable_container(value) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                ) in _MUTABLE_CALLS
    return False


def test_no_module_level_mutable_state():
    # a container bound at module or class level, or a name rebound through
    # global, outlives an op: a memo there lets a benchmark skip work that a
    # user running one input pays for, and keeps garbage alive until the
    # next op. What lattices and embeddings share lives on those objects
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text())
        found += [f"{path.name}:{node.lineno} global" for node in ast.walk(tree)
                  if isinstance(node, ast.Global)]
        for node in _shared_statements(tree.body):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and \
                    node.value is not None and _is_mutable_container(node.value):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_block_split_runs_the_private_cores():
    # HNF, integer kernel and rank split a matrix by the one component walk
    # of linalg, as the orthogonal summands of a Gram matrix do, and run a
    # private core on each block; no front or helper calls a public front,
    # so a traced front counts one call per caller call;
    # integer_kernel splits in _integer_kernel, its core on nonzero entries,
    # through which orthogonal_complement reads the kept pairing rows
    linalg_src = SOURCE / "linalg.py"
    fronts = {"hermite_normal_form", "integer_kernel", "rational_rank"}
    splits = {"hermite_normal_form": "_hermite", "_integer_kernel": "_bareiss",
              "rational_rank": "_bareiss"}
    assert "_components" in _names(_function(linalg_src, "_blocks"))
    assert "_components" in _names(_function(SOURCE / "lattice.py", "GramLattice.summands"))
    assert "_integer_kernel" in _names(_function(linalg_src, "integer_kernel"))
    assert "_integer_kernel" in _names(_function(SOURCE / "lattice.py", "orthogonal_complement"))
    for split, core in splits.items():
        called = _names(_function(linalg_src, split))
        assert core in called and called & {"_components", "_blocks"}, split
    for name in fronts | {"_integer_kernel", "_components", "_blocks", "_embed", "_hermite",
                          "_bareiss", "saturate"}:
        assert not fronts & _names(_function(linalg_src, name)), name
    # radical widens its summand kernels with the one _embed
    assert "_embed" in _names(_function(SOURCE / "lattice.py", "radical"))
    # summands keeps no search of its own
    summands = _function(SOURCE / "lattice.py", "GramLattice.summands")
    assert not [n for n in ast.walk(summands) if isinstance(n, (ast.For, ast.While))]


def test_k3_pipeline_makes_no_search_and_no_wide_inverse():
    # each build_phi generator is trivial on L*/L, so run_k3 extends it as
    # it is, with no order search and no power; N's radical is completed to
    # a basis by an integer kernel, not by a unimodular inverse
    run = _function(SOURCE / "k3.py", "run_k3")
    assert not {"extension_order", "power"} & _names(run)
    split = _names(_function(SOURCE / "lattice.py", "GramLattice._radical_split"))
    assert "unimodular_inverse" not in split
    assert "integer_kernel" in split


def test_k3_pipeline_builds_transvections_and_multiplies_no_pairs():
    # run_k3 builds each generator on Lambda as an Eichler transvection and
    # reads commutation off each generator's form: neither it nor those
    # helpers reach the projection extension or the pairwise commutator
    k3_src = SOURCE / "k3.py"
    run = _names(_function(k3_src, "run_k3"))
    assert {"eichler_extension", "_commutation_failure"} <= run
    for name in ("run_k3", "eichler_extension", "_transvection", "_commutation_failure"):
        assert not {"_commute", "extend_to_lambda", "_projection"} & _names(
            _function(k3_src, name)), name


def test_one_small_prime_table():
    # the primes to 37 are written once; _factorize splits them off itself,
    # so rho never sees an even number
    intpoly_src = SOURCE / "intpoly.py"
    tree = ast.parse(intpoly_src.read_text())
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    tables = [n for n in ast.walk(tree) if isinstance(n, ast.Tuple)
              and [getattr(e, "value", None) for e in n.elts] == primes]
    assert len(tables) == 1
    assert "_SMALL_PRIMES" in _names(_function(intpoly_src, "_is_probable_prime"))
    assert "_SMALL_PRIMES" in _names(_function(intpoly_src, "_factorize"))
    assert "% 2" not in ast.unparse(_function(intpoly_src, "_pollard_rho"))


def test_one_unipotent_coordinate_reader():
    # parabolic_coordinates and parabolic_group_rank read g(x) - x along the
    # basis completion through the one coefficient reader, with no inverse
    # and no dense product; alpha_map, torelli_certificate and run_k3 read
    # each K3 generator through the one k3 reader, which takes the Torelli
    # facts and the coefficients from the same product, and the readers it
    # replaced are gone; express_in_powers commutes by _commute; short
    # vectors read the congruence run the lattice keeps; no module reads
    # the environment
    parabolic_src, k3_src = SOURCE / "parabolic.py", SOURCE / "k3.py"
    assert not {"unimodular_inverse", "mat_mul"} & _names(ast.parse(parabolic_src.read_text()))
    assert "_radical_coefficients" in _names(_function(parabolic_src, "_coordinates"))
    for name in ("parabolic_coordinates", "parabolic_group_rank"):
        assert "_coordinates" in _names(_function(parabolic_src, name))
    for name in ("alpha_map", "torelli_certificate", "run_k3"):
        assert "_read" in _names(_function(k3_src, name)), name
    reader = _names(_function(k3_src, "_read"))
    assert {"_radical_coefficients", "_sparse_mul", "TorelliCertificate"} <= reader
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text())
        defs = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        gone = {"displacements", "_torelli_read", "_torelli_vectors"}
        assert not gone & (_names(tree) | defs), path.name
    assert "_commute" in _names(_function(SOURCE / "isometry.py", "express_in_powers"))
    vectors = _names(_function(SOURCE / "lattice.py", "vectors_of_norm"))
    assert "_congruence_bareiss" not in vectors and "_congruence" in vectors
    for path in sorted(SOURCE.glob("*.py")):
        assert not {"os", "environ", "getenv"} & _names(ast.parse(path.read_text())), path.name
