"""Guards on the package source itself."""

import ast
import importlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "glomega"


def _imported(tree):
    """(name bound, line) for every import outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _read(tree):
    """Every name the module reads, quoted annotations such as -> "UElement" included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return names


def test_every_import_is_read():
    # __init__.py imports to re-export; every other module must use what it imports
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = _read(tree)
        unused += ["%s:%d %s" % (path.name, line, name) for name, line in _imported(tree) if name not in read]
    assert unused == []


def test_every_parameter_is_read():
    # a parameter no body reads is dead weight at every call site; self, cls
    # and _-prefixed names are exempt, and a nested function's read counts
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            unread += [
                "%s:%d %s(%s)" % (path.name, node.lineno, getattr(node, "name", "lambda"), p)
                for p in params
                if p not in read and p not in ("self", "cls") and not p.startswith("_")
            ]
    assert unread == []


def test_suites_bind_no_closure_by_default_arguments():
    # a suite's thunk runs before the suite resumes, so it reads its loop variables late
    tree = ast.parse((SRC / "suites.py").read_text())
    bound = set()
    for outer in ast.walk(tree):
        if isinstance(outer, ast.FunctionDef):
            for node in ast.walk(outer):
                if node is not outer and isinstance(node, (ast.FunctionDef, ast.Lambda)):
                    if node.args.defaults or any(d is not None for d in node.args.kw_defaults):
                        bound.add(node.lineno)
    assert sorted(bound) == []


def _raised_names(tree):
    """(name, line) of every ``raise Name(...)`` or ``raise Name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id, node.lineno


def test_one_stabilization_rule():
    # a multi-size verdict goes through enveloping.stable, the one function
    # that raises StabilizationError, and a report gets not-stabilized only
    # from the runner's except StabilizationError
    suites = ast.parse((SRC / "suites.py").read_text())
    defined = {n.name for n in ast.walk(suites) if isinstance(n, ast.FunctionDef)}
    assert "_stable" not in defined
    literal = [
        "%s:%d" % (fn.name, node.lineno)
        for fn in suites.body
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_suite_")
        for node in ast.walk(fn)
        if isinstance(node, ast.Constant) and node.value == "not-stabilized"
    ]
    assert literal == []
    raisers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defs = list(_definitions(path, tree))
        raisers += [_owner(path, defs, line) for exc, line in _raised_names(tree) if exc == "StabilizationError"]
    assert raisers == ["enveloping.stable"]
    omega = ast.parse((SRC / "omega.py").read_text())
    assert "stable" not in {n.name for n in omega.body if isinstance(n, ast.FunctionDef)}


def _owner(path, defs, line):
    """The innermost function around a line, or the line itself at module level."""
    owners = [(first, qualified) for qualified, _name, first, last in defs if first <= line <= last]
    return max(owners)[1] if owners else "%s:%d" % (path.name, line)


_MUTATORS = {"setdefault", "update", "pop", "popitem", "clear", "__setitem__", "__delitem__"}


def _attribute_writes(tree, attr):
    """Lines that assign, mutate or delete ``x.<attr>`` or one of its entries."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == attr and not isinstance(node.ctx, ast.Load):
            yield node.lineno
        elif isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
            if getattr(node.value, "attr", None) == attr:
                yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr in _MUTATORS:
            if getattr(node.value, "attr", None) == attr:
                yield node.lineno


def test_one_generator_table():
    # a context keys its generators once, when it is built, and holds one
    # object per generator from then on; sort_key alone rejects a generator
    # out of range, and normal_form alone calls it only to check a word, so
    # neither a lazy key cache nor the checks around it return
    raisers, writers, checkers = [], [], []
    gen_writers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defs = list(_definitions(path, tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                texts = [n.value for n in ast.walk(node) if isinstance(n, ast.Constant) and isinstance(n.value, str)]
                if any("generator" in t and "out of range" in t for t in texts):
                    raisers.append(_owner(path, defs, node.lineno))
            elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                if getattr(node.value.func, "attr", None) == "sort_key":  # a lookup whose key is thrown away
                    checkers.append(_owner(path, defs, node.lineno))
        writers += [_owner(path, defs, line) for line in _attribute_writes(tree, "_keys")]
        gen_writers += [_owner(path, defs, line) for line in _attribute_writes(tree, "_gen")]
    assert raisers == ["Enveloping.sort_key"]
    assert sorted(set(writers)) == ["Enveloping.__init__"]
    assert sorted(set(gen_writers)) == ["Enveloping.__init__"]
    assert checkers == ["Enveloping.normal_form"]


def _self_stores(fn):
    """The attribute names ``fn`` assigns on ``self``, in any target form."""
    return {
        node.attr
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) and getattr(node.value, "id", None) == "self"
    }


def test_context_caches_are_declared_on_enveloping():
    # a context's state is listed in one place, Enveloping.__init__: no
    # Enveloping method assigns a self attribute that is not declared there,
    # and a module that keeps a cache on a context reads it as ctx._name,
    # a declared name, so none is added to it lazily from outside
    tree = ast.parse((SRC / "enveloping.py").read_text())
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Enveloping"]
    methods = [n for n in cls.body if isinstance(n, ast.FunctionDef)]
    (init,) = [fn for fn in methods if fn.name == "__init__"]
    declared = _self_stores(init)
    stored = {}
    for fn in methods:
        if fn is not init:
            for name in _self_stores(fn):
                stored.setdefault(name, []).append(fn.name)
    assert stored["_field"] == ["top_commutator"]
    assert {name: fns for name, fns in stored.items() if name not in declared} == {}
    read = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "enveloping.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "ctx" and node.attr.startswith("_"):
                read.setdefault(node.attr, []).append("%s:%d" % (path.name, node.lineno))
    assert {"_y_eval_cache", "_symbol_solvers", "_trace"} <= set(read)
    assert {name: lines for name, lines in read.items() if name not in declared} == {}


def _fail_returns_in_loops(node, fn=None, in_loop=False):
    """(function, line) of every ``return "fail", ...`` inside a loop of that function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.Lambda)):
            yield from _fail_returns_in_loops(child, getattr(child, "name", "<lambda>"))
            continue
        value = child.value if isinstance(child, ast.Return) else None
        if in_loop and isinstance(value, ast.Tuple) and value.elts:
            first = value.elts[0]
            if isinstance(first, ast.Constant) and first.value == "fail":
                yield fn, child.lineno
        yield from _fail_returns_in_loops(child, fn, in_loop or isinstance(child, (ast.For, ast.While)))


def test_one_counterexample_search():
    # a grid check scans its cases through suites._search, which reports the
    # first failing case; no thunk writes that loop again
    found = list(_fail_returns_in_loops(ast.parse((SRC / "suites.py").read_text())))
    assert [fn for fn, _line in found] == ["_search"], found


def test_current_suite_draws_nothing_at_random():
    # current.jacobi_sampled scans every triple, so no current record depends on the seed
    tree = ast.parse((SRC / "suites.py").read_text())
    (suite,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_suite_current"]
    reads = [
        "%d %s" % (node.lineno, name)
        for node in ast.walk(suite)
        for name in [getattr(node, "id", getattr(node, "attr", None))]
        if name in ("random", "Random", "seed")
    ]
    assert reads == []


def test_one_dependency_rule():
    # a dependency is confirmed through enveloping.stable, and yangian row-reduces
    # every span of monomial columns in one loop
    literals = [
        "%s:%d %s" % (path.name, node.lineno, node.value)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant)
        and (
            node.value == "dependency_status"
            or node.value in ("not-stabilized", "ambiguous") and path.name != "suites.py"
        )
    ]
    assert literals == []
    yangian = ast.parse((SRC / "yangian.py").read_text())
    builders = [
        fn.name
        for fn in ast.walk(yangian)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "SpanSolver"
    ]
    assert builders == ["_span"]


_CACHE_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "WeakValueDictionary", "lru_cache", "cache"}


def _cache_like(node):
    """A container display, or a name or call of a container or memo decorator."""
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        node = node.func
    return getattr(node, "id", getattr(node, "attr", None)) in _CACHE_CALLS


def test_double_bracket_memo_lives_in_one_check():
    # _brackets memoizes the double brackets of one table in a local dict of
    # its closure, shared by that table's law checks and dropped with them; a
    # cache on the module, a class or the table would outlive the table and
    # hold every bracket of the run
    tree = ast.parse((SRC / "doublepoisson.py").read_text())
    held = []
    for scope in [tree] + [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
        for node in scope.body:  # module and class attributes
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None and _cache_like(node.value):
                held.append("%d attribute" % node.lineno)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            held.append("%d global" % node.lineno)
        elif isinstance(node, ast.Assign) and _cache_like(node.value):
            # state stored on an object, such as the table, outlives the check
            held += ["%d on an object" % node.lineno for t in node.targets if isinstance(t, ast.Attribute)]
        elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
            defaults = node.args.defaults + [d for d in node.args.kw_defaults if d is not None]
            held += ["%d default" % node.lineno for d in defaults if _cache_like(d)]
            decorators = getattr(node, "decorator_list", [])
            held += ["%d decorator" % node.lineno for d in decorators if _cache_like(d)]
    assert held == []


def _calls_double_bracket(node):
    return any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "double_bracket" for n in ast.walk(node))


def _bracket_stores(fn):
    """Lines of ``fn`` that keep a ``double_bracket`` result in a container."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            kept = any(isinstance(t, ast.Subscript) for t in node.targets) and _calls_double_bracket(node.value)
        elif isinstance(node, ast.DictComp):
            kept = _calls_double_bracket(node.key) or _calls_double_bracket(node.value)
        elif isinstance(node, (ast.ListComp, ast.SetComp)):
            kept = _calls_double_bracket(node.elt)
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in _MUTATORS | {"append", "add", "extend", "insert"}:
            kept = any(_calls_double_bracket(a) for a in node.args)
        else:
            continue
        if kept:
            yield node.lineno


def test_one_double_bracket_memo():
    # skew, Leibniz and double Jacobi read their brackets through _brackets,
    # the one function that keeps a double_bracket result (one memo per
    # table, shared by the three); no eager table or second memo stands
    # beside it
    defined, storing = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined |= {"%s.%s" % (path.stem, n.name) for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        storing |= {"%s.%s" % (path.stem, fn.name) for fn in tree.body if isinstance(fn, ast.FunctionDef) and any(_bracket_stores(fn))}
    assert defined.isdisjoint({"doublepoisson._bracket_table", "doublepoisson._scanned_words"})
    assert storing == {"doublepoisson._brackets"}


def _assigned(tree, name):
    """The literal value assigned to a module-level ``name``."""
    for node in tree.body:
        targets = [node.target] if isinstance(node, ast.AnnAssign) else getattr(node, "targets", [])
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return ast.literal_eval(node.value)
    raise AssertionError("%s is not assigned" % name)


def test_one_version_constant():
    # suites.VERSION is hashed into every fingerprint; the package version is
    # that constant, not a second literal that could drift from it
    import glomega
    from glomega import suites

    literals = []
    for node in ast.walk(ast.parse((SRC / "__init__.py").read_text())):
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Constant):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            literals += [node.lineno for t in targets if getattr(t, "id", None) == "__version__"]
    assert literals == []
    assert glomega.__version__ is suites.VERSION


def test_every_benchmark_entry_point_resolves():
    # the benchmark tracer wraps these names; one that is deleted or renamed
    # must fail here, resolved the way Tracer.install resolves it
    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    package, entry_points = _assigned(tracer, "PACKAGE"), _assigned(tracer, "ENTRY_POINTS")
    assert entry_points
    missing = []
    for layer, target, _workload in entry_points:
        module = importlib.import_module("%s.%s" % (package, layer))
        if "." in target:
            cls_name, attr = target.split(".")
            cls = getattr(module, cls_name, None)
            found = isinstance(cls, type) and attr in vars(cls)
        else:
            found = callable(getattr(module, target, None))
        if not found:
            missing.append("%s.%s" % (layer, target))
    assert missing == []


# Functions and methods that no code in src/ or demos/, and no benchmark entry
# point, calls, or that only such functions call: each is kept for a test,
# with the reason.
_CALLED_ONLY_BY_TESTS = {
    "Enveloping.normal_form_random": "the random-order reference of the confluence tests",
    "Enveloping.is_in_centralizer": "the one check that t-elements lie in the centralizer",
    "Enveloping.invariant_basis": "the one check that computed invariants lie in the centralizer",
    "doublepoisson.poisson_smd": "the Poisson-structure tests on matrix symbols",
    "omega.save_algebra": "the README's file round-trip",
    "Enveloping.ideal_intersection_check": "waits on a suite record (ROADMAP item 6)",
    "yangian.shift_automorphism_check": "waits on a suite record (ROADMAP item 6)",
    "linalg.kernel_basis": "invariant_basis solves its constraints with it",
    "linalg.rref": "ideal_intersection_check reduces each ideal's invariant part with it; tests compare spans by it",
}


def _definitions(path, tree):
    """(qualified name, bare name, first line, last line) of every function and method."""
    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield "%s.%s" % (prefix, child.name), child.name, child.lineno, child.end_lineno
                yield from visit(child, prefix)
            else:
                yield from visit(child, prefix)

    return visit(tree, path.stem)


def _name_reads(tree):
    """(name, line, through an attribute) of every name or attribute read; a docstring is no read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno, True


def test_no_function_is_called_only_by_tests():
    # a new helper that only tests call fails here until it is listed with a
    # reason; so does one that only such helpers call, and a def nested in a
    # listed function goes with it.  A method is read only through an
    # attribute, so a local variable of the same name does not hide it.
    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    reads = [(None, target.split(".")[-1], 0, True) for _layer, target, _w in _assigned(tracer, "ENTRY_POINTS")]
    trees = {}
    for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "demos").glob("*.py")):
        trees[path] = ast.parse(path.read_text())
        reads += [(path, name, line, attr) for name, line, attr in _name_reads(trees[path])]
    methods = {
        (path, fn.lineno)
        for path in sorted(SRC.glob("*.py"))
        for cls in ast.walk(trees[path])
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    defs = [
        (path, qualified, name, first, last, (path, first) in methods)
        for path in sorted(SRC.glob("*.py"))
        for qualified, name, first, last in _definitions(path, trees[path])
        if not (name.startswith("__") and name.endswith("__"))
    ]
    listed = []  # (path, first, last) of the functions found so far

    def inside(path, line):
        return any(p == path and first <= line <= last for p, first, last in listed)

    unread = []
    grew = True
    while grew:
        grew = False
        for path, qualified, name, first, last, method in defs:
            if qualified in unread or inside(path, first):
                continue
            if not any(
                n == name and (attr or not method) and (p != path or not first <= line <= last) and not inside(p, line)
                for p, n, line, attr in reads
            ):
                unread.append(qualified)
                listed.append((path, first, last))
                grew = True
    assert sorted(unread) == sorted(_CALLED_ONLY_BY_TESTS)


# The classes of the package; every other value is a plain tuple or dict.
_CLASSES = {
    "AlgebraSpec",
    "Enveloping",
    "UElement",
    "SpanSolver",
    "SuiteConfig",
    "CheckRecord",
    "Report",
    "StructureError",
    "StabilizationError",
}


def test_only_the_listed_classes_are_defined():
    defined = [
        (node.name, "%s:%d" % (path.name, node.lineno))
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
    ]
    assert sorted(name for name, _where in defined) == sorted(_CLASSES), defined
