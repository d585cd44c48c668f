"""Guards on the package source itself."""

import ast
import importlib
import pathlib
import re
import types

import pytest

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


def _raisers(message):
    """The owner of every ``raise`` whose exception holds a string with ``message`` in it."""
    raisers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defs = list(_definitions(path, tree))
        raisers += [
            _owner(path, defs, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Raise) and node.exc is not None
            for text in ast.walk(node.exc)
            if isinstance(text, ast.Constant) and message in str(text.value)
        ]
    return raisers


def test_one_letter_rule():
    # a letter is a basis index 0..dim-1: omega.check_letters is the one place
    # that says so, and every layer that takes letters calls it
    assert _raisers("letters must lie in") == ["omega.check_letters"]


def test_one_word_rule():
    # a generator, symbol, current or necklace is indexed by a nonempty word:
    # words.nonempty is the one place that says so, and every layer that
    # takes such a word calls it
    assert _raisers("nonempty") == ["words.nonempty"]


def test_one_int_rule():
    # a size, a cap, a grade or a 1-based matrix index is an int, not a bool,
    # in its range: omega.check_int is the one place that says so, and no
    # module keeps an _is_int of its own to make a second rule from
    assert _raisers("must be an integer") == ["omega.check_int"]
    assert [path.stem for path in sorted(SRC.glob("*.py")) if "_is_int" in path.read_text()] == []


def test_one_label_rule():
    # a label (i, j, word) has 1-based int indices, a nonempty word and
    # letters in the table: words.check_label is the one place that says so.
    # Two places check matrix indices themselves: poisson_pgen, since a
    # symbol label may hold the empty word (p_ab(()) is delta_ab), and t_gen,
    # whose label meets no table until it is evaluated
    callers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defs = list(_definitions(path, tree))
        callers += [
            _owner(path, defs, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "check_int"
            and getattr(node.args[0], "value", None) == "matrix index"
        ]
    assert callers == ["doublepoisson.poisson_pgen", "words.check_label", "yangian.t_gen"]
    assert [path.stem for path in sorted(SRC.glob("*.py")) if "generator index" in path.read_text()] == []


def test_one_bracket_memo_owner_rule():
    # a bracket memo serves one table: omega.pair_memo is the one place that
    # builds one and refuses another table's, and only the double and the
    # current suites' _brackets call it
    assert _raisers("serves only the table it was built for") == ["omega.pair_memo"]
    callers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defs = list(_definitions(path, tree))
        callers += [
            _owner(path, defs, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and "pair_memo" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        ]
    assert sorted(callers) == ["current._brackets", "doublepoisson._brackets"]


def test_a_table_owns_only_its_contexts_and_coagulations():
    from glomega.omega import AlgebraSpec

    assert AlgebraSpec.__slots__ == ("dim", "basis", "table", "name", "contexts", "coagulations")


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
    # out of range, and only normal_form, on a memo miss, the public UElement
    # constructor, whose word a memo hit would pass unchecked, and the public
    # commutator_terms, whose memo a bool part would hit, call it just to
    # check a generator, so neither a lazy key cache nor the checks around
    # it return.  normal_form calls it twice: for a word that is not
    # hashable, and for a generator that is not the context's own object.
    # The package's own words are sorted by Enveloping._sorted and bracketed
    # by Enveloping._bracket, which check nothing (see _UNCHECKED), so no
    # sort reads sort_key
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
            elif isinstance(node, ast.keyword) and node.arg == "key" and getattr(node.value, "attr", None) == "sort_key":
                checkers.append(_owner(path, defs, node.value.lineno))
        writers += [_owner(path, defs, line) for line in _attribute_writes(tree, "_keys")]
        gen_writers += [_owner(path, defs, line) for line in _attribute_writes(tree, "_gen")]
    assert raisers == ["Enveloping.sort_key"]
    assert sorted(set(writers)) == ["Enveloping.__init__"]
    assert sorted(set(gen_writers)) == ["Enveloping.__init__"]
    assert sorted(checkers) == [
        "Enveloping.commutator_terms",
        "Enveloping.commutator_terms",
        "Enveloping.normal_form",
        "Enveloping.normal_form",
        "UElement.__init__",
    ]


def _self_stores(fn):
    """The attribute names ``fn`` assigns on ``self``, in any target form."""
    return {
        node.attr
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) and getattr(node.value, "id", None) == "self"
    }


# Each cache that Enveloping.__init__ declares, with what dropping it cost
# (BENCH_memo_audit.json, drop-one, in process): a new cache fails
# test_context_caches_are_declared_on_enveloping until it is listed here
# with a measured reason.
_CONTEXT_CACHES = {
    "_nf": "the PBW normal-form memo: without it every word walks its rewriting chain again (not dropped)",
    "_comm": "omega run all +5.2%",
    "_e": "omega run all +6.7%",
    "_e_top": "omega run all +5.1%, omega run symbols +24.5%",
    "_trace": "omega run all +9.8%",
    "_t": "omega run all +19.1%",
    "_symbol_solvers": "omega run all +108.1%",
    "_field": "omega run symbols about +35% (ROADMAP item 7)",
}


def test_context_caches_are_declared_on_enveloping():
    # a context's state is listed in one place, Enveloping.__init__: no
    # Enveloping method assigns a self attribute that is not declared there,
    # every declared name but the table, the size and the PBW order is a
    # cache listed in _CONTEXT_CACHES, and a module that keeps a cache on a
    # context reads it as ctx._name, a declared name, so none is added to it
    # lazily from outside.  A private method, one of the unchecked paths of
    # _UNCHECKED, is no cache: test_unchecked_paths_have_only_their_callers
    # lists who may read it
    tree = ast.parse((SRC / "enveloping.py").read_text())
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Enveloping"]
    methods = [n for n in cls.body if isinstance(n, ast.FunctionDef)]
    method_names = {fn.name for fn in methods}
    (init,) = [fn for fn in methods if fn.name == "__init__"]
    declared = _self_stores(init)
    stored = {}
    for fn in methods:
        if fn is not init:
            for name in _self_stores(fn):
                stored.setdefault(name, []).append(fn.name)
    assert stored["_field"] == ["empty_caches", "top_commutator"]
    assert declared - {"omega", "n", "_keys", "gens", "_gen"} == set(_CONTEXT_CACHES)
    assert {name: fns for name, fns in stored.items() if name not in declared} == {}
    read = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "enveloping.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "ctx" and node.attr.startswith("_"):
                if node.attr in method_names:
                    continue
                read.setdefault(node.attr, []).append("%s:%d" % (path.name, node.lineno))
    assert {name: lines for name, lines in read.items() if name not in declared} == {}
    assert set(read) == {"_symbol_solvers", "_trace"}


# The unchecked private paths, each with the functions allowed to read it.
# A public entry point checks its input and then calls its path; the hot
# loops of the package call the path directly, with labels, generators and
# keys that they built or have just checked.  Each path is read only by the
# functions listed here, and no test or demo calls one: a test reaches it
# through its public twin, or replaces it to plant a fault.
_UNCHECKED = {
    # the bracket of two generators: the public twin is commutator_terms
    "Enveloping._bracket": [
        "Enveloping.commutator",
        "Enveloping.commutator_terms",
        "Enveloping.normal_form",
        "Enveloping.top_commutator",
    ],
    # the PBW sort of the context's own words; sort_key is the checked key
    "Enveloping._sorted": ["Enveloping.e_top", "yangian._symbol_column"],
    "Enveloping._mono_weight": [
        "Enveloping._torus_zero_monomials",
        "Enveloping.ideal_intersection_check",
        "Enveloping.mono_weight",
        "yangian._weight",
    ],
    # _t_elem passes its label's i, j and the table's coagulated words
    "Enveloping._e_elem": ["Enveloping._t_elem", "Enveloping.e_elem"],
    "Enveloping._t_elem": ["Enveloping.reparametrize_check", "Enveloping.t_elem"],
    # compute is the miss of current._brackets, whose keys are basis keys
    "current._current_bracket": ["current.compute", "current.gl_current_bracket"],
    "current._jacobi_sum": ["current.check_current_jacobi", "current.current_jacobi_sum"],
    "current._junction": ["current._current_bracket", "current.odot", "current.odot_words"],
}


def _unchecked_reads(text, path):
    """(owner, name, called) of every read of an unchecked path's bare name; ``called`` if the read is a call's callee."""
    bare = {qualified.split(".")[-1] for qualified in _UNCHECKED}
    tree = ast.parse(text)
    defs = list(_definitions(path, tree))
    callees = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        if name in bare and isinstance(node.ctx, ast.Load):
            yield _owner(path, defs, node.lineno), name, id(node) in callees


def test_unchecked_paths_have_only_their_callers():
    # each unchecked path exists, is read by exactly its listed functions,
    # and is called by no test or demo
    from glomega import current
    from glomega.enveloping import Enveloping

    found = {}
    for path in sorted(SRC.glob("*.py")):
        for owner, name, _called in _unchecked_reads(path.read_text(), path):
            found.setdefault(name, set()).add(owner)
    assert found == {qualified.split(".")[-1]: set(owners) for qualified, owners in _UNCHECKED.items()}
    holders = {"Enveloping": Enveloping, "current": current}
    for qualified in _UNCHECKED:
        holder, name = qualified.split(".")
        assert callable(getattr(holders[holder], name)), qualified
    called = [
        "%s %s" % (path.relative_to(ROOT).as_posix(), name)
        for top in ("tests", "demos")
        for path in sorted((ROOT / top).glob("*.py"))
        for _who, name, is_call in _unchecked_reads(path.read_text(), path)
        if is_call
    ]
    assert called == []


def test_a_new_caller_of_an_unchecked_path_fails():
    # a public function that bypasses its own check, and a test that calls
    # a path directly, are both seen
    text = (SRC / "current.py").read_text() + """
def planted_scan(spec, a, b):
    return _current_bracket(spec, a, b)
"""
    owners = {owner for owner, name, _called in _unchecked_reads(text, SRC / "current.py") if name == "_current_bracket"}
    assert "current.planted_scan" in owners
    planted_test = "def test_x(ctx):\n    assert ctx._bracket((1, 1, 0), (1, 1, 0)) == ()\n"
    calls = [name for _who, name, called in _unchecked_reads(planted_test, ROOT / "tests" / "test_planted.py") if called]
    assert calls == ["_bracket"]


def test_evaluate_keeps_no_memo():
    # s is given at evaluation, and t_elem's memo is the one keyed by it;
    # a memo of evaluated monomials keyed without s passed omega run all
    tree = ast.parse((SRC / "yangian.py").read_text())
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "evaluate"]
    stores = [n.lineno for n in ast.walk(fn) if isinstance(n, ast.Subscript) and not isinstance(n.ctx, ast.Load)]
    stores += [n.lineno for n in ast.walk(fn) if isinstance(n, ast.Attribute) and n.attr in _MUTATORS]
    reads = [n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute) and n.attr.startswith("_")]
    assert (stores, reads) == ([], [])


def test_only_run_suite_empties_context_caches():
    # caches are emptied between suites only: emptied inside a suite, work
    # its checks share would silently be done again
    refs = [
        (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "empty_caches"
    ]
    tree = ast.parse((SRC / "suites.py").read_text())
    (run_suite,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "run_suite"]
    assert [(name, run_suite.lineno <= line <= run_suite.end_lineno) for name, line in refs] == [("suites.py", True)]


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
    # omega.pair_memo keeps the brackets of one table in a local dict of its
    # closure, shared by that table's law checks and dropped with them; a
    # cache on the module, a class or the table would outlive the table and
    # hold every bracket of the run.  Neither suite's _brackets holds one of
    # its own.
    for module in ("omega.py", "doublepoisson.py", "current.py"):
        assert _held_caches(ast.parse((SRC / module).read_text())) == [], module


def _held_caches(tree):
    """Lines of a module that keep a container beyond one call: attributes, globals, defaults."""
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
    return held


# the two brackets the suites memoize, the unchecked path of the current
# one, and the compute through which omega.pair_memo reaches either of them
_BRACKET_CALLS = {"double_bracket", "gl_current_bracket", "_current_bracket", "compute"}


def _calls_double_bracket(node):
    return any(isinstance(n, ast.Call) and getattr(n.func, "id", None) in _BRACKET_CALLS for n in ast.walk(node))


def _bracket_stores(fn):
    """Lines of ``fn`` that keep a result of one of ``_BRACKET_CALLS`` in a container."""
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


def _bracket_keepers(sources):
    """The top-level functions of ``{module: source}`` that keep a bracket result."""
    return {
        "%s.%s" % (module, fn.name)
        for module, text in sources.items()
        for fn in ast.parse(text).body
        if isinstance(fn, ast.FunctionDef) and any(_bracket_stores(fn))
    }


# a second memo of each bracket, written beside the one in omega.pair_memo
_PLANTED_MEMOS = {
    "doublepoisson": """
def _table(spec, words):
    return {(x, y): double_bracket(spec, x, y) for x in words for y in words}
""",
    "current": """
def _table(spec, keys):
    memo = {}
    for a in keys:
        for b in keys:
            memo[a, b] = gl_current_bracket(spec, {a: 1}, {b: 1})
    return memo
""",
}


def test_one_double_bracket_memo():
    # the double and the current suites read their brackets through the two
    # _brackets, and omega.pair_memo, which both call, is the one function
    # that keeps a double_bracket or gl_current_bracket result (one memo per
    # table); no eager table or second memo stands beside it
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    defined = {
        "%s.%s" % (module, n.name)
        for module, text in sources.items()
        for n in ast.walk(ast.parse(text))
        if isinstance(n, ast.FunctionDef)
    }
    assert defined.isdisjoint({"doublepoisson._bracket_table", "doublepoisson._scanned_words", "current._memo"})
    assert _bracket_keepers(sources) == {"omega.pair_memo"}
    for module, planted in _PLANTED_MEMOS.items():
        found = _bracket_keepers({**sources, module: sources[module] + planted})
        assert found == {"omega.pair_memo", module + "._table"}, module


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
    # the distribution's version is read from the same constant at build time
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert 'dynamic = ["version"]' in pyproject
    assert 'version = {attr = "glomega.suites.VERSION"}' in pyproject
    assert not re.search(r'^version\s*=\s*"', pyproject, re.M)


# the package's names, by the layer that defines each; yangian and current
# load on first use, so their names are read through the package's __getattr__
_PUBLIC = {
    "omega": (
        "AlgebraSpec",
        "StabilizationError",
        "StructureError",
        "as_scalar",
        "check_associativity",
        "detect_unit",
        "direct_sum_C",
        "from_dict",
        "load_algebra",
        "matrix_algebra",
        "multiply",
        "nonassoc_witness",
        "null_algebra",
        "save_algebra",
        "to_dict",
    ),
    "enveloping": ("Enveloping", "UElement"),
    "yangian": (
        "independence_check",
        "necklace_count",
        "pbw_monomials",
        "pbw_suite",
        "splitting_expected",
        "splitting_probe",
        "t_gen",
    ),
    "doublepoisson": (
        "check_double_jacobi",
        "check_leibniz",
        "check_letter_bracket",
        "check_skew",
        "double_bracket",
        "poisson_pgen",
        "poisson_stc",
        "pvdw_equivalence",
        "symbol_match_smd",
        "symbol_match_stc",
        "trace_bracket",
    ),
    "current": (
        "bimodule_iso_check",
        "degeneration_check",
        "gl_current_bracket",
        "graded_dim",
        "odot_words",
        "path_algebra_iso_check",
    ),
}


def test_each_package_name_is_its_layers_object():
    import glomega

    public = {name for names in _PUBLIC.values() for name in names}
    listed = {
        name
        for name in dir(glomega)
        if not name.startswith("_") and not isinstance(getattr(glomega, name), types.ModuleType)
    }
    assert listed == public
    for layer, names in _PUBLIC.items():
        module = importlib.import_module("glomega." + layer)
        for name in names:
            assert getattr(glomega, name) is getattr(module, name), name
    from glomega import suites, t_gen

    assert t_gen is glomega.yangian.t_gen
    assert suites is importlib.import_module("glomega.suites")
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        glomega.no_such_name


def test_a_name_patched_in_its_layer_shows_through_the_package(monkeypatch):
    import glomega
    from glomega import current, yangian

    monkeypatch.setattr(yangian, "t_gen", lambda *args: "patched")
    monkeypatch.setattr(current, "graded_dim", lambda *args: "patched")
    assert glomega.t_gen() == glomega.graded_dim() == "patched"


_HEX64 = re.compile(r"(?<![0-9a-fA-F])[0-9a-f]{64}(?![0-9a-fA-F])")


def _repeated_hex_literals(root):
    """Each 64-hex literal written more than once in the ``*.py`` files of ``src/``, ``tests/`` and ``perfbench/``, with its places."""
    places = {}
    for top in ("src", "tests", "perfbench"):
        for path in sorted((root / top).rglob("*.py")):
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                for literal in _HEX64.findall(line):
                    places.setdefault(literal, []).append("%s:%d" % (path.relative_to(root).as_posix(), lineno))
    return {literal: where for literal, where in places.items() if len(where) > 1}


def test_each_fingerprint_is_written_once():
    # a pin changed on purpose is edited in one place: the benchmark workloads'
    # in perfbench/run.py::BASELINE_FINGERPRINTS, every other in test_suites._PINNED
    assert _repeated_hex_literals(ROOT) == {}


def test_a_second_copy_of_a_fingerprint_fails(tmp_path, baseline_fingerprints):
    # the benchmark's pins, and a test that keeps its own copy of the anchor
    anchor = baseline_fingerprints["full-run"]
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text((ROOT / "perfbench" / "run.py").read_text())
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_planted.py").write_text("ANCHOR = %r\n" % anchor)
    repeated = _repeated_hex_literals(tmp_path)
    assert list(repeated) == [anchor]
    assert [where.split(":")[0] for where in repeated[anchor]] == ["tests/test_planted.py", "perfbench/run.py"]


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
    "linalg.kernel_basis": "invariant_basis solves its constraints with it",
    "linalg.rref": "ideal_intersection_check reduces each ideal's invariant part with it; tests compare spans by it",
    "Enveloping.mono_weight": "the checked torus weight of any monomial; the package reads Enveloping._mono_weight",
    "Enveloping.commutator_terms": "the checked bracket of two generators; the package reads Enveloping._bracket",
    "current.current_jacobi_sum": "the checked Jacobi sum of any three currents; the scan sums basis keys by current._jacobi_sum",
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
