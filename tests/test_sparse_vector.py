"""The vector laws of the element class, and the one place they are written."""

import ast
import pathlib
from fractions import Fraction

import pytest

import glomega
from glomega import Enveloping, StructureError, UElement, direct_sum_C

SPEC = direct_sum_C(2)
OTHER = direct_sum_C(2)  # equal content, a different owner
K1, K2 = ((1, 1, 0),), ((2, 1, 1), (1, 2, 0))  # two distinct monomials in canonical (PBW) form at N = 2


def _make(terms, spec=SPEC):
    return UElement(Enveloping.get(spec, 2), terms)


def test_vector_laws():
    a = _make({K1: 2, K2: Fraction(-1, 3)})
    assert a.terms == {K1: 2, K2: Fraction(-1, 3)}  # canonical keys are their own normal forms
    b = _make({K1: Fraction(5, 2)})
    zero = _make({})
    assert a + b - b == a
    assert (a - a).is_zero()
    assert a - a == zero
    assert a.scale(-1).scale(-1) == a
    assert (a + a.scale(-1)).is_zero()
    assert a.scale(0).is_zero()
    assert a.scale("1/2") == _make({K1: 1, K2: Fraction(-1, 6)})
    assert b.scale(2) == _make({K1: 5})
    same = _make({K2: Fraction(-2, 6), K1: Fraction(4, 2)})
    assert a == same and a is not same
    assert a != b and a != zero
    with pytest.raises(TypeError):
        hash(a)  # terms is a dict, so an element is unhashable
    assert (a + b).is_zero() is False and zero.is_zero()
    # an integral sum of two Fractions is stored as an int
    half = _make({K1: Fraction(1, 2)})
    total = (half + half).terms[K1]
    assert total == 1 and type(total) is int
    with pytest.raises(StructureError):
        a + _make({K1: 1}, OTHER)
    assert a != _make(a.terms, OTHER)


def test_public_constructor_reads_each_key_as_a_product():
    # at N = 2 the PBW order puts E21 before E12, so E12 E21 = E21 E12 + E11 - E22
    ctx = Enveloping.get(direct_sum_C(1), 2)
    e12, e21 = ctx.gen(1, 2), ctx.gen(2, 1)
    assert UElement(ctx, {((1, 2, 0), (2, 1, 0)): 1}) == ctx.multiply(e12, e21)
    assert ctx.multiply(e12, e21).terms == {((2, 1, 0), (1, 2, 0)): 1, ((1, 1, 0),): 1, ((2, 2, 0),): -1}
    assert UElement(ctx, {((1, 2, 0), (2, 1, 0)): 1, ((1, 1, 0),): -1, ((2, 2, 0),): 1}) == ctx.multiply(e21, e12)
    assert UElement(ctx, {((1, 2, 0), (2, 1, 0)): 1, ((2, 1, 0), (1, 2, 0)): -1}) == ctx.commutator(e12, e21)


@pytest.mark.parametrize("gen", [(9, 9, 0), (1, 3, 0), (0, 1, 0), (1, 1, 1)])
def test_public_constructor_refuses_a_generator_out_of_range(gen):
    # N = 2 over C: indices run over 1..2 and letters over 0..0, in a word of any length
    ctx = Enveloping.get(direct_sum_C(1), 2)
    for mono in ((gen,), ((1, 1, 0), gen), (gen, (2, 2, 0))):
        with pytest.raises(StructureError):
            UElement(ctx, {mono: 1})
    with pytest.raises(StructureError):
        ctx.gen(*gen)


_CORE_METHODS = {"__add__", "__sub__", "scale", "is_zero", "__eq__"}


def _sources():
    src = pathlib.Path(glomega.__file__).parent
    return [(path.name, ast.parse(path.read_text())) for path in sorted(src.glob("*.py"))]


def test_vector_arithmetic_is_written_once():
    where = []
    for fname, tree in _sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    names = [item.name] if isinstance(item, ast.FunctionDef) else [
                        t.id for t in getattr(item, "targets", []) if isinstance(t, ast.Name)
                    ]
                    where += [(fname, node.name, n) for n in names if n in _CORE_METHODS]
            elif isinstance(node, ast.FunctionDef) and node.name in ("_acc", "vec_add"):
                assert fname == "omega.py", "%s defines %s" % (fname, node.name)
    assert sorted(where) == sorted(("enveloping.py", "UElement", n) for n in _CORE_METHODS)


def _accumulations(tree):
    """Lines of ``d.get(k, 0)`` added to or subtracted from, also through an alias ``get = d.get``."""
    aliases = {
        t.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and getattr(node.value, "attr", None) == "get"
        for t in node.targets
        if isinstance(t, ast.Name)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.left, ast.Call):
            func, args = node.left.func, node.left.args
            if (
                (getattr(func, "attr", None) == "get" or getattr(func, "id", None) in aliases)
                and len(args) == 2
                and isinstance(args[1], ast.Constant)
                and args[1].value == 0
            ):
                yield node.lineno


def test_no_hand_written_accumulation_outside_omega():
    """``d.get(k, 0) + v`` is the accumulate step that _acc and vec_add own.

    The two hot loops of doublepoisson write it inline through a bound
    ``get``, as that module's docstring says; they are the only exceptions.
    """
    found = set()
    for fname, tree in _sources():
        if fname == "omega.py":
            continue
        for line in _accumulations(tree):
            owners = [
                (fn.lineno, fn.name)
                for fn in ast.walk(tree)
                if isinstance(fn, ast.FunctionDef) and fn.lineno <= line <= fn.end_lineno
            ]
            found.add("%s:%s" % (fname, max(owners)[1] if owners else line))
    assert found == {"doublepoisson.py:double_bracket", "doublepoisson.py:triple_jacobi_sum"}


def test_subtraction_adds_the_negative():
    """``UElement.__sub__`` reuses ``+`` and ``scale`` and builds no terms of its own."""
    (tree,) = [tree for fname, tree in _sources() if fname == "enveloping.py"]
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "UElement"]
    (sub,) = [n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "__sub__"]
    called = {getattr(n.func, "id", getattr(n.func, "attr", None)) for n in ast.walk(sub) if isinstance(n, ast.Call)}
    assert called == {"type", "scale"}
    assert not any(isinstance(n, ast.Attribute) and n.attr == "terms" for n in ast.walk(sub))
    assert any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Add) for n in ast.walk(sub))


def test_owner_lives_only_in_the_core():
    """UElement is the one class that binds an ``owner`` or declares one in its slots."""
    binders = set()
    for fname, tree in _sources():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute) and sub.attr == "owner" and isinstance(sub.ctx, ast.Store):
                    binders.add((fname, node.name))
                if isinstance(sub, ast.Constant) and sub.value == "owner":
                    binders.add((fname, node.name))
    assert binders == {("enveloping.py", "UElement")}


def test_enveloping_elements_belong_to_their_context_object():
    # Enveloping.get returns the table's one context per size; a context built
    # directly is a separate owner even for the same (table, size)
    shared, direct = Enveloping.get(SPEC, 2), Enveloping(SPEC, 2)
    assert Enveloping.get(SPEC, 2) is shared
    a, b = shared.gen(1, 2), direct.gen(1, 2)
    assert a.terms == b.terms and a != b
    with pytest.raises(StructureError):
        a + b
    with pytest.raises(StructureError):
        shared.multiply(a, b)
    with pytest.raises(StructureError):
        shared.commutator(a, b)
