"""The vector laws every element class obeys, and the one place they are written."""

import ast
import pathlib
from fractions import Fraction
from typing import Callable, NamedTuple

import pytest

import glomega
from glomega import Enveloping, OmegaElement, StructureError, UElement, direct_sum_C

SPEC = direct_sum_C(2)
OTHER = direct_sum_C(2)  # equal content, a different owner


class Case(NamedTuple):
    make: Callable  # (use the other owner?, terms) -> element
    keys: tuple  # two distinct keys in canonical form


CASES = {
    "OmegaElement": Case(lambda alt, terms: OmegaElement(OTHER if alt else SPEC, terms), (0, 1)),
    "UElement": Case(
        lambda alt, terms: UElement(Enveloping.get(OTHER if alt else SPEC, 2), terms),
        (((1, 1, 0),), ((1, 2, 0), (2, 1, 1))),
    ),
}


def _defines(x, name: str) -> bool:
    """Whether the element's class implements ``name`` (object's default does not count)."""
    return getattr(type(x), name, None) not in (None, getattr(object, name, None))


def _terms(x) -> dict:
    # ``coeffs`` is the older name of an OmegaElement's terms
    return x.terms if hasattr(x, "terms") else x.coeffs


@pytest.mark.parametrize("name", sorted(CASES))
def test_vector_laws(name):
    """A law whose operation a class does not define is not checked for it."""
    case = CASES[name]
    k1, k2 = case.keys
    make = lambda terms: case.make(False, terms)
    a = make({k1: 2, k2: Fraction(-1, 3)})
    b = make({k1: Fraction(5, 2)})
    zero = make({})
    if _defines(a, "__sub__"):
        assert a + b - b == a
        assert (a - a).is_zero()
        assert a - a == zero
    if _defines(a, "__neg__"):
        assert -(-a) == a
        assert (a + (-a)).is_zero()
    if _defines(a, "scale"):
        assert a.scale(0).is_zero()
        assert a.scale("1/2") == make({k1: 1, k2: Fraction(-1, 6)})
    if _defines(a, "__eq__"):
        same = make({k2: Fraction(-2, 6), k1: Fraction(4, 2)})
        assert a == same and a is not same
        assert a != b and a != zero
        if type(a).__hash__ is not None:
            assert hash(a) == hash(same)
    assert (a + b).is_zero() is False and zero.is_zero()
    # an integral sum of two Fractions is stored as an int
    half = make({k1: Fraction(1, 2)})
    total = _terms(half + half)[k1]
    assert total == 1 and type(total) is int
    with pytest.raises(StructureError):
        a + case.make(True, {k1: 1})
    assert a != case.make(True, _terms(a))


_CORE_METHODS = {"__add__", "__sub__", "__neg__", "scale", "is_zero", "__eq__"}


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
    assert sorted(where) == sorted(("omega.py", "SparseVector", n) for n in _CORE_METHODS)


def test_no_hand_written_accumulation_outside_omega():
    """``d.get(k, 0) + v`` is the accumulate step that _acc and vec_add own."""
    for fname, tree in _sources():
        if fname == "omega.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp) and isinstance(node.left, ast.Call):
                func, args = node.left.func, node.left.args
                assert not (
                    isinstance(func, ast.Attribute)
                    and func.attr == "get"
                    and len(args) == 2
                    and isinstance(args[1], ast.Constant)
                    and args[1].value == 0
                ), "%s:%d accumulates by hand" % (fname, node.lineno)


def test_owner_lives_only_in_the_core():
    """Subclasses add no slots, and only the core binds or compares owners."""
    subclasses, owners, binders, inits = [], [], [], []
    for fname, tree in _sources():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
            if "_owner" in methods:
                owners.append(node.name)
            if any(isinstance(b, ast.Name) and b.id == "SparseVector" for b in node.bases):
                slots = [
                    item.value
                    for item in node.body
                    if isinstance(item, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets)
                ]
                empty = len(slots) == 1 and isinstance(slots[0], ast.Tuple) and not slots[0].elts
                subclasses.append((node.name, empty))
                if "__init__" in methods:
                    inits.append(node.name)
            if node.name != "SparseVector":
                binders += [
                    node.name
                    for sub in ast.walk(node)
                    if isinstance(sub, ast.Attribute) and sub.attr == "owner" and isinstance(sub.ctx, ast.Store)
                ]
    assert len(subclasses) == len(CASES) == 2
    assert [name for name, empty in subclasses if not empty] == []
    assert owners == [] and binders == [] and inits == []


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
        a * b
    with pytest.raises(StructureError):
        shared.commutator(a, b)
