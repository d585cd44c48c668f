"""Every public parameter refuses its bad values with ``StructureError``.

The cases are built from the signatures, in the manner of QuickCheck
(Claessen and Hughes, ICFP 2000): every public function and class of the
walked modules, and every public method of one enveloping context (C^2 at
N = 3) and of one of its elements, is read with ``typing.get_type_hints``.  ``_ROWS`` maps each
annotation to one valid value and to its bad values, each with the message
of the rule that refuses it; ``_BY_NAME`` overrides a row where the name of
a parameter says more than its annotation.  Each function is first called
with valid values in every slot, so that its memos are filled, and then once
per bad value of one slot.  A new parameter whose annotation has no row
fails ``test_every_parameter_has_a_row``.  ``_TRUSTED`` gives a valid value
to the annotations that have no bad one, each with its reason, and
``_EXEMPT`` lists, each with its reason, the functions left out and the bad
values that are valid input at one place or that a memo hit passes.
"""

import inspect
import random
import typing
from typing import Callable, Dict, Hashable, Iterable, Mapping, Optional, Sequence, Tuple

import pytest

from glomega import current, doublepoisson, enveloping, linalg, omega, words, yangian
from glomega.current import Current
from glomega.doublepoisson import Bracket as DoubleBracket, NecklacePoly, Poly, double_bracket
from glomega.enveloping import Enveloping, Gen, Mono, UElement
from glomega.omega import AlgebraSpec, Scalar, ScalarLike, StructureError, direct_sum_C, pair_memo, to_dict
from glomega.words import Label, Word

_MODULES = (omega, enveloping, words, yangian, doublepoisson, current, linalg)
_SPEC = direct_sum_C(2)  # the letters 0 and 1
_CTX = Enveloping.get(_SPEC, 3)
_ELEM = _CTX.gen(1, 2) + _CTX.one()

# an int is a size, a cap, a grade, an index or, in a few places, a letter
_INT = "must be an integer|letters must lie in"
_LETTERS = r"letters must lie in 0\.\.1"
_EMPTY = r"^words must be nonempty, got \(\)$"
_SCALAR = "exact scalar expected"
_INDEX = r"^matrix index must be an integer (>= 1|in 1\.\.\d), got %s$"
_GENERATOR = r"^generator .* out of range for n=3, or not made of ints$"


def _each(row, wrap, more=()):
    """The row of a container of one value of ``row``: its valid value and each bad one, wrapped, and ``more`` bad ones."""
    valid, bad = row
    return wrap(valid), dict({case: (wrap(value), match) for case, (value, match) in bad.items()}, **dict(more))


_WORD = ((0,), {"float-letter": ((0.5,), _LETTERS), "outside-letter": ((2,), _LETTERS), "empty": ((), _EMPTY)})
_LABEL = (
    (1, 1, (0,)),
    {
        "float-i": ((1.5, 1, (0,)), _INDEX % r"1\.5"),
        "float-j": ((1, 1.5, (0,)), _INDEX % r"1\.5"),
        "bool-i": ((True, 1, (0,)), _INDEX % "True"),
        "bool-j": ((1, True, (0,)), _INDEX % "True"),
        "empty-word": ((1, 1, ()), _EMPTY),
        "outside-letter": ((1, 1, (2,)), _LETTERS),
    },
)
_GEN = (
    (1, 1, 0),
    {
        "float-index": ((1.5, 1, 0), _GENERATOR),
        "bool-index": ((True, 1, 0), _GENERATOR),
        "outside-letter": ((1, 1, 2), _GENERATOR),
    },
)
_ELEMENT = (
    {0: 1},
    {
        "float-coefficient": ({0: 0.5}, _SCALAR),
        "outside-letter": ({2: 1}, _LETTERS),
        "bool-letter": ({True: 1}, _LETTERS),
    },
)
_VECTOR = ({0: 1}, {"float-entry": ({0: 0.5}, _SCALAR), "str-entry": ({0: "x"}, _SCALAR)})
# a bracket memo of another table
_MEMO = (None, {"other-table": (pair_memo(direct_sum_C(1), lambda share, x, y: {}), "serves only the table")})

# annotation -> (a valid value, {case: (bad value, message it raises with)})
_ROWS = {
    int: (1, {"float": (1.5, _INT), "bool": (True, _INT), "negative": (-1, _INT)}),
    Optional[int]: (None, {"float": (1.5, _INT), "bool": (True, _INT)}),
    ScalarLike: (0, {"float": (0.5, _SCALAR), "str": ("x", _SCALAR), "zero-denominator": ("1/0", _SCALAR)}),
    Word: _WORD,
    Iterable[int]: _WORD,
    Sequence[int]: _WORD,
    Dict[Word, Scalar]: _each(_WORD, lambda word: {word: 1}),
    Label: _LABEL,
    Current: _each(_LABEL, lambda key: {key: 1}),
    Sequence[Label]: _each(_LABEL, lambda label: (label,)),
    Sequence[Tuple[Label, ...]]: _each(_LABEL, lambda label: [(label,)]),
    Poly: _each(_LABEL, lambda label: {(label,): 1}, {"float-coefficient": ({((1, 1, (0,)),): 0.5}, _SCALAR)}),
    NecklacePoly: _each(_WORD, lambda word: {(word,): 1}, {"float-coefficient": ({((0,),): 0.5}, _SCALAR)}),
    Gen: _GEN,
    Sequence[Gen]: _each(_GEN, lambda g: (g,)),
    # mono_weight reads the indices alone, of generators and t-labels alike
    Mono: (((1, 1, 0),), {"float-index": (((1.5, 1, 0),), _INT), "bool-index": (((True, 1, 0),), _INT)}),
    UElement: (_CTX.one(), {"other-context": (Enveloping.get(_SPEC, 2).one(), "different enveloping context")}),
    Mapping[int, Scalar]: _ELEMENT,
    Sequence[Mapping[int, Scalar]]: _each(_ELEMENT, lambda element: [element]),
    Optional[DoubleBracket]: _MEMO,
    Optional[current.Bracket]: _MEMO,
    Optional[Callable]: _MEMO,
    Optional[Mapping[Tuple[int, int], Mapping[int, ScalarLike]]]: (
        None,
        {
            "outside-index": ({(0, 1): {0: 1}}, _INT),
            "bool-index": ({(True, 0): {0: 1}}, _INT),
            "outside-target": ({(0, 0): {2: 1}}, _INT),
            "float-coefficient": ({(0, 0): {0: 0.5}}, _SCALAR),
        },
    ),
    Optional[Sequence[str]]: (None, {"too-many": (["a", "b"], "expected 1 basis labels")}),
    # a linalg vector: its entries pass through as_scalar where they enter
    Dict[Hashable, Scalar]: _VECTOR,
    Iterable[Dict[Hashable, Scalar]]: _each(_VECTOR, lambda vec: [vec]),
}

# parameters whose name says more than their annotation
_BY_NAME = {
    # a composition is typed as a word is, and its parts are sizes
    "nu": ((1,), {"float": ((1.5,), _INT), "bool": ((True,), _INT), "zero": ((0,), _INT)}),
    # sizes of gl(N) are typed as letters are
    "sizes": (
        (2, 3),
        {"float": ((1.5,), _INT), "bool": ((True,), _INT), "zero": ((0,), _INT), "none": ((), "at least one size")},
    ),
    # a symbol match needs N >= d + 1; an odot scan needs three letters
    "n": (2, _ROWS[int][1]),
    "max_total_len": (3, _ROWS[int][1]),
    # the keys of a UElement are words of generators
    "terms": _each(_GEN, lambda g: {(g,): 1}, {"zero-denominator": ({(): "1/0"}, _SCALAR)}),
}

# annotations and parameter names with a valid value and no bad one, each with its reason
_TRUSTED = {
    AlgebraSpec: (_SPEC, "built by its constructor, which checks the table"),
    Enveloping: (_CTX, "built by Enveloping.get, which checks the table and the size"),
    str: ("", "a display name: any string is one"),
    Callable: (lambda *args: True, "a function the package calls: any callable is one"),
    Callable[[Dict], str]: (repr, "a witness formatter: any function of a dict is one"),
    DoubleBracket: (lambda x, y: double_bracket(_SPEC, x, y), "a bracket with no table to hold it to"),
    Optional[Tuple[int, int, int]]: (None, "a witness that check_associativity returned"),
    Optional[Tuple[Word, Word, Word]]: (None, "a witness that check_double_jacobi returned"),
    "data": (to_dict(_SPEC), "any JSON value: test_omega draws them for from_dict"),
    "rng": (random.Random(0), "a random source: any random.Random is one"),
}

_NO_TABLE = "no table to hold its letters: they are checked where the word meets one"
_EXEMPT = {
    "omega.as_scalar": "the scalar rule itself",
    "omega.check_int": "the integer rule itself",
    "omega.check_letters": "the letter rule itself",
    "omega.vec_add": "the inner loop of sparse sums: its operands are dicts the package built, of exact scalars",
    "words.nonempty": "the word rule itself, " + _NO_TABLE,
    "words.check_label": "the label rule itself",
    "yangian.tgen_key": "a sort key of labels already checked",
    "doublepoisson.pgen_key": "a sort key of labels already checked",
    "omega.load_algebra": "reads a file: its path is no value of an algebra, and test_omega checks what it reads",
    "omega.save_algebra": "writes a file: its path is no value of an algebra",
    "current.shifted_degree": "counts the word lengths of labels already checked",
    "words.cyclic-word-float-letter": _NO_TABLE,
    "words.cyclic-word-outside-letter": _NO_TABLE,
    "yangian.t_gen-word-float-letter": _NO_TABLE,
    "yangian.t_gen-word-outside-letter": _NO_TABLE,
    "yangian.ordered_monomial-gens-outside-letter": _NO_TABLE,
    "UElement.homogeneous-k-negative": "the degree of zero is -1, and the part of a negative degree is zero",
    "doublepoisson.double_bracket-x-empty": "the empty word is the unit of the tensor algebra; its bracket is 0",
    "doublepoisson.double_bracket-y-empty": "the empty word is the unit of the tensor algebra; its bracket is 0",
    "doublepoisson.triple_jacobi_sum-a-empty": "the empty word is the unit: its double brackets are 0",
    "doublepoisson.triple_jacobi_sum-b-empty": "the empty word is the unit: its double brackets are 0",
    "doublepoisson.triple_jacobi_sum-c-empty": "the empty word is the unit: its double brackets are 0",
    "doublepoisson.poisson_pgen-p-empty-word": "p_ab of the empty word is the scalar delta_ab",
    "doublepoisson.poisson_pgen-q-empty-word": "p_ab of the empty word is the scalar delta_ab",
    "doublepoisson.poisson_smd-f-empty-word": "p_ab of the empty word is the scalar delta_ab",
    "doublepoisson.poisson_smd-g-empty-word": "p_ab of the empty word is the scalar delta_ab",
    "Enveloping.normal_form-seq-bool-index": "its memo hit is not checked again: a word is checked once, on its miss",
    "words.coagulate_word-word-empty": "the empty word coagulates along the empty composition",
}


def _callables():
    """(name, callable) of each public function and class of the walked modules, and each method of ``_CTX`` and ``_ELEM``."""
    for module in _MODULES:
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj) and not issubclass(obj, Exception):
                yield "%s.%s" % (module.__name__.rsplit(".", 1)[1], name), obj
    for cls, instance in ((Enveloping, _CTX), (UElement, _ELEM)):
        for name, attr in sorted(vars(cls).items()):
            if not name.startswith("_") and inspect.isfunction(attr):
                yield "%s.%s" % (cls.__name__, name), getattr(instance, name)


def _walk():
    """The bad-value cases, the parameters with no row, and the keys of ``_EXEMPT`` and ``_TRUSTED`` met.

    A case is ``(call, valid keyword arguments, parameter, bad value, match)``,
    by the id ``function-parameter-case``.
    """
    cases, unlisted, met = {}, [], set()

    def exempt(key):
        if key in _EXEMPT:
            met.add(key)
            return True
        return False

    for name, call in _callables():
        if exempt(name):
            continue
        hints = typing.get_type_hints(call.__init__ if inspect.isclass(call) else call)
        rows = {}
        for param in inspect.signature(call).parameters:
            hint = hints.get(param)
            row = _BY_NAME.get(param) or _ROWS.get(hint)
            trusted = param if param in _TRUSTED else hint
            if row is None and trusted in _TRUSTED:
                met.add(trusted)
                row = (_TRUSTED[trusted][0], {})
            if row is None:
                unlisted.append("%s(%s: %s)" % (name, param, hint or "no annotation"))
            else:
                rows[param] = row
        valid = {param: row[0] for param, row in rows.items()}
        for param, (_valid, bad) in rows.items():
            for case, (value, match) in bad.items():
                case_id = "%s-%s-%s" % (name, param, case)
                if not exempt(case_id):
                    cases[case_id] = (call, valid, param, value, match)
    return cases, unlisted, met


_CASES, _UNLISTED, _MET = _walk()


def test_every_parameter_has_a_row():
    assert _UNLISTED == []


def test_every_exemption_is_met():
    assert [key for key in [*_EXEMPT, *_TRUSTED] if key not in _MET] == []


@pytest.mark.parametrize("case_id", sorted(_CASES))
def test_a_bad_value_raises_structure_error(case_id):
    call, valid, param, value, match = _CASES[case_id]
    call(**valid)  # fills the memos that a bad value equal to a valid one would hit
    with pytest.raises(StructureError, match=match):
        call(**dict(valid, **{param: value}))
