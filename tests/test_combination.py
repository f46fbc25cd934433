"""LieElement, UEAElement and ModuleVector share the sparse-sum arithmetic of
`scalars.Combination`: checked against plain dicts, with each subclass's
parent rule and parent alias. The module checkers' LabelMatrix adds only
composition and its sorted entries, checked against dicts too."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wittforge.enveloping import UEAElement
from wittforge.lie import AlgebraError, LieElement, WnAlgebra, witt_algebra
from wittforge.modules import (LabelMatrix, ModuleError, ModuleVector,
                               build_preset)
from wittforge.scalars import PolyContext, PolyScalar, QuadExtScalar

CTX = PolyContext(("a", "b"))
WITT = witt_algebra()
MODULE = build_preset("punctured_functions")

POINTS = st.integers(-2, 2).map(lambda i: (i,))
# (subclass, parent, key strategy, the error of mixing parents, another parent)
KINDS = {
    "lie": (LieElement, WITT, POINTS, AlgebraError, WnAlgebra(1)),
    "uea": (UEAElement, WITT, st.lists(POINTS, max_size=2).map(tuple),
            AlgebraError, WnAlgebra(1)),
    "module": (ModuleVector, MODULE,
               st.tuples(POINTS, st.sampled_from(MODULE.fiber)), ModuleError,
               build_preset("punctured_functions")),
}

SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)
# each family draws zeros often, so that cancellation and zero-dropping show
COEFFICIENTS = {
    "fraction": SMALL,
    "quadext": st.builds(QuadExtScalar, SMALL, SMALL, st.just(19)),
    "poly": st.dictionaries(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                            SMALL, max_size=2).map(
                                lambda t: PolyScalar(CTX, t)),
}


def nonzero(terms: dict) -> dict:
    return {k: v for k, v in terms.items() if v != 0}


def reference_sum(a: dict, b: dict, sign: int) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out[k] + sign * v if k in out else sign * v
    return nonzero(out)


@st.composite
def cases(draw):
    kind = draw(st.sampled_from(sorted(KINDS)))
    cls, parent, keys, _, _ = KINDS[kind]
    coeffs = COEFFICIENTS[draw(st.sampled_from(sorted(COEFFICIENTS)))]
    a, b = (draw(st.dictionaries(keys, coeffs, max_size=4)) for _ in range(2))
    if a and draw(st.booleans()):
        b.update({k: -v for k, v in a.items()})
    return cls, parent, a, b, draw(coeffs)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=cases())
def test_arithmetic_matches_dicts(case):
    cls, parent, a, b, c = case
    x, y = cls(parent, a), cls(parent, b)
    assert x.terms == nonzero(a)
    results = [(x + y, reference_sum(a, b, 1)),
               (x - y, reference_sum(a, b, -1)),
               (-x, nonzero({k: -v for k, v in a.items()})),
               (x.scale(c), nonzero({k: c * v for k, v in a.items()}))]
    for result, expected in results:
        assert type(result) is cls and result.parent is parent
        assert result.terms == expected
        assert result.is_zero() == (not expected)
        assert all(v != 0 for v in result.terms.values())
    assert (x == y) == (nonzero(a) == nonzero(b))
    assert (x - y).is_zero() == (x == y)


LABEL_PAIRS = st.tuples(st.sampled_from("xyz"), st.sampled_from("xyz"))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(pair=st.sampled_from(sorted(COEFFICIENTS)).flatmap(
    lambda family: st.tuples(*[st.dictionaries(
        LABEL_PAIRS, COEFFICIENTS[family], max_size=4)] * 2)))
def test_label_matrix_composition_matches_dicts(pair):
    second, first = pair
    expected = {}
    for (src, mid), a in first.items():
        for (row, tgt), b in second.items():
            if row == mid:
                expected[(src, tgt)] = expected.get((src, tgt), 0) + b * a
    got = LabelMatrix(None, second) @ LabelMatrix(None, first)
    assert type(got) is LabelMatrix and got.terms == nonzero(expected)
    assert got.entries() == sorted((key, str(v)) for key, v
                                   in nonzero(expected).items())


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_mixing_parents_raises(kind):
    cls, parent, _, error, other = KINDS[kind]
    key = {"lie": (1,), "uea": ((1,),),
           "module": ((1,), MODULE.fiber[0])}[kind]
    x, y = cls(parent, {key: Fraction(1)}), cls(other, {key: Fraction(1)})
    for op in (lambda: x + y, lambda: x - y, lambda: y + x):
        with pytest.raises(error):
            op()
    assert x != y


def test_separately_built_modules_differ():
    key = ((0,), MODULE.fiber[0])
    twin = build_preset("punctured_functions")
    assert ModuleVector(MODULE, {key: 1}) != ModuleVector(twin, {key: 1})
    assert ModuleVector(MODULE, {key: 1}) == ModuleVector(MODULE, {key: 1})


def test_equal_algebras_give_equal_elements():
    other = witt_algebra()
    assert other is not WITT and other == WITT
    assert LieElement(WITT, {(1,): 2}) == LieElement(other, {(1,): 2})
    assert UEAElement(WITT, {((1,),): 2}) == UEAElement(other, {((1,),): 2})
    x = LieElement(WITT, {(1,): 2})
    assert (x - LieElement(other, {(1,): 2})).is_zero()


def test_subclasses_never_compare_equal():
    assert LieElement(WITT, {}) != UEAElement(WITT, {})


@pytest.mark.parametrize("kind, alias", [
    ("lie", "algebra"), ("uea", "algebra"), ("module", "module")])
def test_parent_alias(kind, alias):
    cls, parent, _, _, other = KINDS[kind]
    x = cls(parent, {})
    assert getattr(x, alias) is parent
    with pytest.raises(AttributeError):
        setattr(x, alias, other)
