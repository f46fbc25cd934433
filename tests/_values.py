"""Value semantics that every immutable value type of the layers keeps:
`IndexLattice`, `Rank1Algebra`, `WnAlgebra`, `LatticeAutomorphism`,
`Constraint`, `ActionTerm` and `PsiGenerator`."""

import copy
import itertools
import pickle

import pytest


def assert_value_semantics(make, fields: dict):
    """`make()` builds a fresh value whose fields, in constructor order, are
    `fields`: two builds are equal, the hash is that of the field tuple, no
    field can be set or deleted, and copies and pickles are equal values."""
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert {name: getattr(a, name) for name in fields} == fields
    assert hash(a) == hash(b) == hash(tuple(fields.values()))
    assert a != tuple(fields.values()) and a != object()
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b
    for c in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(c) is type(a) and c == a and hash(c) == hash(a)


def assert_types_never_equal(values):
    """Values of different types compare unequal both ways, even when their
    field tuples are equal."""
    for x, y in itertools.combinations(values, 2):
        if type(x) is not type(y):
            assert x != y and y != x and not x == y
