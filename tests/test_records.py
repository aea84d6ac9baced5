"""The record types are NamedTuples: equal by value, immutable, built by
keyword with their defaults, and `_replace` changes one field only."""
from fractions import Fraction

import pytest

from zclosure.automata import Nfa
from zclosure.closure import Caps, PipelineResult
from zclosure.exactlin import Matrix, Subspace
from zclosure.exterior import ExtVector
from zclosure.facttree import FactTree
from zclosure.lang import MorphismPair, default_eta
from zclosure.oracle import OracleResult
from zclosure.polys import IdealGens, PolySpace
from zclosure.reduction import BlockMorphism, Vass
from zclosure.words import WordClass


def _space(basis=()):
    return PolySpace(1, 1, Subspace(2, basis))


def _mp():
    return MorphismPair(("a",), 1, {"a": Matrix([[2]])}, {"a": 1})


# type -> (keyword arguments of one valid value, a field, another valid value
# of that field, whether the type is hashable)
RECORDS = {
    Caps: ({}, "budget", 5, True),
    OracleResult: (
        {"space": _space(), "stabilized": True, "max_len": 3, "words_used": 4},
        "max_len", 5, True,
    ),
    PipelineResult: (
        {"space": _space(), "mode": "cover", "eta_used": 2, "method": "fixpoint"},
        "counter_bound", 7, False,
    ),
    Nfa: (
        {"states": ("p",), "alphabet": ("a",), "initial": frozenset({"p"}),
         "accepting": frozenset({"p"}), "transitions": frozenset({("p", "a", "p")})},
        "accepting", frozenset(), True,
    ),
    Subspace: ({"ambient_dim": 2, "basis": ((Fraction(1), Fraction(0)),)}, "basis", (), True),
    MorphismPair: (
        {"alphabet": ("a",), "dim": 1, "phi": {"a": Matrix([[2]])}, "omega": {"a": 1}},
        "omega", {"a": -1}, False,
    ),
    WordClass: (
        {"weight": 0, "min_prefix_weight": 0, "max_prefix_weight": 1,
         "in_LC": True, "in_LR": True, "in_LZ": True, "in_LBZ": True},
        "in_LBZ", False, True,
    ),
    PolySpace: (
        {"dim": 1, "degree": 1, "vanishing_basis": Subspace(2, ())},
        "vanishing_basis", Subspace(2, ((Fraction(0), Fraction(1)),)), True,
    ),
    IdealGens: ({"dim": 1, "degree": 1, "generators": ("x11",)}, "generators", (), True),
    Vass: (
        {"states": ("p",), "initial": "p", "accepting": ("p",),
         "transitions": (("p", "a", 1, "p"),)},
        "transitions", (("p", "a", -1, "p"),), True,
    ),
    BlockMorphism: (
        {"base": _mp(), "dfa": Nfa.universal(("a",)), "state_order": ("*",),
         "lifted": {"a": Matrix([[2, 0], [0, 1]])}},
        "state_order", ("q",), False,
    ),
    FactTree: ({"label": Matrix([[2]]), "span": (0, 1)}, "span", (1, 2), True),
    ExtVector: ({"dim": 2, "coords": {(0,): Fraction(1)}}, "coords", {(1,): 3}, True),
}


@pytest.mark.parametrize("kind", list(RECORDS), ids=lambda kind: kind.__name__)
def test_record_contract(kind):
    kwargs, field, other, hashable = RECORDS[kind]
    record = kind(**kwargs)
    twin = kind(**kwargs)
    changed = kind(**{**kwargs, field: other})

    # equal by value; one changed field makes them unequal
    assert record == twin and record != changed
    if hashable:
        assert hash(record) == hash(twin)
    assert repr(record).startswith(f"{kind.__name__}(")

    # immutable, with no room for new attributes
    with pytest.raises(AttributeError):
        setattr(record, field, other)
    with pytest.raises(AttributeError):
        record.unknown = 1

    # keyword construction keeps every default it is not given, and
    # `_replace` changes one field and keeps the type
    for name, default in kind._field_defaults.items():
        if name not in kwargs:  # MorphismPair's eta 0 asks for the guaranteed threshold
            want = default_eta(record.dim) if kind is MorphismPair else default
            assert getattr(record, name) == want
    replaced = record._replace(**{field: other})
    assert type(replaced) is kind and replaced == changed
    assert all(getattr(replaced, f) == getattr(record, f) for f in kind._fields if f != field)

