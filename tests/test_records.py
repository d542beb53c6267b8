"""The contract of the package's data records: constructor, repr, equality,
hashing and immutability, as a dataclass would give them, plus each record's
own rules.  None of them is a tuple, and none equals one."""

import copy
import functools
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import ffperiods
from ffperiods.carlitz import Place, PlaceValue, ProductFormulaReport
from ffperiods.cmshtuka import (
    CMComponent,
    Embedding,
    PeriodElement,
    RecursionFamily,
    ScalingData,
)
from ffperiods.lfunctions import ExplicitPlaceTerm, LogQValue, TameEmbedding

# (class, field names, defaults of the trailing fields, frozen)
RECORDS = [
    (Place, ("q", "poly"), {"poly": None}, True),
    (PlaceValue, ("place", "log_abs", "z_v_at_one", "via_series", "hat_order"), {}, False),
    (ProductFormulaReport, ("q", "infty", "places", "z_infty_at_zero", "mu_term",
                            "genus_term", "tail_value", "total"), {}, False),
    (CMComponent, ("f", "e", "tame", "diff_valuation", "pairwise"),
     {"tame": True, "diff_valuation": None, "pairwise": None}, True),
    (Embedding, ("i", "j", "k"), {}, True),
    (RecursionFamily, ("tower", "xi", "q_tilde", "ells"), {}, False),
    (PeriodElement, ("hat_order", "leading", "term_valuations", "tower", "expand"), {}, False),
    (ScalingData, ("u_powers", "x_leading_valuation", "x_order"),
     {"u_powers": {}, "x_leading_valuation": Fraction(0), "x_order": 0}, False),
    (LogQValue, ("coeff",), {}, True),
    (TameEmbedding, ("j", "k", "f", "e"), {}, True),
    (ExplicitPlaceTerm, ("label", "degree", "x_v", "z_v_at_one"), {}, False),
]
IDS = [spec[0].__name__ for spec in RECORDS]


def sample_values(names):
    # small positive ints pass every record's own checks and normalizations
    # unchanged (TameEmbedding(1, 2, 3, 4) keeps j = 1 < 3 and k = 2 < 4)
    return tuple(range(1, len(names) + 1))


@pytest.mark.parametrize("cls, names, defaults, frozen", RECORDS, ids=IDS)
def test_constructor_positional_and_keyword(cls, names, defaults, frozen):
    values = sample_values(names)
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert by_position == by_keyword
    assert tuple(getattr(by_position, n) for n in names) == values
    assert cls.__match_args__ == names
    required = [n for n in names if n not in defaults]
    bare = cls(*values[:len(required)])
    for name, default in defaults.items():
        assert getattr(bare, name) == default
    if required:
        with pytest.raises(TypeError):
            cls(*values[:len(required) - 1])
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)


@pytest.mark.parametrize("cls, names, defaults, frozen", RECORDS, ids=IDS)
def test_repr_lists_every_field(cls, names, defaults, frozen):
    values = sample_values(names)
    fields = ", ".join("%s=%d" % pair for pair in zip(names, values))
    assert repr(cls(*values)) == "%s(%s)" % (cls.__name__, fields)


@pytest.mark.parametrize("cls, names, defaults, frozen", RECORDS, ids=IDS)
def test_equality_only_within_the_class(cls, names, defaults, frozen):
    values = sample_values(names)
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b
    changed = list(values)
    changed[0] += 10
    assert a != cls(*changed)
    for other in (values, list(values), object()):
        assert a != other and other != a
        assert not a == other and not other == a
    assert not isinstance(a, tuple)
    for other_cls, other_names, _, _ in RECORDS:
        if other_cls is not cls and len(other_names) == len(names):
            assert a != other_cls(*values)


@pytest.mark.parametrize("cls, names, defaults, frozen", RECORDS, ids=IDS)
def test_hash_and_immutability(cls, names, defaults, frozen):
    values = sample_values(names)
    a = cls(*values)
    if frozen:
        # hashable by its fields, as a frozen dataclass: sets keep their order
        assert hash(a) == hash(cls(*values)) == hash(values)
        assert len({a, cls(*values)}) == 1
        for name in names:
            with pytest.raises(AttributeError):
                setattr(a, name, 0)
            with pytest.raises(AttributeError):
                delattr(a, name)
        with pytest.raises(AttributeError):
            a.no_such_field = 0
        assert tuple(getattr(a, n) for n in names) == values
    else:
        with pytest.raises(TypeError):
            hash(a)
        setattr(a, names[0], 99)
        assert getattr(a, names[0]) == 99
        assert a != cls(*values)


@pytest.mark.parametrize("cls, names, defaults, frozen", RECORDS, ids=IDS)
def test_copy_and_pickle(cls, names, defaults, frozen):
    a = cls(*sample_values(names))
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin == a and twin is not a and type(twin) is cls


def test_real_records_repr():
    from ffperiods.carlitz import carlitz_v_log_abs, finite_places

    place = finite_places(2, 1)[1]
    assert repr(place) == "Place(q=2, poly=t + 1)"
    assert repr(carlitz_v_log_abs(2, place, 1)) == (
        "PlaceValue(place=Place(q=2, poly=t + 1), "
        "log_abs=LogQValue(coeff=Fraction(-1, 1)), "
        "z_v_at_one=Fraction(1, 1), via_series=True, hat_order=1)"
    )
    assert repr(CMComponent(2, 1)) == (
        "CMComponent(f=2, e=1, tame=True, diff_valuation=None, pairwise=None)"
    )
    assert repr(ScalingData()) == (
        "ScalingData(u_powers={}, x_leading_valuation=Fraction(0, 1), x_order=0)"
    )
    assert str(LogQValue(Fraction(3, 2))) == "3/2·log q"


def test_cm_component_rejects_nonpositive_invariants():
    for f, e in ((0, 1), (1, 0), (-1, 2), (2, -3)):
        with pytest.raises(ValueError, match="f and e must be positive"):
            CMComponent(f, e)
        with pytest.raises(ValueError, match="f and e must be positive"):
            CMComponent(f=f, e=e, tame=False)


def test_tame_embedding_normalizes():
    assert TameEmbedding(5, 7, 3, 4) == TameEmbedding(2, 3, 3, 4)
    assert (TameEmbedding(5, 7, 3, 4).j, TameEmbedding(5, 7, 3, 4).k) == (2, 3)
    assert TameEmbedding(-1, -1, 3, 4) == TameEmbedding(2, 3, 3, 4)
    assert TameEmbedding(1, 5, 2, 1).k == 0  # e = 1: no root-of-unity index
    assert TameEmbedding(j=4, k=9, f=2, e=1) == TameEmbedding(0, 0, 2, 1)
    assert repr(TameEmbedding(5, 7, 3, 4)) == "TameEmbedding(j=2, k=3, f=3, e=4)"


def test_scaling_data_gets_a_fresh_dict():
    a, b = ScalingData(), ScalingData()
    a.u_powers[0] = 3
    assert b.u_powers == {} and ScalingData().u_powers == {}
    assert a.u_powers is not b.u_powers
    assert ScalingData({0: 1}).u_powers == {0: 1}


def test_period_element_expands_once():
    assert isinstance(PeriodElement.__dict__["zeta_coeffs"], functools.cached_property)
    calls = []

    class Coeff:
        series = type("S", (), {"terms": {0: 1}})()

        def valuation(self):
            return Fraction(1, 2)

    class Expansion:
        terms = {1: Coeff()}

    def expand():
        calls.append(1)
        return Expansion()

    pe = PeriodElement(1, Coeff(), [], None, expand)
    assert calls == []
    first = pe.zeta_coeffs
    assert pe.zeta_coeffs is first
    assert calls == [1]


def test_public_names_unchanged():
    public = {"Place", "CMComponent", "Embedding", "PeriodElement", "ScalingData",
              "LogQValue", "TameEmbedding"}
    for cls, _, _, _ in RECORDS:
        assert (cls.__name__ in ffperiods.__all__) == (cls.__name__ in public)
        if cls.__name__ in public:
            assert getattr(ffperiods, cls.__name__) is cls


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # a structural check of start-up: the CLI path builds its records without
    # the dataclasses machinery (which pulls in inspect, ast, dis, tokenize)
    src = os.path.dirname(os.path.dirname(ffperiods.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, ffperiods.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
