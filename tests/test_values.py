"""Value semantics of the record classes: ==, repr, hashing and immutability."""

import time
from fractions import Fraction

import pytest

from heattrace import rank1
from heattrace.growth import GrowthReport
from heattrace.plancherel import ExpPolyForm, PlancherelModel, build_family
from heattrace.rank1 import SpaceModel
from heattrace.seedpolys import SignedTable, beta_table
from heattrace.series import HeatSeries
from heattrace.verify import CheckResult


def frozen_pairs():
    """Two equal values of each frozen class, built separately."""
    row = rank1._row("cayley_plane", 2)
    return [
        (SpaceModel("sphere", 3), SpaceModel("sphere", 3)),
        (row, rank1._Row(**vars(row))),
        (beta_table(3), SignedTable(beta_table(3).values, "beta", 3)),
        (ExpPolyForm(Fraction(-1, 4), (Fraction(1),), 3, 1),
         ExpPolyForm(Fraction(-1, 4), (Fraction(1),), 3, 1)),
        (build_family("hyperbolic_odd", 2), build_family("hyperbolic_odd", 2)),
    ]


@pytest.mark.parametrize("a, b", frozen_pairs(), ids=lambda v: type(v).__name__)
def test_frozen_values_compare_by_field_and_refuse_assignment(a, b):
    assert a == b and a is not b
    name = next(iter(vars(a)))  # the first field
    with pytest.raises(AttributeError):
        setattr(a, name, None)
    with pytest.raises(AttributeError):
        delattr(a, name)
    assert a == b


@pytest.mark.parametrize("a, b", frozen_pairs(), ids=lambda v: type(v).__name__)
def test_equal_frozen_values_hash_equal(a, b):
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_plancherel_models_compare_hash_and_print_their_given_data():
    # su-star:5's density has 276,063 terms; the model's value is its root
    # factors, so ==, hash and repr never expand it, and reading p keeps nothing
    a, b = build_family("su_star", 5), build_family("su_star", 5)
    start = time.perf_counter()
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert time.perf_counter() - start < 0.05
    assert "factors=(((1, -1, 0, 0, 0)," in repr(a) and "monomials=None" in repr(a)
    model = build_family("hyperbolic_odd", 2)
    assert model.p == {(4,): 1, (2,): 1} and set(vars(model)) == set(PlancherelModel._fields)
    form = ((Fraction(1),),)
    x = PlancherelModel("custom", "x", 1, 5, {(4,): Fraction(1), (2,): Fraction(1)}, form, 1)
    y = PlancherelModel("custom", "x", 1, 5, {(2,): Fraction(1), (4,): Fraction(1)}, form, 1)
    assert x == y and hash(x) == hash(y) and repr(x) == repr(y)
    assert x.monomials == (((2,), 1), ((4,), 1)) and x.p == {(2,): 1, (4,): 1}


def test_values_of_different_classes_never_compare_equal():
    assert CheckResult("a", True) != ("a", True, "")
    assert SpaceModel("sphere", 2) != SignedTable((Fraction(1),), "sphere", 2)
    assert SpaceModel("sphere", 1) != SpaceModel("sphere", 2)


def test_heat_series_equality_and_repr_ignore_exppoly():
    coeffs = [Fraction(1), Fraction(-1, 4), Fraction(1, 32)]
    carrier = HeatSeries(coeffs, provenance="e", exppoly=(Fraction(-1, 4), (Fraction(1),)))
    plain = HeatSeries(coeffs, provenance="e")
    assert carrier == plain
    assert repr(carrier) == repr(plain) == (
        "HeatSeries(coeffs=[Fraction(1, 1), Fraction(-1, 4), Fraction(1, 32)], "
        "validity=['exact', 'exact', 'exact'], provenance='e')")
    assert carrier != HeatSeries(coeffs, provenance="other")


def test_mutable_records_are_unhashable_and_assignable():
    s = HeatSeries([1])
    report = GrowthReport("vanishing", 0.0)
    result = CheckResult("x", False)
    for value in (s, report, result):
        with pytest.raises(TypeError):
            hash(value)
    s.provenance = "p"
    result.ok = True
    assert (s.provenance, result) == ("p", CheckResult("x", True))
    assert report.epsilon_band == []
    assert report.epsilon_band is not GrowthReport("v", 0.0).epsilon_band


def test_repr_spells_the_fields_in_order():
    assert (repr(ExpPolyForm(Fraction(-1, 4), (Fraction(1),), 3, 1))
            == "ExpPolyForm(kappa=Fraction(-1, 4), poly=(Fraction(1, 1),), m=3, r=1)")
    assert repr(SpaceModel("cayley_plane", 2)) == "SpaceModel(family='cayley_plane', mbar=2)"
    assert repr(CheckResult("k", True)) == "CheckResult(name='k', ok=True, detail='')"
