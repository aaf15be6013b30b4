"""The plain record classes keep value equality, hashing, defaults and repr
field order, and a mutable CheckReport owns its lists."""
from fractions import Fraction

import pytest

from framecalc import (AlmostContactData, CheckItem, CheckReport,
                       Classification, ConnectionTable, FrameVector,
                       GradientData, LambdaSolve, LedgerEntry, LinearForm,
                       ParamScalar, concurrent_soliton_constants, levi_civita,
                       load_builtin)
from framecalc.manifold_format import ExpectedValues, ManifoldDocument

HALF = Fraction(1, 2)


def _pairs():
    """(a, b, c): a == b built separately, c differs from a in one field."""
    one, two = ParamScalar.rational(1), ParamScalar.rational(2)
    return [
        (FrameVector([1, HALF]), FrameVector((1, HALF)), FrameVector([1, 0])),
        (ExpectedValues(lam=((one, "s"),)), ExpectedValues((), (), (), ((one, "s"),)),
         ExpectedValues(lam=((two, "s"),))),
        (CheckItem("a", "pass"), CheckItem("a", "pass", None),
         CheckItem("a", "fail", "why")),
        (LedgerEntry("src", "x", "y"), LedgerEntry("src", "x", "y"),
         LedgerEntry("src", "x", "z")),
        (LinearForm(Fraction(2), one), LinearForm(Fraction(2), one),
         LinearForm(Fraction(2), two)),
        (LambdaSolve(one, LinearForm(Fraction(2), one), "trace_only", lambda: ()),
         LambdaSolve(one, LinearForm(Fraction(2), one), "trace_only", lambda: ()),
         LambdaSolve(one, LinearForm(Fraction(2), one), "einstein_exact",
                     lambda: ())),
        (Classification("conditional", "p > 1", Fraction(1)),
         Classification("conditional", "p > 1", Fraction(1)),
         Classification("conditional", "p < 1", Fraction(1))),
        (GradientData.from_values([1, 2]), GradientData((Fraction(1), Fraction(2))),
         GradientData.from_values([1, 2], [0, 0])),
        (concurrent_soliton_constants(5), concurrent_soliton_constants(5),
         concurrent_soliton_constants(7)),
    ]


@pytest.mark.parametrize("a, b, c", _pairs(),
                         ids=lambda r: type(r).__name__)
def test_frozen_records_compare_and_hash_by_value(a, b, c):
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b, c}) == 2
    assert a != c
    assert a != object() and a != ()


def test_records_with_tables_compare_by_value_but_do_not_hash():
    """Documents, connections, contact structures and expected values that
    hold expect nabla or riem lines, whose values are maps {k: int |
    Fraction}, compare by value but do not hash."""
    doc, same = load_builtin("heisenberg5"), load_builtin("heisenberg5")
    assert doc == same
    assert doc != ManifoldDocument(doc.manifold, None, doc.expected)
    assert doc.expected == same.expected
    assert doc.expected != ExpectedValues(doc.expected.nabla)
    conn = levi_civita(doc.manifold)
    assert conn == levi_civita(same.manifold)
    assert conn != ConnectionTable(doc.manifold, ({}, 1), ({}, 1))
    D = AlmostContactData(((0, -1), (1, 0)), (0, 1))
    assert D == AlmostContactData({0: {1: 1}, 1: {0: -1}}, (0, 1))
    assert D != AlmostContactData(((0, -1), (1, 0)), (1, 0))
    for unhashable in (doc, doc.expected, conn, D):
        with pytest.raises(TypeError):
            hash(unhashable)


def test_defaults():
    assert ExpectedValues() == ExpectedValues((), (), (), ())
    assert Classification("steady") == Classification("steady", None, None)
    assert GradientData((Fraction(1),)).dlambda is None
    assert CheckItem("a", "pass").defect is None


def test_check_reports_own_their_lists():
    a, b = CheckReport("a"), CheckReport("b")
    a.add("x", True)
    a.add_ledger("src", "1", "2")
    assert b.items == [] and b.ledger == []
    assert a.items is not b.items and a.ledger is not b.ledger
    assert CheckReport("a") == CheckReport("a", [], [])
    assert a != CheckReport("a")
    with pytest.raises(TypeError):
        hash(a)


def test_a_contact_structure_that_fails_every_check_differs_from_one_that_runs():
    """A 2 x 2 phi beside a 3-entry xi fails every check; the 3 x 3 zero phi
    with the same xi runs them. Their integer forms agree, so square, the
    size test, is a field of the record."""
    xi = (0, 0, 1)
    wrong, zero = AlmostContactData(((1, 2), (3, 4)), xi), \
        AlmostContactData(((0,) * 3,) * 3, xi)
    assert wrong.phi_int == zero.phi_int
    assert (wrong.square, zero.square) == (False, True)
    assert wrong != zero


def test_repr_lists_fields_in_order():
    assert repr(Classification("steady")) == \
        "Classification(verdict='steady', condition=None, threshold=None)"
    assert repr(LedgerEntry("s", "x", "y")) == \
        "LedgerEntry(source='s', expected='x', computed='y')"
    assert repr(load_builtin("heisenberg3").contact) == (
        "AlmostContactData(phi_int=({0: {1: 1}, 1: {0: -1}, 2: {}}, 1), "
        "xi=(Fraction(0, 1), Fraction(0, 1), Fraction(1, 1)), square=True)")
