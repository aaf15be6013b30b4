"""Connection, curvature, Ricci machinery against the naive oracle and
exhaustively enumerated tensor identities."""
import random
import re
import tracemalloc
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from frames import (both_orders, contact_frames, dense_curvature, dense_of,
                    lie_algebras, table_of)
from framecalc import geometry
from framecalc.catalog import load_builtin
from framecalc.contact import AlmostContactData
from framecalc.geometry import (ConnectionTable, FrameManifold, FrameVector,
                                GeometryError, LieDerivativeParts, RicciTensor,
                                compare, covariant_derivative_endo, curvature,
                                integer_map, integer_rows, joined, levi_civita,
                                render_vector, ricci, ricci_operator,
                                scalar_curvature, validate)
from framecalc.manifold_format import parse_manifold
from framecalc.scalars import ParamScalar, parse_scalar
from test_dense_snapshot import documents

NAMES = ("heisenberg5", "heisenberg3", "abelian3", "abelian5", "nonjacobi3")
JACOBI_NAMES = ("heisenberg5", "heisenberg3", "abelian3", "abelian5")


def man(name: str) -> FrameManifold:
    return load_builtin(name).manifold


def h3_stretched() -> FrameManifold:
    # heisenberg3 with the center direction rescaled: g = diag(1, 1, 4)
    g = ((Fraction(1), Fraction(0), Fraction(0)),
         (Fraction(0), Fraction(1), Fraction(0)),
         (Fraction(0), Fraction(0), Fraction(4)))
    return FrameManifold("h3stretched", 3,
                         both_orders({(0, 1): {2: Fraction(2)}}), g)


ALL = [man(n) for n in NAMES] + [h3_stretched()]


def sc(q) -> ParamScalar:
    return ParamScalar.rational(Fraction(q))


def vec(*coeffs) -> FrameVector:
    return FrameVector([Fraction(c) for c in coeffs])


# -- frame vectors -------------------------------------------------------------

def test_vector_render():
    assert vec(0, 0, 0).render() == "0"
    assert vec(0, 1, 0).render() == "e2"
    assert vec(0, -1, 0).render() == "-e2"
    assert vec(0, 2, -1).render() == "2*e2 + -e3"
    assert vec(1, Fraction(-1, 2), 0).render() == "e1 + -1/2*e2"


coefficients = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    st.integers(-3, 3))


@given(st.lists(coefficients, max_size=9), st.randoms(use_true_random=False))
def test_render_vector_of_a_sparse_map_prints_the_dense_reference(values, rng):
    """A map with its keys in any order, zero values kept in part, prints as
    the oracle prints the dense list."""
    keys = [k for k, x in enumerate(values) if x or rng.random() < 0.5]
    rng.shuffle(keys)
    assert render_vector({k: values[k] for k in keys}) == \
        oracle.render_vector(values)


@pytest.mark.parametrize("values, text", [
    (("0", "1/2*p + 1", "0"), "(1/2*p + 1)*e2"),
    (("-p", "0", "0"), "-p*e1"),
    (("p", "-1", "1", "-1/2"), "p*e1 + -e2 + e3 + -1/2*e4"),
    (("p^2 + -q", "2*p*q", "-3/4*q"), "(p^2 + -q)*e1 + 2*p*q*e2 + -3/4*q*e3"),
    (("-p + 1", "0", "-2*p"), "(-p + 1)*e1 + -2*p*e3"),
    (("0", "0"), "0")])
def test_render_vector_of_parametric_coefficients(values, text):
    """ParamScalar coefficients print as FrameVector.render has printed them:
    in parentheses when they have more than one term."""
    coeffs = [parse_scalar(v) for v in values]
    assert FrameVector(coeffs).render() == text
    assert render_vector(dict(reversed(list(enumerate(coeffs))))) == text


@pytest.mark.parametrize("values", [(0, Fraction(1, 2), 0), (0, 0, 0)])
def test_a_vector_of_rationals_holds_param_scalars(values):
    """The constructor converts ints and Fractions as from_values does, so
    the coefficients equal the values given, and the vector equals and
    hashes like its from_values twin."""
    v, twin = FrameVector(values), FrameVector.from_values(values)
    assert v.coeffs == values
    assert v == twin and hash(v) == hash(twin)
    assert all(type(c) is ParamScalar for c in v.coeffs)


# -- manifold construction and validation ----------------------------------------

def test_builtin_brackets_are_antisymmetric():
    M = man("heisenberg5")
    assert M.c[0][1][2] == 2 and M.c[1][0][2] == -2
    assert M.c[3][4][2] == 2 and M.c[4][3][2] == -2
    assert M.brackets_int == ({(0, 1): {2: 2}, (1, 0): {2: -2},
                               (3, 4): {2: 2}, (4, 3): {2: -2}}, 1)


def test_parametric_endomorphism_splits_by_monomial():
    """covariant_derivative_endo of Q = p A + B equals p times its rows for
    A plus its rows for B, summed on the sparse rows of nabla Q with
    ParamScalar arithmetic."""
    M = parse_manifold(documents()["dense5"]).manifold
    conn = levi_civita(M)
    P = ParamScalar.param("p")
    rng = random.Random(5)
    A = [[Fraction(rng.randint(-2, 2)) for _ in range(5)] for _ in range(5)]
    B = [[Fraction(rng.randint(-2, 2), 3) for _ in range(5)] for _ in range(5)]
    Q = [[P * A[i][j] + B[i][j] for j in range(5)] for i in range(5)]
    dq = covariant_derivative_endo(M, conn, Q)
    da = covariant_derivative_endo(M, conn, A)
    db = covariant_derivative_endo(M, conn, B)
    zero, want = ParamScalar.rational(0), {}
    for key in da.keys() | db.keys():
        a, b = da.get(key, {}), db.get(key, {})
        row = {k: x for k in a.keys() | b.keys()
               if (x := P * a.get(k, zero) + b.get(k, zero))}
        if row:
            want[key] = row
    assert dq and dq == want


def test_covariant_derivative_endo_divides_exactly():
    """covariant_derivative_endo divides its kernel's sums exactly, for an
    endomorphism of plain ints, on a frame whose Gamma has denominator 6."""
    M = parse_manifold("manifold t dim 3\nbracket e1 e2 = e3\n"
                       "bracket e1 e3 = e1\nmetric g 1 1 = 3\n"
                       "metric g 2 2 = 1\nmetric g 3 3 = 1\n").manifold
    assert M.conn.gamma_int[1] == 6
    dq = covariant_derivative_endo(M, M.conn, ((1, 0, 0), (0, 2, 0), (0, 0, 3)))
    assert list(dq.items()) == [
        ((0, 0), {2: sc(6)}), ((0, 1), {2: sc("-1/2")}),
        ((0, 2), {0: sc(2), 1: sc("-1/2")}), ((1, 0), {2: sc(1)}),
        ((1, 2), {0: sc("1/3")}), ((2, 0), {1: sc("1/2")}),
        ((2, 1), {0: sc("1/6")})]


def test_validate_pass():
    for M in ALL:
        rep = validate(M)
        assert rep.overall == "pass", M.name


def test_validate_strict():
    assert validate(man("heisenberg5"), strict=True).overall == "pass"
    rep = validate(man("nonjacobi3"), strict=True)
    assert rep.overall == "fail"
    item = next(i for i in rep.items if i.name == "jacobi identity")
    assert item.status == "fail"
    assert "(1,2,3): -e3" in item.defect


def test_validate_bad_metric():
    g = ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(1)))
    M = FrameManifold("indefinite", 2, {}, g)
    rep = validate(M)
    assert rep.overall == "fail"
    item = next(i for i in rep.items if i.name == "metric positive-definite")
    assert "leading minor 2 has determinant -3" in item.defect


def test_validate_asymmetric_metric():
    g = ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1)))
    M = FrameManifold("asym", 2, {}, g)
    rep = validate(M)
    assert any(i.name == "metric symmetry" and i.status == "fail"
               for i in rep.items)


def test_validate_reports_nonantisymmetric_table():
    # a table given straight to the constructor with [e1, e2] but no [e2, e1]
    M = FrameManifold("skew", 3, {(0, 1): {2: Fraction(1)}}, oracle.ident(3))
    rep = validate(M)
    item = next(i for i in rep.items if i.name == "bracket antisymmetry")
    assert item.status == "fail"
    assert item.defect == "violated at (1, 2, 3); (2, 1, 3)"


def test_bracket_index_out_of_range():
    for table in ({(0, 3): {1: Fraction(1)}}, {(0, 1): {3: Fraction(1)}},
                  {(-1, 1): {2: Fraction(1)}}):
        with pytest.raises(GeometryError):
            FrameManifold("bad", 3, table, oracle.ident(3))


def test_bracket_table_is_sparse_and_c_is_a_view():
    M = FrameManifold("h3", 3, both_orders({(0, 1): {2: 2, 0: 0}}),
                      oracle.ident(3))
    assert M.brackets_int == ({(0, 1): {2: 2}, (1, 0): {2: -2}}, 1)
    assert list(M.brackets_int[0]) == [(0, 1), (1, 0)]
    assert "c" not in vars(M)
    assert M.c[0][1] == (0, 0, 2) and M.c[1][0] == (0, 0, -2)
    assert M.c[2][2] == (0, 0, 0)


def test_large_dimension_stays_small_in_memory():
    # the structure constants of dim 128 would be 2.1M dense entries
    text = "manifold big dim 128\nbracket e1 e2 = e3\nmetric identity\n"
    tracemalloc.start()
    try:
        M = parse_manifold(text).manifold
        ric_t = ricci(M, curvature(M, levi_civita(M)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ric_t.ric == {(0, 0): Fraction(-1, 2), (1, 1): Fraction(-1, 2),
                         (2, 2): Fraction(1, 2)}
    assert peak < 8 * 2**20


# -- matrix helpers ---------------------------------------------------------------

def test_metric_leading_minors():
    g = ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(2)))
    assert FrameManifold("g", 2, {}, g).elimination[0] == \
        oracle.leading_minors(g) == [2, 3]


def test_metric_inverse():
    g = ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(2)))
    assert FrameManifold("g", 2, {}, g).g_inv_int == ({0: {0: 2, 1: -1},
                                                      1: {0: -1, 1: 2}}, 3)
    assert oracle.gauss_jordan_inverse(g) == \
        ((Fraction(2, 3), Fraction(-1, 3)), (Fraction(-1, 3), Fraction(2, 3)))
    with pytest.raises(GeometryError, match="metric is singular"):
        FrameManifold("g", 2, {}, ((1, 1), (1, 1))).g_inv_int


entry = st.one_of(st.just(Fraction(0)),
                  st.fractions(min_value=-5, max_value=5, max_denominator=6))


@st.composite
def symmetric_matrices(draw):
    """Symmetric rational matrices, plain or of lower rank (B^T D B with
    zeros in D), so that zero leading minors, indefinite and singular
    matrices all come up."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        upper = draw(st.lists(entry, min_size=n * n, max_size=n * n))
        return tuple(tuple(upper[min(i, j) * n + max(i, j)] for j in range(n))
                     for i in range(n))
    b = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                      min_size=n, max_size=n))
    d = draw(st.lists(st.sampled_from((0, 0, 1, -1, Fraction(1, 2))),
                      min_size=n, max_size=n))
    return tuple(tuple(sum((b[k][i] * d[k] * b[k][j] for k in range(n)),
                           Fraction(0)) for j in range(n)) for i in range(n))


@settings(max_examples=120, deadline=None)
@given(symmetric_matrices())
@example(((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))))
@example(((Fraction(1), Fraction(2), Fraction(0)),
          (Fraction(2), Fraction(4), Fraction(1)),
          (Fraction(0), Fraction(1), Fraction(1))))
@example(((Fraction(0),) * 3,) * 3)
def test_fraction_free_elimination_matches_oracle(g):
    """The one elimination of a manifold's metric gives its leading minors
    up to the first zero one, and g^{-1} as integer columns over the least
    positive denominator."""
    minors = oracle.leading_minors(g)
    if 0 in minors:
        minors = minors[:minors.index(0) + 1]
    M = FrameManifold("g", len(g), {}, g)
    assert M.elimination[0] == minors
    want = oracle.gauss_jordan_inverse(g)
    if want is None:
        with pytest.raises(GeometryError, match="metric is singular"):
            M.g_inv_int
    else:
        cols, d = M.g_inv_int
        assert d > 0 and gcd(d, *(x for col in cols.values()
                                  for x in col.values())) == 1
        assert all(x for col in cols.values() for x in col.values())
        assert oracle.dense(M.g_inv_int) == [list(row) for row in want]


def test_one_elimination_per_manifold(monkeypatch):
    """validate, the connection, Q and r read one cached elimination of g."""
    calls = []
    bareiss = geometry._bareiss
    monkeypatch.setattr(geometry, "_bareiss",
                        lambda a: calls.append(1) or bareiss(a))
    for M in [h3_stretched(), man("heisenberg5"),
              parse_manifold(documents()["dense5"]).manifold]:
        calls.clear()
        validate(M, strict=True)
        ric = ricci(M, curvature(M, levi_civita(M)))
        ricci_operator(M, ric)
        scalar_curvature(M, ric)
        assert len(calls) == 1, M.name
    # a zero leading minor ends the minors; the elimination goes on by a
    # row swap for the inverse
    calls.clear()
    M = FrameManifold("z", 3, {}, ((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    assert validate(M).items[-1].defect == "leading minor 1 has determinant 0"
    assert M.elimination[0] == [0] and len(calls) == 1
    assert M.g_inv_int == M.g_int and len(calls) == 1


@st.composite
def frames_for_validate(draw):
    """(table, g): brackets as FrameManifold takes them, often not
    antisymmetric, with a symmetric metric (possibly singular, indefinite
    or with a zero leading minor) or one made asymmetric in one entry."""
    g = [list(row) for row in draw(symmetric_matrices())]
    n = len(g)
    index = st.integers(0, n - 1)
    table: dict = {}
    for i, j, k, q in draw(st.lists(st.tuples(index, index, index, entry),
                                    max_size=3 * n)):
        table.setdefault((i, j), {})[k] = q
        if i != j and draw(st.booleans()):
            table.setdefault((j, i), {})[k] = -q
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.tuples(index, index).filter(lambda t: t[0] != t[1]))
        g[i][j] += draw(entry.filter(bool))
    return table, g


@settings(deadline=None)
@given(frames_for_validate(), st.booleans())
def test_validate_prints_the_per_triple_reference_report(case, strict):
    """validate's Jacobi sweep and its reading of the one elimination give
    the report of oracle's loops over every triple."""
    table, g = case
    n = len(g)
    M = FrameManifold("v", n, table, g)
    c = [[[M.c[i][j][k] for k in range(n)] for j in range(n)]
         for i in range(n)]
    assert validate(M, strict).render_text() == \
        oracle.validate_text("v", c, g, strict)


# -- the metric stored by columns, and kernel tables stored on ints -----------------

def ordered(x):
    """x with every dict turned into its list of items, so that == also
    compares the order of the keys."""
    if isinstance(x, dict):
        return [(k, ordered(v)) for k, v in x.items()]
    if isinstance(x, tuple):
        return tuple(ordered(v) for v in x)
    return x


@st.composite
def metric_frames(draw) -> tuple:
    """(table, g): a frame of tests/frames.py, or random brackets with a
    hand-picked metric: singular with an empty column, indefinite, all
    zero, or with a zero first leading minor."""
    kind = draw(st.sampled_from(["lie", "contact", "empty column",
                                 "indefinite", "zero", "first minor"]))
    if kind == "lie":
        c, g = draw(lie_algebras())
        return table_of(c), g
    if kind == "contact":
        return draw(contact_frames())[:2]
    table, g = draw(frames_for_validate())
    n = len(g)
    if kind == "empty column":
        k = draw(st.integers(0, n - 1))
        g = [[0 if k in (i, j) else x for j, x in enumerate(row)]
             for i, row in enumerate(g)]
    elif kind == "indefinite":
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n,
                              max_size=n).filter(lambda s: -1 in s))
        g = [[Fraction(s * (i + 1) if i == j else 0) for j in range(n)]
             for i, s in enumerate(signs)]
    elif kind == "zero":
        g = [[Fraction(0)] * n for _ in range(n)]
    else:
        g[0][0] = Fraction(0)
    return table, g


@settings(deadline=None)
@given(metric_frames(), st.booleans(), st.randoms(use_true_random=False))
def test_dense_and_sparse_metrics_give_one_manifold(case, zeros, rng):
    """A metric given dense or as its entries {(i, j): g_ij}, in any order,
    with its zero entries or without, makes equal manifolds, with equal
    eliminations, integer forms and strict validate texts; the dense view g
    is the matrix given. Where the metric is invertible, the kernels'
    connection and Ricci tensor, stored on ints, equal the records built
    from what integer_rows and integer_map make of their Fraction views,
    integer forms and key order included."""
    table, g = case
    n = len(g)
    entries = [((i, j), x) for i, row in enumerate(g) for j, x in enumerate(row)
               if x or zeros]
    rng.shuffle(entries)
    entries = dict(entries)
    dense, sparse = (FrameManifold("f", n, table, g),
                     FrameManifold("f", n, table, entries))
    assert dense == sparse
    assert all(list(col) == sorted(col) for col in sparse.g_int[0].values())
    assert oracle.dense(sparse.g_int) == [list(row) for row in g]
    assert dense.elimination == sparse.elimination
    assert ordered(dense.g_int) == ordered(sparse.g_int)
    assert validate(dense, strict=True).render_text() == \
        validate(sparse, strict=True).render_text()
    if dense.elimination[1] is None:
        for M in (dense, sparse):
            with pytest.raises(GeometryError, match="metric is singular"):
                M.g_inv_int
        return
    assert ordered(dense.g_inv_int) == ordered(sparse.g_inv_int)
    conn = levi_civita(sparse)
    ric = ricci(sparse, curvature(sparse, conn))
    assert "gamma" not in vars(conn) and "ric" not in vars(ric)
    koszul, dk = conn.koszul_int
    again = ConnectionTable(sparse, integer_rows(conn.gamma), integer_map(
        {key: Fraction(x, dk) for key, x in koszul.items()}))
    ric_again = RicciTensor(sparse, integer_map(ric.ric))
    assert conn == again and ric == ric_again
    for attr in ("gamma_int", "koszul_int", "lie_int"):
        assert ordered(getattr(conn, attr)) == ordered(getattr(again, attr)), attr
    assert ordered(ric.ric_int) == ordered(ric_again.ric_int)


def test_a_sparse_metric_index_out_of_range_is_a_geometry_error():
    for g in ({(0, 5): 1}, {(3, 0): 1}, {(-1, 0): 1}):
        with pytest.raises(GeometryError, match=re.escape(
                f"metric index out of range 0..2 at entry {next(iter(g))}")):
            FrameManifold("bad", 3, {(0, 1): {2: 1}}, g)
    for g in ([[1, 0], [0, 1]], [[1, 0, 0], [0, 1], [0, 0, 1]]):
        with pytest.raises(GeometryError, match="metric must be dim x dim"):
            FrameManifold("bad", 3, {}, g)


# -- connection -------------------------------------------------------------------

H5_CONNECTION = {
    (0, 1): (0, 0, 1, 0, 0), (0, 2): (0, -1, 0, 0, 0),
    (1, 0): (0, 0, -1, 0, 0), (1, 2): (1, 0, 0, 0, 0),
    (2, 0): (0, -1, 0, 0, 0), (2, 1): (1, 0, 0, 0, 0),
    (2, 3): (0, 0, 0, 0, -1), (2, 4): (0, 0, 0, 1, 0),
    (3, 2): (0, 0, 0, 0, -1), (3, 4): (0, 0, 1, 0, 0),
    (4, 2): (0, 0, 0, 1, 0), (4, 3): (0, 0, -1, 0, 0),
}


def test_h5_connection_table():
    conn = levi_civita(man("heisenberg5"))
    got = {key: tuple(row.get(k, 0) for k in range(5))
           for key, row in conn.gamma.items()}
    assert got == H5_CONNECTION


def test_stretched_h3_connection():
    conn = levi_civita(h3_stretched())
    assert conn.gamma == {
        (0, 1): {2: 1}, (0, 2): {1: -4},
        (1, 0): {2: -1}, (1, 2): {0: 4},
        (2, 0): {1: -4}, (2, 1): {0: 4},
    }


def test_nonjacobi3_connection():
    conn = levi_civita(man("nonjacobi3"))
    assert conn.gamma == {
        (0, 0): {2: -1},
        (0, 1): {2: Fraction(1, 2)},
        (0, 2): {0: 1, 1: Fraction(-1, 2)},
        (1, 0): {2: Fraction(-1, 2)},
        (1, 2): {0: Fraction(1, 2)},
        (2, 0): {1: Fraction(-1, 2)},
        (2, 1): {0: Fraction(1, 2)},
    }


def test_abelian_connection_vanishes():
    for name in ("abelian3", "abelian5"):
        assert list(levi_civita(man(name)).nonzero()) == []



@pytest.mark.parametrize("name", NAMES)
def test_cached_derivation_matches_kernels(name):
    """M.conn, M.riem and M.ric are computed once and equal the kernels."""
    M = man(name)
    assert M.conn is M.conn and M.riem is M.riem and M.ric is M.ric
    assert M.riem.manifold is M and M.ric.manifold is M
    conn = levi_civita(M)
    assert M.conn == conn
    assert M.riem == curvature(M, conn)
    assert M.ric == ricci(M, curvature(M, levi_civita(M)))


def test_c_g_and_phi_are_stored_as_integer_tables():
    """c, g and phi are stored only as integer tables over their least
    denominator: a parsed integer document gives tables of ints with d = 1,
    and int, Fraction and float input gives tables of the values given."""
    doc = parse_manifold("manifold t dim 3\nbracket e2 e1 = e1 - 2e3\n"
                         "metric g 3 1 = -1\nmetric g 1 1 = 2\n"
                         "metric g 2 2 = 1\nmetric g 3 3 = 1\n"
                         "contact xi = e3\ncontact phi e2 = -e1\n"
                         "contact phi e1 = e2\n")
    M, D = doc.manifold, doc.contact
    assert M.brackets_int == ({(0, 1): {0: -1, 2: 2}, (1, 0): {0: 1, 2: -2}}, 1)
    assert M.g_int == ({0: {0: 2, 2: -1}, 1: {1: 1}, 2: {0: -1, 2: 1}}, 1)
    assert D.phi_int == ({0: {1: 1}, 1: {0: -1}, 2: {}}, 1)
    for table, _ in (M.brackets_int, M.g_int, D.phi_int):
        assert [list(row) for row in table.values()] == \
            [sorted(row) for row in table.values()]
        assert all(type(x) is int for row in table.values() for x in row.values())
    assert list(M.brackets_int[0]) == [(0, 1), (1, 0)]

    q = Fraction(2, 3)
    M = FrameManifold("t", 3, both_orders({(0, 1): {2: q}, (0, 2): {1: 2}}),
                      [[1, 0, 0], [0, 0.5, 0], [0, 0, q]])
    assert M.brackets_int == ({(0, 1): {2: 2}, (0, 2): {1: 6},
                               (1, 0): {2: -2}, (2, 0): {1: -6}}, 3)
    assert M.g_int == ({0: {0: 6}, 1: {1: 3}, 2: {2: 4}}, 6)
    assert (M.c[0][1][2], M.c[0][2][1], M.c[1][0][2], M.c[2][0][1]) == (q, 2, -q, -2)
    assert oracle.dense(M.g_int) == [[1, 0, 0], [0, Fraction(1, 2), 0], [0, 0, q]]
    D = AlmostContactData([[0, -1.0, 0], [q, 0, 0], [0, 0, 0]],
                          (Fraction(0), Fraction(0), Fraction(1)))
    assert D.phi_int == ({0: {1: 2}, 1: {0: -3}, 2: {}}, 3)
    assert oracle.dense(D.phi_int) == [[0, -1, 0], [q, 0, 0], [0, 0, 0]]


# -- identities that hold for every antisymmetric bracket ---------------------------

def dense_tables(M: FrameManifold) -> tuple:
    """Gamma[i][j][k], R[i][j][k][l] and R lowered by g as dense lists, the
    last from oracle.lower, of the engine's tables."""
    conn = levi_civita(M)
    R = dense_curvature(curvature(M, conn).comp, M.dim)
    return dense_of(conn.gamma, M.dim), R, oracle.lower(R, oracle.dense(M.g_int))


def bianchi_sum(R: list, i: int, j: int, k: int) -> list:
    """R(e_i,e_j)e_k + R(e_j,e_k)e_i + R(e_k,e_i)e_j on dense lists."""
    return [sum(t) for t in zip(R[i][j][k], R[j][k][i], R[k][i][j])]


def test_torsion_free_all():
    for M in ALL:
        gamma = dense_tables(M)[0]
        for i, j in product(range(M.dim), repeat=2):
            assert [a - b for a, b in zip(gamma[i][j], gamma[j][i])] == \
                list(M.c[i][j]), (M.name, i, j)


def test_metric_compatibility_all():
    for M in ALL:
        gamma, m, g = dense_tables(M)[0], M.dim, oracle.dense(M.g_int)
        for k, i, j in product(range(m), repeat=3):
            d = (oracle.g_of(g, gamma[k][i], oracle.basis(m, j))
                 + oracle.g_of(g, oracle.basis(m, i), gamma[k][j]))
            assert d == 0, (M.name, k, i, j)


def test_curvature_antisymmetry_all():
    for M in ALL:
        R = dense_tables(M)[1]
        for i, j, k in product(range(M.dim), repeat=3):
            assert R[i][j][k] == [-x for x in R[j][i][k]], (M.name, i, j, k)


def test_lowered_antisymmetry_all():
    # g(R(X,Y)Z, W) = -g(R(X,Y)W, Z) needs only metric compatibility
    for M in ALL:
        Rl = dense_tables(M)[2]
        for i, j, k, l in product(range(M.dim), repeat=4):
            assert Rl[i][j][k][l] == -Rl[i][j][l][k], (M.name, i, j, k, l)


# -- identities that require the Jacobi identity -------------------------------------

def test_pair_symmetry_jacobi():
    for M in [man(n) for n in JACOBI_NAMES] + [h3_stretched()]:
        Rl = dense_tables(M)[2]
        for i, j, k, l in product(range(M.dim), repeat=4):
            assert Rl[i][j][k][l] == Rl[k][l][i][j], (M.name, i, j, k, l)


def test_first_bianchi_jacobi():
    for M in [man(n) for n in JACOBI_NAMES] + [h3_stretched()]:
        R = dense_tables(M)[1]
        for i, j, k in product(range(M.dim), repeat=3):
            assert not any(bianchi_sum(R, i, j, k)), (M.name, i, j, k)


def test_bianchi_sum_equals_jacobiator():
    # On a torsion-free connection the cyclic curvature sum reduces to the
    # cyclic bracket sum, so a Jacobi failure shows up verbatim.
    M = man("nonjacobi3")
    R, c = dense_tables(M)[1], M.c
    for i, j, k in product(range(3), repeat=3):
        jac = [sum(t) for t in zip(
            oracle.bracket(c, oracle.basis(3, i), c[j][k]),
            oracle.bracket(c, oracle.basis(3, j), c[k][i]),
            oracle.bracket(c, oracle.basis(3, k), c[i][j]))]
        assert bianchi_sum(R, i, j, k) == jac, (i, j, k)
    assert bianchi_sum(R, 0, 1, 2) == [0, 0, 1]


# -- curvature and Ricci values --------------------------------------------------------

def test_h5_curvature_spot_values():
    R = curvature(man("heisenberg5"), levi_civita(man("heisenberg5")))
    assert R.comp[0, 1, 0] == {1: 3}
    assert R.comp[0, 1, 1] == {0: -3}
    assert (1, 2, 0) not in R.comp
    assert R.comp[3, 4, 3] == {4: 3}
    assert R.comp[3, 4, 4] == {3: -3}
    assert R.comp[0, 1, 3] == {4: 2}
    assert R.comp[0, 2, 2] == {0: 1}
    assert sum(1 for _ in R.nonzero()) == len(R.comp) == 48


def test_h5_ricci():
    M = man("heisenberg5")
    ric = ricci(M, curvature(M, levi_civita(M)))
    assert ric.ric == {(0, 0): -2, (1, 1): -2, (2, 2): 4, (3, 3): -2, (4, 4): -2}
    assert scalar_curvature(M, ric) == sc(-4)


def test_h3_ricci():
    M = man("heisenberg3")
    ric = ricci(M, curvature(M, levi_civita(M)))
    assert [ric.entry(i, i) for i in range(3)] == [sc(-2), sc(-2), sc(2)]
    assert scalar_curvature(M, ric) == sc(-2)


def test_stretched_h3_ricci():
    M = h3_stretched()
    ric = ricci(M, curvature(M, levi_civita(M)))
    assert [ric.entry(i, i) for i in range(3)] == [sc(-8), sc(-8), sc(32)]
    for i in range(3):
        for j in range(3):
            if i != j:
                assert not ric.entry(i, j)
    assert scalar_curvature(M, ric) == sc(-8)


def test_nonjacobi3_ricci_asymmetric():
    M = man("nonjacobi3")
    ric = ricci(M, curvature(M, levi_civita(M)))
    want = ((Fraction(-3, 2), Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(-1, 2), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(-1, 2)))
    for j in range(3):
        for k in range(3):
            assert ric.entry(j, k) == ParamScalar.rational(want[j][k]), (j, k)
    assert ric.entry(0, 1) != ric.entry(1, 0)


def test_ricci_symmetric_on_jacobi_manifolds():
    for M in [man(n) for n in JACOBI_NAMES] + [h3_stretched()]:
        ric = ricci(M, curvature(M, levi_civita(M)))
        for j in range(M.dim):
            for k in range(M.dim):
                assert ric.entry(j, k) == ric.entry(k, j), (M.name, j, k)


def _sample_manifolds() -> dict:
    """The builtins and the dense-snapshot documents with an invertible
    metric, by name."""
    out = {name: man(name) for name in NAMES}
    out.update((name, parse_manifold(text).manifold)
               for name, text in documents().items() if name != "singular3")
    return out


@pytest.mark.parametrize("name", sorted(_sample_manifolds()))
def test_ricci_from_gamma_matches_the_curvature_table(name):
    """ricci works from Gamma and c without building R, and agrees with the
    naive contraction of the table R.comp once it is built."""
    M = _sample_manifolds()[name]
    m = M.dim
    R = curvature(M, levi_civita(M))
    ric = ricci(M, R)
    assert "comp" not in vars(R)
    assert [[ric.entry(j, k).constant_value() for k in range(m)]
            for j in range(m)] == oracle.naive_ricci(dense_curvature(R.comp, m))


def test_ricci_via_metric_agrees():
    for M in ALL:
        R = curvature(M, levi_civita(M))
        a = ricci(M, R)
        b = oracle.ricci_via_metric(M, R)
        for j in range(M.dim):
            for k in range(M.dim):
                assert a.entry(j, k) == sc(b[j][k]), (M.name, j, k)


# -- oracle equivalence ------------------------------------------------------------

def oracle_tables(M: FrameManifold):
    c = [[[Fraction(M.c[i][j][k]) for k in range(M.dim)]
          for j in range(M.dim)] for i in range(M.dim)]
    g = oracle.dense(M.g_int)
    gamma = oracle.naive_koszul(c, g)
    R = oracle.naive_curvature(c, gamma)
    return gamma, R, g


def test_oracle_equivalence_connection_curvature_ricci():
    for M in ALL:
        gamma, R_o, g = oracle_tables(M)
        conn = levi_civita(M)
        R = curvature(M, conn)
        ric = ricci(M, R)
        m = M.dim
        assert dense_of(conn.gamma, m) == gamma, M.name
        assert dense_curvature(R.comp, m) == R_o, M.name
        ric_o = oracle.naive_ricci(R_o)
        ric_g = oracle.ricci_via_ginv(R_o, g)
        for j in range(m):
            for k in range(m):
                assert ric.entry(j, k).constant_value() == ric_o[j][k], (M.name, j, k)
                assert ric_o[j][k] == ric_g[j][k], (M.name, j, k)


@pytest.mark.parametrize("rows, cols", [(7, 7), (3, 5), (5, 3), (5, 7)])
def test_covariant_derivative_endo_refuses_a_matrix_of_another_size(rows, cols):
    M = man("heisenberg5")
    Q = tuple(tuple(Fraction(a == j) for j in range(cols)) for a in range(rows))
    with pytest.raises(GeometryError, match=f"^a column or row of Q has "
                                            f"{rows if rows != 5 else cols} "
                                            f"entries, not 5$"):
        covariant_derivative_endo(M, M.conn, Q)


# -- derived operators ----------------------------------------------------------------

def test_lie_derivative_and_killing():
    """xi = e3 is a Killing field of heisenberg5, e1 is not: L_{e1} g has
    the nonzero entries (2,3) and (3,2), both -2."""
    conn = levi_civita(man("heisenberg5"))
    assert joined(LieDerivativeParts(conn, vec(0, 0, 1, 0, 0))) == {}
    assert joined(LieDerivativeParts(conn, vec(1, 0, 0, 0, 0))) == \
        {(1, 2): sc(-2), (2, 1): sc(-2)}


def test_ricci_operator_identity_metric():
    M = man("heisenberg5")
    ric = ricci(M, curvature(M, levi_civita(M)))
    q = ricci_operator(M, ric)
    for a in range(5):
        for j in range(5):
            assert q[a][j] == ric.entry(a, j)


def test_ricci_operator_stretched_metric():
    # Q = g^{-1} ric: rows scale by the inverse metric
    M = h3_stretched()
    ric = ricci(M, curvature(M, levi_civita(M)))
    q = ricci_operator(M, ric)
    assert q[0][0] == sc(-8) and q[1][1] == sc(-8)
    assert q[2][2] == sc(8)


def test_covariant_derivative_of_ricci_operator():
    M = man("heisenberg5")
    conn = levi_civita(M)
    ric = ricci(M, curvature(M, conn))
    dq = covariant_derivative_endo(M, conn, ricci_operator(M, ric))
    assert list(dq.items()) == [
        ((0, 1), {2: sc(-6)}), ((0, 2), {1: sc(-6)}),
        ((1, 0), {2: sc(6)}), ((1, 2), {0: sc(6)}),
        ((3, 2), {4: sc(-6)}), ((3, 4), {2: sc(-6)}),
        ((4, 2), {3: sc(6)}), ((4, 3), {2: sc(6)}),
    ]


def endo_terms(rows: dict) -> dict:
    """{(i, j): {k: {monomial: Fraction}}} of covariant_derivative_endo's
    rows, each entry as its polynomial's terms."""
    return {key: {k: x.terms() for k, x in row.items()}
            for key, row in rows.items()}


@settings(max_examples=60, deadline=None)
@given(lie_algebras().filter(lambda cg: len(cg[1]) <= 7), st.data())
def test_covariant_derivative_endo_matches_the_naive_nabla_q(case, data):
    """The sparse rows of nabla Q, in ascending (i, j) and k order, hold
    exactly the nonzero entries of oracle.endo_derivative over every pair
    (i, j), on random frames with m <= 7: for a rational Q, and for
    Q = p A + B, whose entries carry p times A's and B's naive entries."""
    c, g = case
    m = len(g)
    M = FrameManifold("f", m, table_of(c), g)
    gamma = dense_of(M.conn.gamma, m)
    square = st.lists(st.lists(coefficients, min_size=m, max_size=m),
                      min_size=m, max_size=m)
    A, B = ([[Fraction(x) for x in row] for row in data.draw(square)]
            for _ in range(2))
    p = (("p", 1),)

    def naive(*parts) -> dict:
        """{(i, j): {k: {monomial: Fraction}}}, one term per (monomial, Q)."""
        out = {}
        for i, j in product(range(m), repeat=2):
            row = {}
            for mono, Q in parts:
                for k, x in enumerate(oracle.endo_derivative(gamma, Q, i, j)):
                    if x:
                        row.setdefault(k, {})[mono] = x
            if row:
                out[i, j] = row
        return out

    rows = covariant_derivative_endo(M, M.conn, B)
    assert endo_terms(rows) == naive(((), B))
    assert list(rows) == sorted(rows)
    assert all(list(row) == sorted(row) for row in rows.values())
    Q = [[ParamScalar.param("p") * a + b for a, b in zip(ra, rb)]
         for ra, rb in zip(A, B)]
    assert endo_terms(covariant_derivative_endo(M, M.conn, Q)) == \
        naive((p, A), ((), B))


# -- the comparer against the per-key reference ----------------------------------

integer_tables = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.dictionaries(st.integers(0, 4), st.integers(-3, 3), max_size=4),
    max_size=6)
denominators = st.integers(1, 6).flatmap(lambda d: st.sampled_from((d, -d)))


@st.composite
def compare_cases(draw):
    """Two sides equal on a shared table T (lhs = T dl, rhs = T dr, so most
    keys agree), then entries and keys of either side overwritten: explicit
    zeros, keys on one side only, and unequal denominators all occur."""
    base, dl, dr = draw(integer_tables), draw(denominators), draw(denominators)
    lhs = {key: {k: x * dl for k, x in row.items()} for key, row in base.items()}
    rhs = {key: {k: x * dr for k, x in row.items()} for key, row in base.items()}
    for side in (lhs, rhs):
        for key, row in draw(integer_tables).items():
            side.setdefault(key, {}).update(row)
    return lhs, dl, rhs, dr


@settings(deadline=None)
@given(compare_cases(), st.booleans())
def test_compare_prints_what_the_per_key_reference_prints(case, with_fmt):
    lhs, dl, rhs, dr = case
    fmt = (lambda key, left, right: [f"{key}: {sorted(left.items())} "
                                     f"vs {sorted(right.items())}"]) if with_fmt else None
    assert compare(lhs, dl, rhs, dr, fmt) == \
        oracle.reference_compare(lhs, dl, rhs, dr, fmt)
