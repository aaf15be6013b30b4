"""Frame-change invariance: writing a frame e in the frame e' = e A, for A a
product of rational elementary matrices, must transform the connection, the
curvature and the Ricci tensor as tensors, leave the scalar curvature and
the conformal lambda for X = xi unchanged, leave the lambda solved for
every flavor and a general rational field X (A^{-1} X in the frame e')
unchanged, and leave every verdict of validate and of the contact checks
unchanged. The expected tensors come from the engine's own output in the
frame e and the exact arithmetic of ``frames``; no value is copied from the
engine in the frame e'."""
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from frames import (change_frame, document, elementary_change,
                    elementary_steps, heisenberg, matvec, small)
from framecalc.catalog import load_builtin
from framecalc.contact import (check_almost_contact, check_contact_metric,
                               check_curvature_identity, check_normality,
                               check_reeb_ricci, check_sasakian)
from framecalc.geometry import (FrameVector, curvature, levi_civita, ricci,
                                scalar_curvature, validate)
from framecalc.manifold_format import parse_manifold
from framecalc.solitons import SolitonFlavor, solve_lambda_trace


def _milnor(l1, l2, l3) -> tuple:
    """Milnor's frame [e2,e3] = l1 e1, [e3,e1] = l2 e2, [e1,e2] = l3 e3."""
    c = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    for (i, j, k), x in {(1, 2, 0): l1, (2, 0, 1): l2, (0, 1, 2): l3}.items():
        c[i][j][k], c[j][i][k] = x, -x
    return 3, c, [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]


def _nonnormal5() -> tuple:
    """H_5 with an almost-contact metric phi that is not normal."""
    m, c, g, xi, _ = heisenberg(2)
    phi = [[Fraction(0)] * m for _ in range(m)]
    for a, b in ((0, 1), (4, 3)):
        phi[b][a], phi[a][b] = Fraction(1), Fraction(-1)
    return m, c, g, xi, phi


def _nonjacobi3() -> tuple:
    M = load_builtin("nonjacobi3").manifold
    return 3, [[list(row) for row in plane] for plane in M.c], \
        oracle.dense(M.g_int)


@st.composite
def frames_and_changes(draw):
    kind = draw(st.sampled_from(("h3", "h5", "nonnormal5", "milnor",
                                 "nonjacobi3")))
    if kind == "h3":
        base = heisenberg(1)
    elif kind == "h5":
        base = heisenberg(2)
    elif kind == "nonnormal5":
        base = _nonnormal5()
    elif kind == "milnor":
        base = _milnor(draw(small), draw(small), draw(small))
    else:
        base = _nonjacobi3()
    m = base[0]
    field = draw(st.lists(small, min_size=m, max_size=m))
    return base, draw(elementary_steps(m, 1, 6)), field


def _along(T: dict, mat, axis: int, m: int) -> dict:
    """T'[.., a, ..] = sum_i mat[a][i] T[.., i, ..] on the given axis."""
    out = {}
    for idx, x in T.items():
        for a in range(m):
            if mat[a][idx[axis]]:
                key = idx[:axis] + (a,) + idx[axis + 1:]
                out[key] = out.get(key, 0) + mat[a][idx[axis]] * x
    return {key: x for key, x in out.items() if x}


def _transformed(T: dict, lower: int, A, Ainv, m: int) -> dict:
    """A tensor with `lower` lower indices first and upper ones after."""
    At = [list(col) for col in zip(*A)]
    for axis in range(len(next(iter(T), ()))):
        T = _along(T, At if axis < lower else Ainv, axis, m)
    return T


def _flat(table: dict) -> dict:
    return {(*key, k): x for key, row in table.items() for k, x in row.items()}


def _derive(text: str, field) -> dict:
    doc = parse_manifold(text)
    M, D = doc.manifold, doc.contact
    conn = levi_civita(M)
    R = curvature(M, conn)
    ric = ricci(M, R)
    out = {"M": M, "conn": conn, "R": R, "ric": ric,
           "r": scalar_curvature(M, ric),
           "validate": validate(M, strict=True).overall}
    X = FrameVector(field)
    out["lambdas"] = [solve_lambda_trace(M, conn, ric, X, flavor).lam
                      for flavor in SolitonFlavor]
    if D is not None:
        out["contact"] = [check_almost_contact(M, D).overall,
                          check_sasakian(M, conn, D).overall,
                          check_normality(M, D).overall,
                          check_contact_metric(M, D).overall,
                          check_curvature_identity(M, R, D).overall,
                          check_reeb_ricci(M, ric, D).overall]
        out["lambda"] = solve_lambda_trace(M, conn, ric, D.xi_vector(),
                                           SolitonFlavor.CONFORMAL).lam
    return out


@settings(max_examples=40, deadline=None)
@given(frames_and_changes())
def test_frame_change_invariance(case):
    (m, c, g, *contact), steps, field = case
    A, Ainv = elementary_change(m, steps)
    old = _derive(document("old", c, g, *contact), field)
    new = _derive(document("new", *change_frame(c, g, A, Ainv, *contact)),
                  matvec(Ainv, field))

    assert _flat(new["conn"].gamma) == \
        _transformed(_flat(old["conn"].gamma), 2, A, Ainv, m)
    assert _flat(new["R"].comp) == \
        _transformed(_flat(old["R"].comp), 3, A, Ainv, m)
    assert new["ric"].ric == _transformed(old["ric"].ric, 2, A, Ainv, m)
    assert new["r"] == old["r"]
    for key in ("validate", "contact", "lambda", "lambdas"):
        assert new.get(key) == old.get(key), key

    # no float may slip into a table through an int / int division
    M = new["M"]
    values = [*new["ric"].ric.values(), *_flat(new["conn"].gamma).values(),
              *_flat(new["R"].comp).values()]
    assert all(type(x) is Fraction for x in values)
    ints = [*new["conn"].koszul_int[0].values(),
            *(x for col in M.g_inv_int[0].values() for x in col.values())]
    assert all(type(x) is int for x in ints)
    assert all(type(x) in (int, Fraction) for x in M.elimination[0])
