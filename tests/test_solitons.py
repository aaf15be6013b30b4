"""Soliton residuals, lambda solving, the gradient residual and curvature
identity, and the closed-form concurrent-potential constants."""
import random
import sys
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framecalc.cli
import framecalc.geometry
import framecalc.scalars
import framecalc.solitons
import oracle
from framecalc.catalog import builtin_names, load_builtin
from frames import (gram_plus_identity, heisenberg, identity, lie_algebras,
                    small, sparse_brackets, table_of)
from framecalc.geometry import (FrameManifold, FrameVector,
                                LieDerivativeParts, curvature, joined,
                                levi_civita, matrix_of, ricci,
                                scalar_curvature)
from framecalc.manifold_format import parse_manifold
from framecalc.reports import CheckReport
from framecalc.scalars import ParamScalar
from framecalc.solitons import (Classification, GradientData,
                                IntegrabilityError, LambdaSolve, SolitonError,
                                SolitonFlavor, add_identity_check,
                                check_gradient_curvature_identity, classify,
                                concurrent_soliton_constants,
                                gradient_soliton_residual,
                                integrability_defects, solve_lambda_trace,
                                soliton_residual)

P = ParamScalar.param("p")


def sc(q) -> ParamScalar:
    return ParamScalar.rational(Fraction(q))


def setup(name):
    doc = load_builtin(name)
    M = doc.manifold
    conn = levi_civita(M)
    R = curvature(M, conn)
    return doc, M, conn, R, ricci(M, R)


def zero_table(t) -> bool:
    return not any(e for row in t for e in row)


def basis(m: int, i: int) -> FrameVector:
    return FrameVector(tuple(int(k == i) for k in range(m)))


def zero(m: int) -> FrameVector:
    return FrameVector((0,) * m)


# -- the soliton layer against a naive reference ------------------------------------

Q = ParamScalar.param("q")
R = ParamScalar.param("r")


# R x_I R^3: e1 acts on R^3 as the identity, so tr ad_{e1} = 3 and the Lie
# algebra is not unimodular; with the identity metric it is real hyperbolic
# 4-space, ric = -3 g.
SEMIDIRECT4 = ("manifold semidirect4 dim 4\nbracket e1 e2 = e2\n"
               "bracket e1 e3 = e3\nbracket e1 e4 = e4\nmetric identity\n")


@lru_cache(maxsize=None)
def reference_geometry(name: str) -> tuple:
    """(M, conn, ric, gamma, naive ric, g) for a builtin, a dense-snapshot
    document with an invertible metric or semidirect4; gamma and the naive
    Ricci tensor come from tests/oracle.py."""
    from test_dense_snapshot import documents
    if name in builtin_names():
        M = load_builtin(name).manifold
    else:
        text = SEMIDIRECT4 if name == "semidirect4" else documents()[name]
        M = parse_manifold(text).manifold
    m = M.dim
    c = [[list(M.c[i][j]) for j in range(m)] for i in range(m)]
    g = oracle.dense(M.g_int)
    gamma = oracle.naive_koszul(c, g)
    conn = levi_civita(M)
    return (M, conn, ricci(M, curvature(M, conn)), gamma,
            oracle.naive_ricci(oracle.naive_curvature(c, gamma)), g)


REFERENCE_NAMES = ("abelian3", "abelian5", "heisenberg3", "heisenberg5",
                   "nonjacobi3", "dense5", "dense7", "frac5", "hyperbolic3",
                   "indefinite3", "nonjacobi4", "nonnormal5", "semidirect4")


def random_scalar(rng) -> ParamScalar:
    """A random polynomial in q, r and p: rational constant, linear terms
    and now and then q*r."""
    def frac():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    out = sc(frac())
    for sym in (Q, R, P):
        if rng.random() < 0.6:
            out = out + sym * frac()
    if rng.random() < 0.2:
        out = out + Q * R * frac()
    return out


def same_table(table, ref) -> bool:
    return all(table[i][j] == ref[i][j] for i in range(len(ref))
               for j in range(len(ref)))


def check_against_reference(name: str, X: FrameVector, lams) -> None:
    """L_X g (LieDerivativeParts), the solved lambda, its residual and
    status, and the residual at each of lams, against the naive loops."""
    M, conn, ric, gamma, ric_ref, g = reference_geometry(name)
    m = M.dim
    lx = oracle.naive_lie_derivative(gamma, g, list(X.coeffs))
    assert same_table(matrix_of(m, joined(LieDerivativeParts(conn, X))), lx), name
    for flavor in SolitonFlavor:
        shift = P + Fraction(2, m) if flavor.is_conformal else 0
        solve = solve_lambda_trace(M, conn, ric, X, flavor)
        lam = oracle.naive_trace_lambda(g, lx, ric_ref, shift)
        assert solve.lam == lam, (name, flavor)
        res = oracle.naive_soliton_residual(g, lx, ric_ref, 2 * lam - shift)
        assert same_table(solve.residual, res), (name, flavor)
        exact = all(res[i][j] == 0 for i in range(m) for j in range(m))
        assert solve.status == ("einstein_exact" if exact else "trace_only")
        for lam in lams:
            res = oracle.naive_soliton_residual(g, lx, ric_ref, 2 * lam - shift)
            assert same_table(soliton_residual(M, conn, ric, X, lam, flavor),
                              res), (name, flavor, lam)


@pytest.mark.parametrize("name", REFERENCE_NAMES)
def test_soliton_layer_matches_the_naive_reference(name):
    rng = random.Random(name)
    M, conn = reference_geometry(name)[:2]
    m = M.dim
    # the trace the solve reads from the brackets: g^{ij} (L_{e_a} g)_ij =
    # 2 div e_a = -2 tr ad_{e_a}
    lie, dl = conn.lie_int
    gi_cols, dgi = M.g_inv_int
    for a in range(m):
        tr = Fraction(sum(x * gi_cols[j].get(i, 0)
                          for (i, j), x in lie.get(a, {}).items()), dl * dgi)
        assert tr == -2 * sum(M.c[a][k][k] for k in range(m)), (name, a)
    for _ in range(3):
        X = FrameVector(tuple(random_scalar(rng) if rng.random() < 0.7
                              else sc(0) for _ in range(m)))
        check_against_reference(name, X, [random_scalar(rng)
                                          for _ in range(2)])


small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
scalars = st.builds(lambda a, b, c, d, e: sc(a) + Q * b + R * c + P * d + Q * R * e,
                    small, small, small, small, small)


@settings(deadline=None, max_examples=settings.default.max_examples // 5)
@given(st.sampled_from(("heisenberg5", "dense5", "nonjacobi3")), st.data())
def test_soliton_layer_matches_the_naive_reference_property(name, data):
    m = reference_geometry(name)[0].dim
    X = FrameVector(tuple(data.draw(st.lists(scalars, min_size=m, max_size=m))))
    check_against_reference(name, X, [data.draw(scalars)])


@settings(deadline=None, max_examples=settings.default.max_examples // 2)
@given(lie_algebras())
def test_zero_field_lambda_is_the_scalar_curvature_over_m_property(alg):
    """For X = 0 the trace equation's constant term is 2r, twice the scalar
    curvature: lambda = r/m for the Ricci flavors and p/2 + (r + 1)/m for
    the conformal ones, also on non-unimodular frames with non-identity
    metrics. r is the oracle's: Ricci from the brackets (Besse), traced
    with oracle.inv(g)."""
    c, g = alg
    m = len(g)
    gi, ric = oracle.inv(g), oracle.besse_ricci(sparse_brackets(c), g)
    r = sum(gi[i][j] * ric[i][j] for i in range(m) for j in range(m))
    M, conn, _, ric_t = _engine(c, g)
    assert scalar_curvature(M, ric_t) == sc(r)
    for flavor in SolitonFlavor:
        want = P / 2 + sc((r + 1) / m) if flavor.is_conformal else sc(r / m)
        assert solve_lambda_trace(M, conn, ric_t, zero(m),
                                  flavor).lam == want, flavor


def test_one_solve_computes_the_lie_derivative_once(monkeypatch):
    """solve_lambda_trace takes the trace and the residual from one L_X g;
    soliton_residual also computes it once. L_X g reaches the soliton layer
    only as LieDerivativeParts."""
    calls = []
    init = framecalc.geometry.LieDerivativeParts.__init__

    def counted(self, *args):
        calls.append(args)
        init(self, *args)

    assert not hasattr(framecalc.solitons, "lie_derivative_metric")
    monkeypatch.setattr(framecalc.geometry.LieDerivativeParts, "__init__", counted)
    doc, M, conn, R_, ric = setup("heisenberg5")
    X = FrameVector([P, 0, Q, 0, 1])
    for flavor in SolitonFlavor:
        calls.clear()
        solve_lambda_trace(M, conn, ric, X, flavor)
        assert len(calls) == 1, (flavor, calls)
    calls.clear()
    soliton_residual(M, conn, ric, X, P - 1, SolitonFlavor.CONFORMAL)
    assert len(calls) == 1, calls


@pytest.mark.parametrize("name", ("heisenberg5", "abelian5", "dense5"))
def test_a_solve_builds_its_residual_matrix_only_when_read(monkeypatch, name):
    """solve_lambda_trace decides its status on the integer residual, one
    monomial at a time (q xi is a Killing field of heisenberg5, so L_X g has
    an empty q part), in one sweep of _residual_monomials; the residual
    parts, from a second sweep, and the matrix are built, once, on the
    first read of .residual, for a trace_only and an einstein_exact
    solve alike, and equal soliton_residual at the solved lambda. Equality
    and repr are those of a LambdaSolve whose builder returns the matrix."""
    M, conn, ric = reference_geometry(name)[:3]
    calls = []
    for fn in (framecalc.geometry.matrix_of, framecalc.scalars.join_parts,
               framecalc.solitons._residual_monomials):
        def counted(*args, fn=fn):
            calls.append(fn.__name__)
            return fn(*args)
        for mod_name, mod in list(sys.modules.items()):  # every binding
            if mod_name.startswith("framecalc") and getattr(
                    mod, fn.__name__, None) is fn:
                monkeypatch.setattr(mod, fn.__name__, counted)
    statuses = set()
    for X in (zero(5), FrameVector([P, 0, Q, 0, 1]),
              FrameVector([0, 0, Q, 0, 0])):
        for flavor in SolitonFlavor:
            calls.clear()
            solve = solve_lambda_trace(M, conn, ric, X, flavor)
            assert calls == ["_residual_monomials"], (name, flavor)
            calls.clear()
            statuses.add(solve.status)
            res = solve.residual
            assert sorted(calls) == ["_residual_monomials", "join_parts",
                                     "matrix_of"], calls
            calls.clear()
            assert solve.residual is res and calls == []
            assert res == soliton_residual(M, conn, ric, X, solve.lam, flavor)
            assert solve.status == ("einstein_exact" if zero_table(res)
                                    else "trace_only"), (name, X, flavor)
            given_matrix = LambdaSolve(solve.lam, solve.form, solve.status,
                                       lambda: res)
            assert solve == given_matrix and hash(solve) == hash(given_matrix)
            assert repr(solve) == repr(given_matrix)
            assert repr(solve).startswith(
                f"LambdaSolve(lam={solve.lam!r}, form={solve.form!r}, "
                f"status={solve.status!r}, residual=((ParamScalar(")
    assert statuses == {"einstein_exact" if name == "abelian5"
                        else "trace_only"}, name
    assert solve_lambda_trace(M, conn, ric, zero(5),
                              SolitonFlavor.RICCI).status == (
        "einstein_exact" if name == "abelian5" else "trace_only")


def test_a_solve_builds_each_lie_derivative_part_at_most_once(monkeypatch):
    """L_X g is built one monomial part at a time, on the part's first read:
    a trace_only status stops at the first monomial with a nonzero residual
    entry (p e1 is not Killing on heisenberg5), .residual builds only the
    parts still missing, and an einstein_exact status reads every part
    once."""
    built = []
    part = framecalc.geometry.LieDerivativeParts._part

    def counted(self, coeffs):
        built.append(coeffs)
        return part(self, coeffs)
    monkeypatch.setattr(framecalc.geometry.LieDerivativeParts, "_part", counted)
    for name, X, status, first, total in (
            ("heisenberg5", [P, 0, Q, 0, 1], "trace_only", 1, 3),
            ("abelian5", [P, Q / 2 - 1, 0, R, Fraction(1, 3)],
             "einstein_exact", 4, 4)):
        M, conn, ric = reference_geometry(name)[:3]
        X = FrameVector(X)
        for flavor in SolitonFlavor:
            built.clear()
            solve = solve_lambda_trace(M, conn, ric, X, flavor)
            assert solve.status == status and len(built) == first, (name, flavor)
            built.clear()
            res = solve.residual
            assert len(built) == total - first, (name, flavor)
            built.clear()
            assert solve.residual is res and built == []
            assert res == soliton_residual(M, conn, ric, X, solve.lam, flavor)


def test_check_gradient_tests_integrability_once(monkeypatch, capsys):
    """One check-gradient call finds the integrability defects once, and its
    residual and identity items use that answer."""
    calls = []
    fn = framecalc.solitons.integrability_defects

    def counted(*args):
        calls.append(args)
        return fn(*args)
    monkeypatch.setattr(framecalc.solitons, "integrability_defects", counted)
    monkeypatch.setattr(framecalc.cli, "integrability_defects", counted)
    for df, dlam, code in (("1,0,0,0,0", "0,0,0,0,0", 1),
                           ("0,0,1,0,0", "0,0,0,0,0", 1),
                           ("0,0,0,0,0", None, 1)):
        calls.clear()
        argv = ["check-gradient", "--builtin", "heisenberg5", "--df", df,
                "--flavor", "conformal", "--lambda", "1/2*p - 3/5"]
        if dlam is not None:
            argv += ["--dlambda", dlam]
        assert framecalc.cli.main(argv) == code
        capsys.readouterr()
        assert len(calls) == 1, (df, calls)


@pytest.mark.parametrize("name", REFERENCE_NAMES)
def test_gradient_residual_matches_the_naive_reference(name):
    """Hess f + ric - s' g against oracle.naive_hessian, for every flavor,
    integrable df (combinations of a basis of the closed frame-constant
    forms) and lambda parametric in p, q and r."""
    M, conn, ric, gamma, ric_ref, g = reference_geometry(name)
    m = M.dim
    closed = oracle.annihilator([M.c[i][j] for i in range(m)
                                 for j in range(i + 1, m)], m)
    rng = random.Random(name)
    for _ in range(3):
        a = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in closed]
        df = [sum((x * v[k] for x, v in zip(a, closed)), Fraction(0))
              for k in range(m)]
        assert integrability_defects(M, GradientData.from_values(df)) == []
        hess = oracle.naive_hessian(gamma, df)
        for flavor in SolitonFlavor:
            lam = random_scalar(rng) + Q * Fraction(rng.randint(1, 3))
            shift = P / 2 + Fraction(1, m) if flavor.is_conformal else 0
            want = [[hess[i][j] + ric_ref[i][j] - (lam - shift) * g[i][j]
                     for j in range(m)] for i in range(m)]
            got = gradient_soliton_residual(
                M, conn, ric, GradientData.from_values(df), lam, flavor)
            assert same_table(got, want), (name, df, flavor)


def test_soliton_layer_does_no_per_entry_polynomial_arithmetic(monkeypatch):
    """The residuals are built from monomial parts on ints, and s, lambda and
    the trace equation as Fraction maps, so a solve or a residual makes as
    many ParamScalar +, -, * and / calls on H_9 as on H_5, for the same
    parametric X and lambda: none."""
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__",
                 "__mul__", "__rmul__", "__truediv__", "__neg__"):
        def counted(self, *other, fn=getattr(ParamScalar, name)):
            calls.append(fn)
            return fn(self, *other)
        monkeypatch.setattr(ParamScalar, name, counted)

    def counts(n: int) -> list:
        m, c, g, xi, phi = heisenberg(n)
        M = FrameManifold(f"h{m}", m, table_of(c), g)
        conn = levi_civita(M)
        ric = ricci(M, curvature(M, conn))
        zeros = [0] * (n - 1)
        X = FrameVector([Q + 1, *zeros, P / 2 - Q, *zeros, R])
        lam = P / 3 + Q - 1
        gd = GradientData.from_values([1, *zeros, 0, *zeros, 2])
        out = []
        for flavor in SolitonFlavor:
            for run in (lambda: solve_lambda_trace(M, conn, ric, X,
                                                   flavor).residual,
                        lambda: soliton_residual(M, conn, ric, X, lam, flavor),
                        lambda: gradient_soliton_residual(M, conn, ric, gd,
                                                          lam, flavor)):
                calls.clear()
                run()
                out.append(len(calls))
        return out
    assert counts(2) == counts(4) == [0] * 12


# -- trace solving ----------------------------------------------------------------

def test_h5_conformal_solve():
    doc, M, conn, R, ric = setup("heisenberg5")
    xi = FrameVector(doc.contact.xi)
    solve = solve_lambda_trace(M, conn, ric, xi, SolitonFlavor.CONFORMAL)
    assert solve.lam == P / 2 - Fraction(3, 5)
    assert solve.lam.render() == "1/2*p + -3/5"
    assert solve.form.equation_str() == "10*lambda = 5*p + -6"
    assert solve.status == "trace_only"
    want = {(i, i): Fraction(-12, 5) for i in range(5)}
    want[(2, 2)] = Fraction(48, 5)
    for i in range(5):
        for j in range(5):
            expect = want.get((i, j), Fraction(0)) if i == j else Fraction(0)
            assert solve.residual[i][j] == ParamScalar.rational(expect), (i, j)


def test_h5_ricci_flavor_solve():
    doc, M, conn, R, ric = setup("heisenberg5")
    xi = FrameVector(doc.contact.xi)
    solve = solve_lambda_trace(M, conn, ric, xi, SolitonFlavor.RICCI)
    # trace of 2 ric = -8, so 10 lambda = -8
    assert solve.lam == sc(Fraction(-4, 5))
    assert solve.status == "trace_only"


def test_abelian_einstein_exact():
    doc, M, conn, R, ric = setup("abelian5")
    for X in (zero(5), basis(5, 1)):
        solve = solve_lambda_trace(M, conn, ric, X, SolitonFlavor.RICCI)
        assert solve.lam == sc(0)
        assert solve.status == "einstein_exact"
        assert zero_table(solve.residual)


def test_non_unimodular_solve_values():
    """On R x_I R^3, where tr ad_{e1} = 3, the trace of L_{e1} g is -6:
    lambda and the status for X = 0 and X = e1."""
    M, conn, ric = reference_geometry("semidirect4")[:3]
    assert all(ric.entry(i, j) == sc(-3 if i == j else 0)
               for i in range(4) for j in range(4))
    e1 = basis(4, 0)
    for X, flavor, lam, status in (
            (zero(4), SolitonFlavor.RICCI, sc(-3), "einstein_exact"),
            (e1, SolitonFlavor.RICCI, sc(Fraction(-15, 4)), "trace_only"),
            (e1, SolitonFlavor.CONFORMAL, P / 2 - Fraction(7, 2), "trace_only")):
        solve = solve_lambda_trace(M, conn, ric, X, flavor)
        assert (solve.lam, solve.status) == (lam, status), (X, flavor)
    assert solve.lam.render() == "1/2*p + -7/2"


@pytest.mark.parametrize("name", REFERENCE_NAMES)
def test_no_float_enters_a_solve(monkeypatch, name):
    """Every coefficient of lambda, of the trace equation, of s and of the
    residual matrix is a Fraction, and the residual parts hold ints, for
    every flavor. Equality cannot see a float (0.5 == 1/2), so the types
    are read."""
    M, conn, ric = reference_geometry(name)[:3]
    m = M.dim
    seen = []
    fn = framecalc.solitons._residual_monomials

    def recorded(*args):
        seen.append((args[4], dict(fn(*args))))
        return iter(seen[-1][1].items())
    monkeypatch.setattr(framecalc.solitons, "_residual_monomials", recorded)
    rng = random.Random(name)
    fields = [zero(m), basis(m, 0),
              *(FrameVector(tuple(random_scalar(rng) for _ in range(m)))
                for _ in range(2))]

    def fractions(terms: dict) -> bool:
        return all(type(c) is Fraction for c in terms.values())
    for X in fields:
        for flavor in SolitonFlavor:
            seen.clear()
            solve = solve_lambda_trace(M, conn, ric, X, flavor)
            res = solve.residual
            (s, parts), residual = seen  # the status sweep, then .residual
            assert residual == (s, parts)
            assert type(solve.form.coefficient) is Fraction
            assert fractions(solve.lam.terms()), (name, flavor)
            assert fractions(solve.form.remainder.terms()), (name, flavor)
            assert fractions(s), (name, flavor)
            for scale in (framecalc.solitons._scale,
                          framecalc.solitons._gradient_scale):
                assert fractions(scale(flavor, solve.lam, m)), (name, flavor)
            for vec, d in parts.values():
                assert type(d) is int, (name, flavor)
                assert all(type(x) is int for x in vec.values()), (name, flavor)
            assert all(fractions(e.terms()) for row in res for e in row)


def test_solved_lambda_kills_the_trace():
    # the g^{-1} contraction of the residual vanishes by construction
    for name in ("heisenberg5", "heisenberg3", "abelian3", "nonjacobi3"):
        doc, M, conn, R, ric = setup(name)
        for idx in range(M.dim):
            X = basis(M.dim, idx)
            for flavor in SolitonFlavor:
                solve = solve_lambda_trace(M, conn, ric, X, flavor)
                gi = oracle.dense(M.g_inv_int)
                tr = sc(0)
                for i in range(M.dim):
                    for j in range(M.dim):
                        if gi[i][j]:
                            tr = tr + solve.residual[i][j] * gi[i][j]
                assert not tr, (name, idx, flavor)


def test_flavor_shift_invariant():
    # the conformal equation at lambda + p/2 + 1/m matches the plain one at lambda
    doc, M, conn, R, ric = setup("heisenberg5")
    X = basis(5, 0)
    lam = P * 2 + Fraction(1, 3)
    shifted = lam + P / 2 + Fraction(1, 5)
    a = soliton_residual(M, conn, ric, X, lam, SolitonFlavor.RICCI)
    b = soliton_residual(M, conn, ric, X, shifted, SolitonFlavor.CONFORMAL)
    for i in range(5):
        for j in range(5):
            assert a[i][j] == b[i][j]


def test_almost_flavors_share_the_residual_form():
    doc, M, conn, R, ric = setup("heisenberg3")
    X = basis(3, 2)
    lam = P - 1
    a = soliton_residual(M, conn, ric, X, lam, SolitonFlavor.RICCI)
    b = soliton_residual(M, conn, ric, X, lam, SolitonFlavor.ALMOST_RICCI)
    assert a == b
    c = soliton_residual(M, conn, ric, X, lam, SolitonFlavor.CONFORMAL)
    d = soliton_residual(M, conn, ric, X, lam, SolitonFlavor.ALMOST_CONFORMAL)
    assert c == d


# -- classification ------------------------------------------------------------------

def test_classify_constants():
    assert classify(sc(3)) == Classification("shrinking")
    assert classify(sc(0)) == Classification("steady")
    assert classify(sc(-2)) == Classification("expanding")
    assert classify(sc(3)).render() == "shrinking"


def test_classify_affine():
    c = classify(P / 2 - Fraction(3, 5))
    assert c.verdict == "conditional"
    assert c.threshold == Fraction(6, 5)
    assert c.render() == "conditional (shrinking iff p > 6/5)"
    c = classify(P / 2 + Fraction(9, 5))
    assert c.threshold == Fraction(-18, 5)
    assert c.render() == "conditional (shrinking iff p > -18/5)"
    c = classify(-P + 1)
    assert c.render() == "conditional (shrinking iff p < 1)"


def test_classify_scaling_invariance():
    for lam in (P / 2 - Fraction(3, 5), P * -3 + 7, sc(4)):
        a = classify(lam)
        b = classify(lam * Fraction(7, 3))
        assert (a.verdict, a.condition, a.threshold) == \
               (b.verdict, b.condition, b.threshold)


def test_classify_unsupported():
    with pytest.raises(SolitonError):
        classify(P * P)
    with pytest.raises(SolitonError):
        classify(ParamScalar.param("q"))


# -- gradient machinery -----------------------------------------------------------------

def test_integrability():
    doc, M, conn, R, ric = setup("heisenberg5")
    assert integrability_defects(M, GradientData.from_values((1, 0, 0, 0, 0))) == []
    defects = integrability_defects(M, GradientData.from_values((0, 0, 1, 0, 0)))
    assert defects == [((0, 1), Fraction(2)), ((3, 4), Fraction(2))]
    doc, A, *_ = setup("abelian5")
    assert integrability_defects(A, GradientData.from_values((3, -7, 1, 2, 5))) == []


def test_hessian_asymmetry_tracks_integrability():
    # h[i][j] - h[j][i] = -sum_k c[i][j][k] df[k] for the naive Hessian on
    # the naive Gamma, so it is symmetric exactly where
    # integrability_defects lists no pair
    doc, M, conn, R, ric = setup("heisenberg5")
    gamma = reference_geometry("heisenberg5")[3]
    for df in ((1, 0, 0, 0, 0), (0, 0, 1, 0, 0), (2, -1, 3, 0, 5)):
        h = oracle.naive_hessian(gamma, [Fraction(x) for x in df])
        defects = dict(integrability_defects(M, GradientData.from_values(df)))
        for i in range(5):
            for j in range(i + 1, 5):
                assert h[i][j] - h[j][i] == -defects.get((i, j), 0), (df, i, j)


class _Rational(Fraction):
    """A Fraction subclass, which from_values converts to a Fraction."""


def test_gradient_data_reads_ints_fractions_and_mixed_alike():
    """df given as ints, as Fractions or mixed gives the same gradient data,
    integer forms, integrability defects and gradient residual; any other
    value converts as Fraction(x) converts it, and a value Fraction refuses
    is refused."""
    M, conn, ric = reference_geometry("heisenberg5")[:3]
    lam = P / 2 - Fraction(3, 5)
    for values in ((2, -1, 0, 3, 1), (0, 0, 1, 0, -4)):
        want = None
        for df in (values, tuple(map(Fraction, values)),
                   tuple(Fraction(x) if i % 2 else x
                         for i, x in enumerate(values))):
            gd = GradientData.from_values(df, df)
            assert all(type(x) is Fraction for x in gd.df + gd.dlambda)
            got = (gd, gd.df_int, gd.dlambda_int, integrability_defects(M, gd))
            if not got[3]:
                got += (gradient_soliton_residual(M, conn, ric, gd, lam,
                                                  SolitonFlavor.CONFORMAL),)
            assert got == (want := want or got), df
    other = ("3/4", 0.5, Decimal("1.25"), True, _Rational(7, 3))
    gd = GradientData.from_values(other, other)
    assert gd.df == gd.dlambda == tuple(Fraction(x) for x in other)
    assert all(type(x) is Fraction for x in gd.df)
    for bad, error in (("x", ValueError), (None, TypeError)):
        with pytest.raises(error):
            GradientData.from_values((0, bad, 0, 0, 0))


WRONG_LENGTHS = (("df", (1, 0, 0), None, 3), ("df", (1, 0, 0, 0, 0, 1), None, 6),
                 ("dlambda", (1, 0, 0, 0, 0), (0, 0), 2))


@pytest.mark.parametrize("what, df, dlambda, n", WRONG_LENGTHS)
def test_gradient_functions_reject_data_of_another_length(what, df, dlambda, n):
    """Every public gradient function names both lengths instead of reading
    past the data or ignoring some of it; abelian5 takes any df."""
    doc, M, conn, R, ric = setup("abelian5")
    gd = GradientData.from_values(df, dlambda if dlambda else (0,) * len(df))
    lam = P / 2 + Fraction(1, 5)
    runs = [lambda: gradient_soliton_residual(M, conn, ric, gd, lam,
                                              SolitonFlavor.CONFORMAL),
            lambda: check_gradient_curvature_identity(
                M, conn, R, ric, gd, lam, SolitonFlavor.CONFORMAL)]
    if what == "df":
        runs.append(lambda: integrability_defects(M, gd))
    for run in runs:
        with pytest.raises(SolitonError, match=f"^{what} has {n} entries, not 5$"):
            run()
    if what == "df":  # a missing dlambda does not hide a wrong df
        gd = GradientData.from_values(df)
        for run in runs:
            with pytest.raises(SolitonError, match=f"^df has {n} entries"):
                run()


@pytest.mark.parametrize("values", [(0, 0, 1), (0, 0, 1, 0, 0, 5, 7)])
def test_soliton_functions_reject_a_field_of_another_length(values):
    """A field X with fewer or more entries than the frame is refused with
    both lengths named, instead of solved with some entries dropped."""
    doc, M, conn, R, ric = setup("heisenberg5")
    X = FrameVector(values)
    runs = [lambda: soliton_residual(M, conn, ric, X, P, SolitonFlavor.RICCI)]
    runs += [lambda flavor=flavor: solve_lambda_trace(M, conn, ric, X, flavor)
             for flavor in SolitonFlavor]
    for run in runs:
        with pytest.raises(SolitonError,
                           match=f"^X has {len(values)} entries, not 5$"):
            run()


def test_gradient_residual_rejects_nonintegrable():
    doc, M, conn, R, ric = setup("heisenberg5")
    gd = GradientData.from_values((0, 0, 1, 0, 0))
    with pytest.raises(IntegrabilityError) as err:
        gradient_soliton_residual(M, conn, ric, gd, sc(0),
                                  SolitonFlavor.RICCI)
    assert err.value.pairs == [((0, 1), Fraction(2)), ((3, 4), Fraction(2))]


def test_gradient_residual_h5_df_zero():
    # conformal flavor at lambda = p/2 - 3/5 leaves ric + 4/5 g
    doc, M, conn, R, ric = setup("heisenberg5")
    gd = GradientData.from_values((0, 0, 0, 0, 0))
    res = gradient_soliton_residual(M, conn, ric, gd, P / 2 - Fraction(3, 5),
                                    SolitonFlavor.CONFORMAL)
    want = {0: Fraction(-6, 5), 1: Fraction(-6, 5), 2: Fraction(24, 5),
            3: Fraction(-6, 5), 4: Fraction(-6, 5)}
    for i in range(5):
        for j in range(5):
            expect = want[i] if i == j else Fraction(0)
            assert res[i][j] == ParamScalar.rational(expect), (i, j)


def test_gradient_residual_abelian_conformal_zero():
    for name, m in (("abelian3", 3), ("abelian5", 5)):
        doc, M, conn, R, ric = setup(name)
        lam = P / 2 + Fraction(1, m)
        for df in ((1,) * m, tuple(range(m)), (Fraction(5, 3),) + (0,) * (m - 1)):
            gd = GradientData.from_values(df)
            res = gradient_soliton_residual(M, conn, ric, gd, lam,
                                            SolitonFlavor.CONFORMAL)
            assert zero_table(res), (name, df)


# -- the gradient curvature identity --------------------------------------------------

def test_curvature_identity_passes_on_flat_soliton():
    doc, M, conn, R, ric = setup("abelian5")
    gd = GradientData.from_values((1, 1, 0, 0, 0), (0, 0, 0, 0, 0))
    rep = check_gradient_curvature_identity(M, conn, R, ric, gd,
                                            P / 2 + Fraction(1, 5),
                                            SolitonFlavor.CONFORMAL)
    assert rep.overall == "pass"
    assert rep.items[0].name == \
        "R(X,Y)Df = (X lam)Y - (Y lam)X - (nabla_X Q)Y + (nabla_Y Q)X"


def test_curvature_identity_fails_with_varying_lambda():
    doc, M, conn, R, ric = setup("abelian5")
    gd = GradientData.from_values((1, 2, 0, 0, 0), (-1, -2, 0, 0, 0))
    rep = check_gradient_curvature_identity(M, conn, R, ric, gd,
                                            P / 2 + Fraction(1, 5),
                                            SolitonFlavor.CONFORMAL)
    assert rep.overall == "fail"


def test_curvature_identity_preconditions():
    doc, M, conn, R, ric = setup("heisenberg5")
    rep = check_gradient_curvature_identity(
        M, conn, R, ric, GradientData.from_values((0, 0, 0, 0, 0)),
        sc(0), SolitonFlavor.RICCI)
    assert rep.items[0].name == "dlambda supplied"
    assert rep.items[0].status == "precondition_violated"

    rep = check_gradient_curvature_identity(
        M, conn, R, ric,
        GradientData.from_values((0, 0, 1, 0, 0), (0, 0, 0, 0, 0)),
        sc(0), SolitonFlavor.RICCI)
    assert rep.items[0].name == "df integrable"
    assert rep.items[0].status == "precondition_violated"

    rep = check_gradient_curvature_identity(
        M, conn, R, ric,
        GradientData.from_values((0, 0, 0, 0, 0), (0, 0, 0, 0, 0)),
        P / 2 - Fraction(3, 5), SolitonFlavor.CONFORMAL)
    assert rep.items[0].name == "gradient soliton equation holds"
    assert rep.items[0].status == "precondition_violated"
    assert "(3,3): 24/5" in rep.items[0].defect


def _engine(c, g) -> tuple:
    m = len(g)
    M = FrameManifold("frame", m, table_of(c), g)
    conn = levi_civita(M)
    R = curvature(M, conn)
    return M, conn, R, ricci(M, R)


@st.composite
def gradient_cases(draw) -> tuple:
    """(c, g, gamma, ric, df, dlambda, lam, flavor): a metric Lie algebra of
    tests/frames.py up to dimension 5, or a flat frame (zero brackets) with
    an identity or B^T B + I metric, with its naive connection and Ricci
    tensor. df is closed (a combination of the closed forms), random (often
    not closed) or zero; dlambda is missing, zero, random or -df; lambda is
    random or, when Hess f + ric = k g, the lambda that makes the gradient
    soliton equation hold."""
    if draw(st.booleans()):
        c, g = draw(lie_algebras().filter(lambda alg: len(alg[1]) <= 5))
        m = len(g)
        gamma = oracle.naive_koszul(c, g)
        ric = oracle.naive_ricci(oracle.naive_curvature(c, gamma))
    else:  # zero brackets: Gamma = 0 by the Koszul formula, so ric = 0
        m = draw(st.integers(1, 5))
        c = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
        gamma = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
        ric = [[Fraction(0)] * m for _ in range(m)]
        g = identity(m) if draw(st.booleans()) else gram_plus_identity(
            draw(st.lists(st.lists(small, min_size=m, max_size=m),
                          min_size=m, max_size=m)))
    vec = st.lists(small, min_size=m, max_size=m)
    kind = draw(st.sampled_from(["closed", "random", "zero"]))
    if kind == "closed":
        closed = oracle.annihilator([c[i][j] for i in range(m)
                                     for j in range(i + 1, m)], m)
        a = draw(st.lists(small, min_size=len(closed), max_size=len(closed)))
        df = [sum((x * v[k] for x, v in zip(a, closed)), Fraction(0))
              for k in range(m)]
    else:
        df = draw(vec) if kind == "random" else [Fraction(0)] * m
    dlambda = draw(st.sampled_from([None, [Fraction(0)] * m,
                                    [-x for x in df], draw(vec)]))
    flavor = draw(st.sampled_from(list(SolitonFlavor)))
    hess = oracle.naive_hessian(gamma, df)
    k = (hess[0][0] + ric[0][0]) / g[0][0] if g[0][0] else None
    einstein = k is not None and all(hess[i][j] + ric[i][j] == k * g[i][j]
                                     for i in range(m) for j in range(m))
    lam = (gradient_shift(flavor, m) + k if einstein and draw(st.booleans())
           else draw(scalars))
    return c, g, gamma, ric, df, dlambda, lam, flavor


def gradient_shift(flavor: SolitonFlavor, m: int) -> ParamScalar:
    """lambda - s' for s' the multiplier in Hess f + ric = s' g."""
    return P / 2 + Fraction(1, m) if flavor.is_conformal else sc(0)


def check_identity_against_the_loop(c, g, gamma, ric, df, dlambda, lam,
                                    flavor) -> str:
    M, conn, R, ric_t = _engine(c, g)
    got = check_gradient_curvature_identity(
        M, conn, R, ric_t, GradientData.from_values(df, dlambda), lam, flavor)
    want = oracle.gradient_identity_text(
        M.name, c, g, gamma, ric, df, dlambda, lam - gradient_shift(flavor, M.dim))
    assert got.render_text() == want
    return got.items[0].name


@settings(deadline=None)
@given(gradient_cases())
def test_identity_sweep_matches_the_per_pair_loop(case):
    """The report of check_gradient_curvature_identity, byte for byte, against
    oracle.gradient_identity_text, the per-pair loop it replaced. Random
    frames rarely satisfy the gradient soliton equation, so add_identity_check
    is also told that the residual vanishes: the sweep then runs on every
    frame, df and dlambda, with curvature, Ricci operator and dlambda terms
    all present, against the loop's defects."""
    check_identity_against_the_loop(*case)
    c, g, gamma, ric, df, dlambda, lam, flavor = case
    dlambda = dlambda or df
    M, conn, R, ric_t = _engine(c, g)
    report = CheckReport("sweep")
    add_identity_check(report, M, conn, ric_t,
                       GradientData.from_values(df, dlambda), {})
    bad = oracle.gradient_identity_defects(c, g, gamma, ric, df, dlambda)
    assert report.render_text() == oracle.report_text(
        "sweep", [(oracle.IDENTITY, bad, "")])


def test_identity_sweep_matches_the_per_pair_loop_on_every_path():
    """Each outcome of the identity check at least once, against the loop:
    the three preconditions (a residual with more than six nonzero entries
    among them) and the identity passing and failing with nonzero df and
    dlambda, also on a non-flat frame."""
    m, c, g, _, _ = heisenberg(2)
    zero5 = [Fraction(0)] * 5
    flat4 = [[[Fraction(0)] * 4 for _ in range(4)] for _ in range(4)]
    gram4 = gram_plus_identity([[Fraction(i - j, 2) for j in range(4)]
                                for i in range(4)])
    conformal = SolitonFlavor.CONFORMAL
    cases = [
        (c, g, zero5, None, P, conformal, "dlambda supplied"),
        (c, g, [0, 0, 1, 0, 0], zero5, P, conformal, "df integrable"),
        (flat4, gram4, [1, 2, 0, -1], [1, 0, 0, 0], P,
         SolitonFlavor.RICCI, "gradient soliton equation holds"),
        (flat4, gram4, [1, 2, 0, -1], [0, 0, 0, 0], sc(0),
         SolitonFlavor.RICCI, oracle.IDENTITY),
        (flat4, gram4, [1, 2, 0, -1], [1, -1, 0, 3], P / 2 + Fraction(1, 4),
         conformal, oracle.IDENTITY),
        (c, g, zero5, [0, 1, 0, 0, 2], P / 2 - Fraction(3, 5) + 1,
         conformal, "gradient soliton equation holds"),
    ]
    for c, g, df, dlambda, lam, flavor, name in cases:
        gamma = oracle.naive_koszul(c, g)
        ric = oracle.naive_ricci(oracle.naive_curvature(c, gamma))
        assert check_identity_against_the_loop(
            c, g, gamma, ric, df, dlambda, lam, flavor) == name
    M, conn, R, ric = _engine(flat4, gram4)
    res = gradient_soliton_residual(M, conn, ric, GradientData.from_values(
        [1, 2, 0, -1]), P, SolitonFlavor.RICCI)
    assert sum(bool(e) for row in res for e in row) == 16


# -- concurrent-potential constants ------------------------------------------------------

def test_concurrent_soliton_constants_m5():
    r = concurrent_soliton_constants(5)
    assert r.lam == P / 2 + Fraction(26, 5)
    assert r.einstein_constant == 4
    assert r.classification.threshold == Fraction(-52, 5)
    assert r.classification.render() == "conditional (shrinking iff p > -52/5)"


def test_concurrent_soliton_constants_table():
    want = {
        3: (Fraction(10, 3), Fraction(2), Fraction(-20, 3)),
        5: (Fraction(26, 5), Fraction(4), Fraction(-52, 5)),
        7: (Fraction(50, 7), Fraction(6), Fraction(-100, 7)),
        9: (Fraction(82, 9), Fraction(8), Fraction(-164, 9)),
    }
    for m, (b, e, t) in want.items():
        r = concurrent_soliton_constants(m)
        assert r.lam == P / 2 + b
        assert r.lam == (P * m + 2 * m * m + 2) / ParamScalar.rational(2 * m)
        assert r.einstein_constant == e
        assert r.classification.threshold == t


def test_concurrent_soliton_constants_sign_probe():
    for m in (3, 5, 7, 9):
        r = concurrent_soliton_constants(m)
        for num in range(-40, 41, 7):
            p0 = Fraction(num, 3)
            val = oracle.evaluate(r.lam, {"p": p0})
            ref = m * p0 + 2 * m * m + 2
            assert (val > 0) == (ref > 0) and (val == 0) == (ref == 0)


def test_concurrent_soliton_constants_rejects_even_or_small():
    for m in (0, 1, 2, 4):
        with pytest.raises(SolitonError):
            concurrent_soliton_constants(m)
