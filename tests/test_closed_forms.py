"""Answers that do not come from the engine, at sizes the naive oracle
cannot reach: the closed form of the Heisenberg family H_{2n+1} up to
dimension 17, Milnor's 3-dimensional unimodular family, the naive oracle
itself on a non-identity metric in dimension 7, Besse's Lie-algebra
Ricci formula (``oracle.besse_ricci``) on random metric Lie algebras and on
algebras of dimension 33 to 65, and Milnor's sectional curvature
(``oracle.milnor_sectional``) in orthonormal frames, rotated or not, and
at m = 17 and 33."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from frames import (both_orders, change_frame, dense_curvature, dense_of,
                    direct_sum, document, gram_plus_identity, heisenberg,
                    identity, lie_algebras, matmul, semidirect,
                    sparse_brackets, table_of, transpose)
from framecalc.cli import main
from framecalc.contact import check_normality, check_sasakian
from framecalc.geometry import FrameManifold, curvature, levi_civita, ricci
from framecalc.manifold_format import parse_manifold
from framecalc.scalars import ParamScalar
from framecalc.solitons import SolitonFlavor, solve_lambda_trace

P = ParamScalar.param("p")


def heisenberg_text(n: int) -> str:
    """H_{2n+1}: xi = e_{n+1}, pairs (e_a, e_{n+1+a}) with
    [e_a, e_{n+1+a}] = 2 xi, phi e_a = e_{n+1+a}, phi e_{n+1+a} = -e_a."""
    m, r = 2 * n + 1, n + 1
    lines = [f"manifold h{m} dim {m}"]
    for a in range(1, n + 1):
        lines.append(f"bracket e{a} e{r + a} = 2e{r}")
    lines += ["metric identity", f"contact xi = e{r}"]
    for a in range(1, n + 1):
        lines.append(f"contact phi e{a} = e{r + a}")
        lines.append(f"contact phi e{r + a} = -e{a}")
    return "\n".join(lines) + "\n"


def test_heisenberg_family_closed_form():
    for n in range(1, 9):  # m = 3, 5, ..., 17
        m = 2 * n + 1
        doc = parse_manifold(heisenberg_text(n))
        M, D = doc.manifold, doc.contact
        conn = levi_civita(M)
        ric = ricci(M, curvature(M, conn))
        want = {(a, a): (2 * n if a == n else -2) for a in range(m)}
        assert ric.ric == want, m
        assert check_sasakian(M, conn, D).overall == "pass", m
        assert check_normality(M, D).overall == "pass", m
        solve = solve_lambda_trace(M, conn, ric, D.xi_vector(),
                                   SolitonFlavor.CONFORMAL)
        assert solve.lam == P / 2 + Fraction(1 - 2 * n, 2 * n + 1), m


def test_heisenberg17_solve_lambda_cli(tmp_path, capsys):
    path = tmp_path / "h17.fc"
    path.write_text(heisenberg_text(8))
    code = main(["solve-lambda", "--file", str(path), "--field", "xi",
                 "--flavor", "conformal"])
    assert code == 0
    assert "lambda = 1/2*p + -15/17" in capsys.readouterr().out


small = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@settings(max_examples=40, deadline=None)
@given(small, small, small)
def test_milnor_unimodular_family(l1, l2, l3):
    # Milnor, Adv. Math. 21 (1976): [e2,e3] = l1 e1, [e3,e1] = l2 e2,
    # [e1,e2] = l3 e3 in an orthonormal frame has ric(e_i) = 2 mu_j mu_k
    # with mu_i = (l1 + l2 + l3)/2 - l_i, and no off-diagonal Ricci.
    M = FrameManifold("milnor", 3, both_orders(
        {(1, 2): {0: l1}, (0, 2): {1: -l2}, (0, 1): {2: l3}}), identity(3))
    half = (l1 + l2 + l3) / 2
    mu = (half - l1, half - l2, half - l3)
    R = curvature(M, levi_civita(M))
    ric = ricci(M, R)
    ref = oracle.ricci_via_metric(M, R)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        for c in range(3):
            want = 2 * mu[j] * mu[k] if c == i else 0
            assert ric.entry(i, c) == ParamScalar.rational(want), (i, c)
            assert ParamScalar.rational(ref[i][c]) == ric.entry(i, c)


def test_oracle_agreement_non_identity_metric_dim7():
    rng = random.Random(7)
    m = 7
    brackets = {}
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < 0.4:
                brackets[i, j] = {k: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                  for k in range(m) if rng.random() < 0.3}
    # tridiagonal and diagonally dominant, hence positive-definite
    g = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        g[i][i] = Fraction(3 + i % 2)
        if i + 1 < m:
            g[i][i + 1] = g[i + 1][i] = Fraction(rng.choice((-1, 1)), 2)
    M = FrameManifold("dense7", m, both_orders(brackets), g)

    c = [[list(M.c[i][j]) for j in range(m)] for i in range(m)]
    gamma_o = oracle.naive_koszul(c, g)
    R_o = oracle.naive_curvature(c, gamma_o)
    ric_o = oracle.ricci_via_ginv(R_o, g)
    assert ric_o == oracle.naive_ricci(R_o)

    conn = levi_civita(M)
    R = curvature(M, conn)
    ric = ricci(M, R)
    assert sum(1 for _ in conn.nonzero()) > m * m // 2
    assert dense_of(conn.gamma, m) == gamma_o
    assert dense_curvature(R.comp, m) == R_o
    for i in range(m):
        for j in range(m):
            assert ric.entry(i, j).constant_value() == ric_o[i][j], (i, j)


# -- Besse, Einstein Manifolds (1987), Cor. 7.38 ---------------------------------

def _engine_ricci(c, g) -> list:
    m = len(g)
    M = parse_manifold(document("lie", c, g)).manifold
    ric = ricci(M, curvature(M, levi_civita(M))).ric
    return [[ric.get((j, k), 0) for k in range(m)] for j in range(m)]


@settings(max_examples=40, deadline=None)
@given(lie_algebras())
def test_ricci_matches_besse_formula(alg):
    c, g = alg
    assert _engine_ricci(c, g) == oracle.besse_ricci(sparse_brackets(c), g)


def _semidirect_block(rng, k: int, dense_metric: bool) -> tuple:
    D = [[Fraction(rng.randint(-2, 2), rng.randint(1, 3))
          if rng.random() < 0.3 else 0 for _ in range(k)] for _ in range(k)]
    m, c, g = semidirect(D)
    if dense_metric:
        g = gram_plus_identity([[Fraction(rng.randint(-2, 2), 2)
                                 for _ in range(m)] for _ in range(m)])
    return c, g


def _large_algebras() -> dict:
    rng = random.Random(33)
    return {
        "H_33": heisenberg(16)[1:3],
        "R x R^39": _semidirect_block(rng, 39, False),
        "H_21 + R x R^5 + H_17": direct_sum(heisenberg(10)[1:3],
                                            _semidirect_block(rng, 5, True),
                                            heisenberg(8)[1:3]),
        "H_65": heisenberg(32)[1:3],
    }


@pytest.mark.parametrize("name", sorted(_large_algebras()))
def test_ricci_matches_besse_formula_large(name):
    c, g = _large_algebras()[name]
    assert 33 <= len(g) <= 65
    assert _engine_ricci(c, g) == oracle.besse_ricci(sparse_brackets(c), g)


# -- Milnor, Adv. Math. 21 (1976): sectional curvature from the brackets --------

def _sectional(c) -> tuple:
    """({(i, j): R_ijj^i} of the engine's R table, {(i, j): Milnor's
    K(e_i, e_j)}) over i != j, for the dense table c under the identity
    metric, which makes its frame orthonormal."""
    m = len(c)
    comp = FrameManifold("milnor", m, table_of(c), identity(m)).riem.comp
    pairs = [(i, j) for i in range(m) for j in range(m) if i != j]
    return ({(i, j): comp.get((i, j, j), {}).get(i, 0) for i, j in pairs},
            {(i, j): oracle.milnor_sectional(c, i, j) for i, j in pairs})


def _random_table(rng, m: int, n: int) -> list:
    """An antisymmetric table with n random brackets; the Jacobi identity
    need not hold."""
    c = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
    for _ in range(n):
        (i, j), k = rng.sample(range(m), 2), rng.randrange(m)
        q = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        c[i][j][k] += q
        c[j][i][k] -= q
    return c


@st.composite
def orthonormal_tables(draw) -> list:
    """A table c in a frame the identity metric makes orthonormal: H_{2n+1},
    R x_D R^{m-1} or a random antisymmetric table, then, if drawn, in the
    frame turned by the Cayley rotation Q = (I - S)(I + S)^{-1} of a
    rational skew S, so that its planes are off the first frame."""
    kind = draw(st.sampled_from(["heisenberg", "semidirect", "random"]))
    if kind == "heisenberg":
        c = heisenberg(draw(st.integers(1, 2)))[1]
    elif kind == "semidirect":
        k = draw(st.integers(1, 4))
        c = semidirect(draw(st.lists(st.lists(small, min_size=k, max_size=k),
                                     min_size=k, max_size=k)))[1]
    else:
        c = _random_table(draw(st.randoms(use_true_random=False)),
                          draw(st.integers(3, 6)), draw(st.integers(1, 12)))
    if not draw(st.booleans()):
        return c
    m = len(c)
    index = st.integers(0, m - 1)
    S = [[Fraction(0)] * m for _ in range(m)]
    for a, b, q in draw(st.lists(st.tuples(index, index, small),
                                 min_size=1, max_size=m)):
        if a != b:
            S[a][b], S[b][a] = S[a][b] + q, S[b][a] - q
    I = identity(m)
    Q = matmul([[I[a][b] - S[a][b] for b in range(m)] for a in range(m)],
               oracle.inv([[I[a][b] + S[a][b] for b in range(m)]
                           for a in range(m)]))
    c, g, _, _ = change_frame(c, I, Q, transpose(Q))
    assert g == I
    return c


@settings(deadline=None)
@given(orthonormal_tables())
def test_sectional_curvature_is_milnors(c):
    engine, milnor = _sectional(c)
    assert engine == milnor


def _sparse_tables() -> dict:
    rng = random.Random(17)
    return {
        "H_17": heisenberg(8)[1],
        "H_33": heisenberg(16)[1],
        "R x_D R^16": _semidirect_block(rng, 16, False)[0],
        "random m = 17": _random_table(rng, 17, 34),
        "random m = 33": _random_table(rng, 33, 66),
    }


@pytest.mark.parametrize("name", sorted(_sparse_tables()))
def test_sectional_curvature_is_milnors_sparse(name):
    engine, milnor = _sectional(_sparse_tables()[name])
    assert engine == milnor
