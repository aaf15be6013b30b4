"""Exact frame changes, generated metric Lie algebras and manifold-format
text for generated test frames, with Hypothesis strategies that draw them;
and texts of the scalar grammar: malformed ones, and a strategy over its
alphabet.

Plain Fraction arithmetic on lists; nothing here calls into framecalc, so
the tests can use it as an answer key. A frame change A takes the frame e
to e'_a = sum_i A[i][a] e_i. Then

    c'_ab^c   = sum A[i][a] A[j][b] c_ij^k Ainv[c][k]
    g'        = A^T g A
    v'        = Ainv v               (vector coefficients, e.g. xi)
    phi'      = Ainv phi A           (phi[a][j] = coeff of e_a in phi e_j)

and every (r, s)-tensor transforms with r factors of Ainv and s of A.
"""
from fractions import Fraction as F

from hypothesis import strategies as st


def identity(m: int) -> list:
    return [[F(int(i == j)) for j in range(m)] for i in range(m)]


def matmul(a: list, b: list) -> list:
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), F(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def transpose(a: list) -> list:
    return [list(row) for row in zip(*a)]


def matvec(a: list, v) -> list:
    return [sum((a[i][k] * v[k] for k in range(len(v))), F(0))
            for i in range(len(a))]


def elementary_change(m: int, steps) -> tuple:
    """(A, Ainv) for the product of elementary matrices named by steps:
    ("add", i, j, q) adds q times column i to column j (i != j), and
    ("scale", i, q) multiplies column i by q != 0."""
    A, Ainv = identity(m), identity(m)
    for step in steps:
        E, Einv = identity(m), identity(m)
        if step[0] == "add":
            _, i, j, q = step
            E[i][j], Einv[i][j] = F(q), -F(q)
        else:
            _, i, q = step
            E[i][i], Einv[i][i] = F(q), 1 / F(q)
        A, Ainv = matmul(A, E), matmul(Einv, Ainv)
    return A, Ainv


def heisenberg(n: int) -> tuple:
    """(m, dense c, g, xi, phi) of H_{2n+1}: xi = e_{n+1}, pairs
    (e_a, e_{n+1+a}) with [e_a, e_{n+1+a}] = 2 xi, phi e_a = e_{n+1+a}."""
    m, r = 2 * n + 1, n
    c = [[[F(0)] * m for _ in range(m)] for _ in range(m)]
    phi = [[F(0)] * m for _ in range(m)]
    for a in range(n):
        b = r + 1 + a
        c[a][b][r], c[b][a][r] = F(2), F(-2)
        phi[b][a], phi[a][b] = F(1), F(-1)
    xi = [F(int(k == r)) for k in range(m)]
    return m, c, identity(m), xi, phi


def semidirect(D: list) -> tuple:
    """(m, dense c, identity g) of R x_D R^{m-1}: e_1 acts on the abelian
    ideal spanned by e_2..e_m through the matrix D, [e_1, e_{1+i}] =
    sum_k D[k][i] e_{1+k}. Not unimodular when tr D != 0."""
    m = len(D) + 1
    c = [[[F(0)] * m for _ in range(m)] for _ in range(m)]
    for i in range(m - 1):
        for k in range(m - 1):
            c[0][1 + i][1 + k], c[1 + i][0][1 + k] = F(D[k][i]), -F(D[k][i])
    return m, c, identity(m)


def gram_plus_identity(B: list) -> list:
    """B^T B + I, a positive definite rational metric."""
    return [[x + int(i == j) for j, x in enumerate(row)]
            for i, row in enumerate(matmul(transpose(B), B))]


def direct_sum(*parts) -> tuple:
    """(c, g) of the direct sum of Lie algebras given as (c, g) pairs: the
    brackets between blocks vanish and g is block diagonal."""
    m = sum(len(g) for _, g in parts)
    c = [[[F(0)] * m for _ in range(m)] for _ in range(m)]
    g = [[F(0)] * m for _ in range(m)]
    at = 0
    for cp, gp in parts:
        n = len(gp)
        for i in range(n):
            g[at + i][at:at + n] = map(F, gp[i])
            for j in range(n):
                c[at + i][at + j][at:at + n] = map(F, cp[i][j])
        at += n
    return c, g


def sparse_brackets(c) -> dict:
    """{(i, j): {k: c_ij^k}} over the pairs i < j with a nonzero bracket."""
    m = len(c)
    return {(i, j): {k: x for k, x in enumerate(c[i][j]) if x}
            for i in range(m) for j in range(i + 1, m) if any(c[i][j])}


def change_frame(c, g, A, Ainv, xi=None, phi=None) -> tuple:
    """(c', g', xi', phi') in the frame e' = e A; xi and phi may be None."""
    m = len(g)
    # brackets of the new frame vectors, in the old frame
    old = [[[sum((A[i][a] * A[j][b] * c[i][j][k]
                  for i in range(m) if A[i][a] for j in range(m) if A[j][b]),
                 F(0)) for k in range(m)] for b in range(m)] for a in range(m)]
    c2 = [[matvec(Ainv, old[a][b]) for b in range(m)] for a in range(m)]
    g2 = matmul(transpose(A), matmul(g, A))
    xi2 = None if xi is None else matvec(Ainv, xi)
    phi2 = None if phi is None else matmul(Ainv, matmul(phi, A))
    return c2, g2, xi2, phi2


def fmt(q) -> str:
    q = F(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def vector_text(coeffs) -> str:
    out = ""
    for k, x in enumerate(coeffs):
        if x:
            sign = "-" if x < 0 else "+"
            term = f"{fmt(abs(x))}*e{k + 1}"
            out = f"{out} {sign} {term}" if out else sign.strip("+") + term
    return out or "0"


def document(name: str, c, g, xi=None, phi=None, params=(), extra=()) -> str:
    """Manifold-format text for a dense table c, a metric g and, when xi is
    given, a contact block; extra lines are appended as given."""
    m = len(g)
    lines = [f"manifold {name} dim {m}"] + [f"param {p}" for p in params]
    for i in range(m):
        for j in range(i + 1, m):
            if any(c[i][j]):
                lines.append(f"bracket e{i + 1} e{j + 1} = {vector_text(c[i][j])}")
    for i in range(m):
        for j in range(i, m):
            if g[i][j]:
                lines.append(f"metric g {i + 1} {j + 1} = {fmt(g[i][j])}")
    if xi is not None:
        lines.append(f"contact xi = {vector_text(xi)}")
        for j in range(m):
            col = [phi[a][j] for a in range(m)]
            if any(col):
                lines.append(f"contact phi e{j + 1} = {vector_text(col)}")
    return "\n".join([*lines, *extra]) + "\n"


# -- random metric Lie algebras and frame changes -----------------------------

small = st.fractions(min_value=-2, max_value=2, max_denominator=3)


def elementary_steps(m: int, min_size: int = 0, max_size: int = 5):
    """Lists of steps for elementary_change in dimension m."""
    index = st.integers(0, m - 1)
    nonzero = small.filter(bool)
    step = st.one_of(
        st.tuples(st.just("add"), index, index, nonzero).filter(
            lambda s: s[1] != s[2]),
        st.tuples(st.just("scale"), index, nonzero))
    return st.lists(step, min_size=min_size, max_size=max_size)


def _matrices(n: int):
    return st.lists(st.lists(small, min_size=n, max_size=n),
                    min_size=n, max_size=n)


@st.composite
def lie_algebras(draw) -> tuple:
    """(c, g): R x_D R^{m-1} for a rational D (non-unimodular when tr D != 0)
    or H_{2n+1}, each with the identity metric or B^T B + I for a rational B,
    possibly summed with a second such block, then written in a random
    rational frame. The Jacobi identity holds in every case."""
    def block():
        if draw(st.booleans()):
            m, c, g, _, _ = heisenberg(draw(st.integers(1, 2)))
        else:
            m, c, g = semidirect(draw(_matrices(draw(st.integers(1, 4)))))
        if draw(st.booleans()):
            g = gram_plus_identity(draw(_matrices(m)))
        return c, g

    c, g = block()
    if draw(st.booleans()):
        c, g = direct_sum((c, g), block())
    A, Ainv = elementary_change(len(g), draw(elementary_steps(len(g))))
    return change_frame(c, g, A, Ainv)[:2]


def table_of(c) -> dict:
    """{(i, j): {k: c_ij^k}} over every ordered pair with a nonzero bracket,
    the table FrameManifold takes as given."""
    m = len(c)
    return {(i, j): {k: x for k, x in enumerate(c[i][j]) if x}
            for i in range(m) for j in range(m) if any(c[i][j])}


def dense_of(table: dict, m: int) -> list:
    c = [[[F(0)] * m for _ in range(m)] for _ in range(m)]
    for (i, j), row in table.items():
        for k, x in row.items():
            c[i][j][k] = F(x)
    return c


def dense_curvature(comp: dict, m: int) -> list:
    """R[i][j][k][l] of a table {(i, j, k): {l: R_ijk^l}}, as oracle.lower
    takes it."""
    return [dense_of({(j, k): row for (a, j, k), row in comp.items() if a == i}, m)
            for i in range(m)]


@st.composite
def contact_frames(draw) -> tuple:
    """(table, g, phi, xi) with an invertible rational metric g: H_3 or H_5
    with its Sasakian structure written in a random rational frame, or
    random brackets with random phi and xi under the identity, a diagonal
    indefinite, a B^T B + I or a dense 4 + 1/(i + j + 1) metric. The table
    is often not antisymmetric (one order of a pair only, or one entry
    changed) and phi is often changed in one entry, so that every check
    meets both passing and failing frames."""
    if draw(st.booleans()):
        m, c, g, xi, phi = heisenberg(draw(st.integers(1, 2)))
        A, Ainv = elementary_change(m, draw(elementary_steps(m)))
        c, g, xi, phi = change_frame(c, g, A, Ainv, xi, phi)
    else:
        m = draw(st.integers(1, 4))
        index = st.integers(0, m - 1)
        c = [[[F(0)] * m for _ in range(m)] for _ in range(m)]
        for i, j, k, q in draw(st.lists(st.tuples(index, index, index, small),
                                        max_size=2 * m)):
            c[i][j][k] += q
            if i != j and draw(st.booleans()):
                c[j][i][k] -= q
        kind = draw(st.sampled_from(["identity", "signs", "gram", "dense"]))
        if kind == "gram":
            g = gram_plus_identity(draw(_matrices(m)))
        elif kind == "dense":
            g = [[F(1, i + j + 1) + 4 * (i == j) for j in range(m)]
                 for i in range(m)]
        else:
            g = identity(m)
            if kind == "signs":
                for i in draw(st.lists(index, max_size=m)):
                    g[i][i] = -g[i][i]
        sparse = st.one_of(st.just(F(0)), small)
        phi = [[draw(sparse) for _ in range(m)] for _ in range(m)]
        xi = [draw(sparse) for _ in range(m)]
    c = [[list(row) for row in plane] for plane in c]
    phi = [list(row) for row in phi]
    index = st.integers(0, m - 1)
    for a, b, q in draw(st.lists(st.tuples(index, index, small), max_size=1)):
        phi[a][b] += q
    for i, j, k, q in draw(st.lists(st.tuples(index, index, index, small),
                                    max_size=1)):
        c[i][j][k] += q
    return table_of(c), g, phi, xi


# -- scalar-grammar texts --------------------------------------------------------

# (text, offset of the offending token): each is rejected by the scalar
# grammar, at the position a term, name, integer or sign was wanted.
MALFORMED_SCALARS = [
    ("", 0), ("+", 1), ("p +", 3), ("p + $", 4), ("(p)", 0), ("p*2", 2),
    ("1/ p", 3), ("p^-1", 2), ("p^", 2), ("2 **p", 3), ("p q", 2),
    ("1/0", 0), ("p + " + "7" * 1001, 4)]

# Digits, names, operators, blanks and tabs, and one junk character.
scalar_texts = st.lists(st.sampled_from(
    list("0123456789") + ["p", "q", "r", "e1"] + list("+-*/^()")
    + [" ", "\t", "$"]), max_size=14).map("".join)
