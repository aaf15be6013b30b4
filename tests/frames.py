"""Exact frame changes and manifold-format text for generated test frames.

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
