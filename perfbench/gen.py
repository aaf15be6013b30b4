"""Seeded input generators for the framecalc benchmark.

Everything here is plain integer and Fraction arithmetic written for the
benchmark; nothing calls into framecalc. Each generator takes a
``random.Random`` (or nothing, for the canonical form), so the same seed
always gives the same inputs.

All tensors of a Heisenberg frame and of its exact frame changes are
integer valued, so they are kept as Python ints; framecalc turns them into
Fractions when it parses the generated text.

The Heisenberg algebra H_{2n+1} has Reeb vector xi = e_{n+1}; the other 2n
frame vectors form n pairs (x, y) with [e_x, e_y] = 2 xi, phi e_x = e_y and
phi e_y = -e_x. With the metric the identity, its Ricci tensor is -2 on every
pair vector and 2n at xi, its scalar curvature is -2n, and for X = xi the
conformal soliton constant is p/2 + (1 - 2n)/(2n + 1).
"""
from __future__ import annotations

import random
from fractions import Fraction

# The largest metric entry a dense frame may have; larger draws are rejected.
DENSE_G_MAX = 60


def fmt(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def vector_text(coeffs) -> str:
    """Manifold-format vector expression, e.g. ``3*e1 - 1/2*e4``."""
    out = ""
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        term = f"{fmt(abs(c))}*e{k + 1}"
        out = (("-" if sign == "-" else "") + term) if not out else f"{out} {sign} {term}"
    return out or "0"


# -- exact matrices (lists of lists) ---------------------------------------

def identity(m: int) -> list:
    return [[int(i == j) for j in range(m)] for i in range(m)]


def matmul(a: list, b: list) -> list:
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def transpose(a: list) -> list:
    return [list(row) for row in zip(*a)]


def matvec(a: list, v) -> list:
    return [sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a))]


# -- Heisenberg algebras -----------------------------------------------------

class Heisenberg:
    """Frame data of H_{2n+1}: structure constants, phi, xi and the known
    Ricci tensor, with 0-based indices."""

    def __init__(self, n: int, rng: random.Random | None = None):
        self.n = n
        self.m = m = 2 * n + 1
        self.xi_index = n
        others = [a for a in range(m) if a != n]
        if rng is not None:
            rng.shuffle(others)
        self.pairs = [(others[2 * k], others[2 * k + 1]) for k in range(n)]
        self.c = [[[0] * m for _ in range(m)] for _ in range(m)]
        self.phi = [[0] * m for _ in range(m)]  # phi[a][j]: e_a in phi(e_j)
        for x, y in self.pairs:
            self.c[x][y][n] = 2
            self.c[y][x][n] = -2
            self.phi[y][x] = 1
            self.phi[x][y] = -1
        self.g = identity(m)
        self.xi = [int(a == n) for a in range(m)]
        self.ric = [[0] * m for _ in range(m)]
        for a in range(m):
            self.ric[a][a] = 2 * n if a == n else -2

    @property
    def scalar_curvature(self) -> int:
        return -2 * self.n

    def xi_lambda(self) -> dict:
        """Conformal soliton constant for X = xi as an affine map."""
        return {"p": Fraction(1, 2), "": Fraction(1 - 2 * self.n, self.m)}

    def text(self, name: str, params=(), expect: bool = True) -> str:
        m, n = self.m, self.n
        lines = [f"manifold {name} dim {m}"]
        lines += [f"param {p}" for p in params]
        for x, y in self.pairs:
            lines.append(f"bracket e{x + 1} e{y + 1} = 2e{n + 1}")
        lines.append("metric identity")
        lines.append(f"contact xi = e{n + 1}")
        for x, y in self.pairs:
            lines.append(f"contact phi e{x + 1} = e{y + 1}")
            lines.append(f"contact phi e{y + 1} = -e{x + 1}")
        if expect:
            for a in range(m):
                lines.append(f"expect ricci {a + 1} {a + 1} = {self.ric[a][a]} "
                             f"source \"closed form\"")
            lines.append(f"expect lambda = 1/2*p + {fmt(Fraction(1 - 2 * n, m))} "
                         f"source \"closed form\"")
        return "\n".join(lines) + "\n"


def abelian_text(m: int, name: str) -> str:
    return f"manifold {name} dim {m}\nmetric identity\n"


# -- exact unimodular frame changes ------------------------------------------

def unimodular(m: int, steps: int, rng: random.Random) -> tuple:
    """A = E_1 ... E_steps and A^{-1} = E_steps^{-1} ... E_1^{-1}, where each
    E is the elementary matrix I + k e_{ij} (i != j, k = +-1). A is an
    integer matrix of determinant 1, so A^{-1} is an integer matrix too."""
    a, ainv = identity(m), identity(m)
    for _ in range(steps):
        i, j = rng.sample(range(m), 2)
        k = rng.choice((-1, 1))
        # A <- A E: column j += k * column i
        for r in range(m):
            a[r][j] += k * a[r][i]
        # A^{-1} <- E^{-1} A^{-1}: row i -= k * row j
        ainv[i] = [x - k * y for x, y in zip(ainv[i], ainv[j])]
    return a, ainv


class DenseFrame:
    """H_{2n+1} written in the frame f_j = sum_a A[a][j] e_a.

    c'[i][j][l] = sum A[a][i] A[b][j] c[a][b][k] A^{-1}[l][k], g' = A^T A,
    phi' = A^{-1} phi A and xi' = A^{-1} xi; the Ricci tensor transforms as
    ric' = A^T ric A and the scalar curvature does not change.
    """

    def __init__(self, base: Heisenberg, rng: random.Random):
        m = base.m
        self.base = base
        self.m = m
        while True:
            a, ainv = unimodular(m, rng.randint(2 * m, 3 * m), rng)
            g = matmul(transpose(a), a)
            if max(abs(x) for row in g for x in row) > DENSE_G_MAX:
                continue
            c = _transform_brackets(base.c, a, ainv)
            nnz = sum(1 for plane in c for row in plane for x in row if x)
            if 2 * nnz >= m ** 3:
                break
        self.a, self.ainv, self.g, self.c = a, ainv, g, c
        self.nnz = nnz
        self.g_max = max(abs(x) for row in g for x in row)
        self.phi = matmul(matmul(ainv, base.phi), a)
        self.xi = matvec(ainv, base.xi)
        self.ric = matmul(matmul(transpose(a), base.ric), a)

    def text(self, name: str) -> str:
        m = self.m
        lines = [f"manifold {name} dim {m}"]
        for i in range(m):
            for j in range(i + 1, m):
                if any(self.c[i][j]):
                    lines.append(f"bracket e{i + 1} e{j + 1} = "
                                 f"{vector_text(self.c[i][j])}")
        for i in range(m):
            for j in range(i, m):
                if self.g[i][j]:
                    lines.append(f"metric g {i + 1} {j + 1} = {self.g[i][j]}")
        lines.append(f"contact xi = {vector_text(self.xi)}")
        for j in range(m):
            col = [self.phi[a][j] for a in range(m)]
            if any(col):
                lines.append(f"contact phi e{j + 1} = {vector_text(col)}")
        for i in range(m):
            for j in range(i, m):
                if self.ric[i][j]:
                    lines.append(f"expect ricci {i + 1} {j + 1} = "
                                 f"{self.ric[i][j]} source \"frame change\"")
        lam = self.base.xi_lambda()[""]
        lines.append(f"expect lambda = 1/2*p + {fmt(lam)} source \"frame change\"")
        return "\n".join(lines) + "\n"


def _transform_brackets(c: list, a: list, ainv: list) -> list:
    m = len(c)
    out = [[[0] * m for _ in range(m)] for _ in range(m)]
    src = [(p, q, k, c[p][q][k]) for p in range(m) for q in range(m)
           for k in range(m) if c[p][q][k]]
    for p, q, k, v in src:
        col_l = [ainv[l][k] * v for l in range(m)]
        for i in range(m):
            if not a[p][i]:
                continue
            for j in range(m):
                w = a[p][i] * a[q][j]
                if not w:
                    continue
                row = out[i][j]
                for l in range(m):
                    if col_l[l]:
                        row[l] += w * col_l[l]
    return out


# -- soliton-sweep inputs -----------------------------------------------------

def small_fraction(rng: random.Random, lo: int = -6, hi: int = 6) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, 4))


def affine(rng: random.Random, symbols) -> dict:
    """A random affine map {"": constant, symbol: coefficient}."""
    out = {"": small_fraction(rng)}
    for s in symbols:
        if rng.random() < 0.75:
            out[s] = small_fraction(rng)
    return {k: v for k, v in out.items() if v}


def affine_text(form: dict) -> str:
    """Scalar-grammar text of an affine map, e.g. ``1/2*p + -3 + q``."""
    parts = [f"{fmt(v)}*{k}" for k, v in sorted(form.items()) if k and v]
    if form.get(""):
        parts.append(fmt(form[""]))
    return " + ".join(parts) if parts else "0"


def random_df(rng: random.Random, m: int) -> list:
    """Nonzero entries only: the gradient identity's cost grows with the
    number of nonzero entries, and a fixed count keeps that cost steady."""
    return [Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 4))
            for _ in range(m)]
