"""Frame manifolds with constant structure data, and the exact tensor calculus
on them: Levi-Civita connection via the Koszul formula, curvature, Ricci,
Lie derivatives of the metric, covariant derivatives of endomorphisms.

A manifold here is a homogeneous presentation: an orthonormal-style frame
e_1..e_m with constant antisymmetric structure coefficients
[e_i, e_j] = sum_k c_ij^k e_k, stored as a sparse table of the nonzero
brackets, and a constant symmetric metric g on the frame. All indices are
0-based internally; rendered output is 1-based.

Tensors are sparse: a dict from an index tuple to a Fraction, or to a sparse
vector {k: Fraction} for the upper index, holding nonzero entries only. The
geometry is built from c and g alone, so it is rational; kernels cost time
in proportion to the nonzero entries they combine. ParamScalar appears only
in the accessors and where a caller's vector field or scalar brings in
parameters.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .reports import CheckReport
from .scalars import ParamScalar, ZERO, format_rational

Matrix = tuple  # tuple of tuples of Fraction


class GeometryError(ValueError):
    pass


def _as_scalar(x) -> ParamScalar:
    if isinstance(x, ParamScalar):
        return x
    return ParamScalar.rational(x)


# -- sparse helpers -----------------------------------------------------------
# Sparse coefficient maps {index: value} hold Fractions, or ParamScalars where
# a caller's data is parametric; both support +, * and != 0, so one kernel
# serves both.

def _plain(c: ParamScalar):
    """c as a Fraction when it is constant, else c itself."""
    return c.constant_value() if c.is_constant() else c


def _coeff_map(v: "FrameVector") -> dict:
    """Nonzero coefficients of v; constant ones as Fractions."""
    return {k: _plain(c) for k, c in enumerate(v.coeffs) if not c.is_zero()}


def vector_of(dim: int, coeffs: dict) -> "FrameVector":
    """FrameVector with the given sparse coefficients (zeros allowed)."""
    return FrameVector(tuple(_as_scalar(coeffs[k]) if k in coeffs else ZERO
                             for k in range(dim)))


def _matrix_of(dim: int, entries: dict) -> tuple:
    return tuple(tuple(_as_scalar(entries[i, j]) if (i, j) in entries else ZERO
                       for j in range(dim)) for i in range(dim))


def _prune(vec: dict) -> dict:
    return {k: x for k, x in vec.items() if x != 0}


def _prune_rows(table: dict) -> dict:
    """table without zero entries and without the rows they leave empty."""
    out = {}
    for key, row in table.items():
        row = _prune(row)
        if row:
            out[key] = row
    return out


def sparse_columns(mat) -> list:
    """col[l] = {k: mat[k][l]} over the nonzero entries of a square matrix."""
    n = len(mat)
    return [{k: mat[k][l] for k in range(n) if mat[k][l]} for l in range(n)]


# -- exact linear algebra on Fraction matrices -------------------------------

def leading_minor_determinants(g: Matrix) -> list:
    """Determinants of the leading principal k x k submatrices, k = 1..m."""
    m = len(g)
    out = []
    for k in range(1, m + 1):
        out.append(_det([[Fraction(g[i][j]) for j in range(k)] for i in range(k)]))
    return out


def _det(rows: list) -> Fraction:
    n = len(rows)
    sign = Fraction(1)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            if rows[r][col] != 0:
                f = rows[r][col] * inv
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return sign * det


def invert_matrix(g: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination."""
    n = len(g)
    aug = [[Fraction(g[i][j]) for j in range(n)] +
           [Fraction(1) if i == j else Fraction(0) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise GeometryError("metric is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(aug[i][n:]) for i in range(n))


# -- vectors -----------------------------------------------------------------

@dataclass(frozen=True)
class FrameVector:
    """A vector field with constant coefficients in the frame."""

    coeffs: tuple

    @classmethod
    def from_values(cls, values) -> "FrameVector":
        return cls(tuple(_as_scalar(v) for v in values))

    @classmethod
    def basis(cls, dim: int, i: int) -> "FrameVector":
        return cls.from_values(tuple(1 if k == i else 0 for k in range(dim)))

    @classmethod
    def zero(cls, dim: int) -> "FrameVector":
        return cls.from_values((0,) * dim)

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __add__(self, other: "FrameVector") -> "FrameVector":
        return FrameVector(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "FrameVector") -> "FrameVector":
        return FrameVector(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "FrameVector":
        return FrameVector(tuple(-a for a in self.coeffs))

    def scaled(self, s) -> "FrameVector":
        s = _as_scalar(s)
        return FrameVector(tuple(s * a for a in self.coeffs))

    def rational_coeffs(self) -> tuple:
        return tuple(c.constant_value() for c in self.coeffs)

    def render(self) -> str:
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            name = f"e{k + 1}"
            if c == 1:
                parts.append(name)
            elif c == -1:
                parts.append("-" + name)
            else:
                s = c.render()
                if " + " in s:
                    s = "(" + s + ")"
                parts.append(f"{s}*{name}")
        return " + ".join(parts) if parts else "0"

    def __str__(self):
        return self.render()




# -- the manifold ------------------------------------------------------------

class FrameManifold:
    """Constant structure constants plus a constant metric g.

    brackets is the nonzero bracket table {(i, j): {k: c_ij^k}}, 0-based,
    with both orders of every pair, kept in ascending order of (i, j) and
    of k; it is the only stored form of c. The constructor takes such a
    table as given; from_brackets builds one from the pairs i < j.
    """

    def __init__(self, name: str, dim: int, brackets: dict, g, params=()):
        if dim < 1:
            raise GeometryError("dimension must be positive")
        self.name = name
        self.dim = dim
        table = {}
        for (i, j), row in sorted(brackets.items()):
            if not all(0 <= t < dim for t in (i, j, *row)):
                raise GeometryError(f"bracket index out of range 0..{dim - 1} "
                                    f"at pair ({i}, {j})")
            row = {k: Fraction(x) for k, x in sorted(row.items()) if x}
            if row:
                table[i, j] = row
        self.brackets = table
        self.g = tuple(tuple(Fraction(x) for x in row) for row in g)
        self.params = frozenset(params) | {"p"}
        if len(self.g) != dim or any(len(r) != dim for r in self.g):
            raise GeometryError("metric must be dim x dim")

    @classmethod
    def from_brackets(cls, name: str, dim: int, brackets: dict,
                      g=None, params=()) -> "FrameManifold":
        """brackets: {(i, j): {k: coeff}} for i < j, all 0-based."""
        table = {}
        for (i, j), comps in brackets.items():
            table[i, j] = {k: Fraction(x) for k, x in comps.items()}
            table[j, i] = {k: -Fraction(x) for k, x in comps.items()}
        if g is None:
            g = identity_metric(dim)
        return cls(name, dim, table, g, params)

    @cached_property
    def c(self) -> tuple:
        """Dense view c[i][j][k] of the bracket table, built when first read."""
        m = self.dim
        zero = Fraction(0)
        return tuple(tuple(tuple(self.brackets.get((i, j), {}).get(k, zero)
                                 for k in range(m)) for j in range(m))
                     for i in range(m))

    @cached_property
    def g_inv(self) -> Matrix:
        return invert_matrix(self.g)

    @cached_property
    def lowered_brackets(self) -> dict:
        """{(i, j, l): C_ijl} with C_ijl = g(e_l, [e_i, e_j]), nonzero only."""
        gcols = sparse_columns(self.g)
        out = {}
        for (i, j), row in self.brackets.items():
            for k, x in row.items():
                for l, gl in gcols[k].items():
                    out[i, j, l] = out.get((i, j, l), 0) + gl * x
        return _prune(out)

    def bracket(self, i: int, j: int) -> FrameVector:
        return vector_of(self.dim, self.brackets.get((i, j), {}))

    def bracket_coeffs(self, x: dict, y: dict) -> dict:
        """[x, y] for sparse coefficient maps, through the bracket table."""
        table = self.brackets
        out = {}
        for a, xa in x.items():
            for b, yb in y.items():
                row = table.get((a, b))
                if row:
                    w = xa * yb
                    for k, cab in row.items():
                        out[k] = out.get(k, 0) + cab * w
        return _prune(out)

    def bracket_vec(self, x: FrameVector, y: FrameVector) -> FrameVector:
        return vector_of(self.dim,
                         self.bracket_coeffs(_coeff_map(x), _coeff_map(y)))

    def g_of(self, x: FrameVector, y: FrameVector) -> ParamScalar:
        total = ZERO
        for a in range(self.dim):
            xa = x.coeffs[a]
            if xa.is_zero():
                continue
            for b in range(self.dim):
                if self.g[a][b]:
                    total = total + xa * y.coeffs[b] * self.g[a][b]
        return total

    def __eq__(self, other):
        if not isinstance(other, FrameManifold):
            return NotImplemented
        return (self.name, self.dim, self.brackets, self.g, self.params) == \
               (other.name, other.dim, other.brackets, other.g, other.params)

    def __repr__(self):
        return f"FrameManifold({self.name!r}, dim={self.dim})"


def identity_metric(dim: int):
    return tuple(tuple(Fraction(1) if i == j else Fraction(0)
                       for j in range(dim)) for i in range(dim))


# -- validation ---------------------------------------------------------------

def _jacobi_coeffs(M: FrameManifold, i: int, j: int, k: int) -> dict:
    table = M.brackets
    out = {}
    for a, b, z in ((i, j, k), (j, k, i), (k, i, j)):
        for s, x in table.get((a, b), {}).items():
            for l, y in table.get((s, z), {}).items():
                out[l] = out.get(l, 0) + x * y
    return _prune(out)


def jacobi_defect(M: FrameManifold, i: int, j: int, k: int) -> FrameVector:
    """[[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j]; zero iff the
    bracket satisfies the Jacobi identity on this triple."""
    return vector_of(M.dim, _jacobi_coeffs(M, i, j, k))


def validate(M: FrameManifold, strict: bool = False) -> CheckReport:
    """Check antisymmetry of the structure constants and symmetry plus
    positive-definiteness of the metric. Strict mode also requires the
    Jacobi identity and reports the defect vector of each failing triple."""
    report = CheckReport(f"{M.name} validate" + (" (strict)" if strict else ""))
    bad = set()
    for (i, j), row in M.brackets.items():
        back = M.brackets.get((j, i), {})
        for k, x in row.items():
            if back.get(k, 0) != -x:
                bad.update(((i + 1, j + 1, k + 1), (j + 1, i + 1, k + 1)))
    bad = sorted(bad)
    report.add("bracket antisymmetry", not bad,
               "violated at " + "; ".join(str(t) for t in bad[:8]))

    asym = [(i + 1, j + 1) for i in range(M.dim) for j in range(M.dim)
            if M.g[i][j] != M.g[j][i]]
    report.add("metric symmetry", not asym,
               "violated at " + "; ".join(str(t) for t in asym[:8]))

    if not asym:
        minors = leading_minor_determinants(M.g)
        bad_minor = next((k for k, d in enumerate(minors, start=1) if d <= 0), None)
        report.add("metric positive-definite", bad_minor is None,
                   None if bad_minor is None else
                   f"leading minor {bad_minor} has determinant "
                   f"{format_rational(minors[bad_minor - 1])}")

    if strict:
        defects = []
        for i in range(M.dim):
            for j in range(i + 1, M.dim):
                for k in range(j + 1, M.dim):
                    d = _jacobi_coeffs(M, i, j, k)
                    if d:
                        defects.append(f"({i + 1},{j + 1},{k + 1}): "
                                       f"{vector_of(M.dim, d).render()}")
        report.add("jacobi identity", not defects, "; ".join(defects))
    return report


# -- connection, curvature, ricci ---------------------------------------------

@dataclass(frozen=True)
class ConnectionTable:
    manifold: FrameManifold
    gamma: dict   # {(i, j): {k: Gamma_ij^k}}, nabla_{e_i} e_j = Gamma_ij^k e_k
    koszul: dict  # {(i, j, l): g(nabla_{e_i} e_j, e_l)}

    def entry(self, i: int, j: int) -> FrameVector:
        return vector_of(self.manifold.dim, self.gamma.get((i, j), {}))

    def coeff(self, i: int, j: int, k: int) -> ParamScalar:
        return ParamScalar.rational(self.gamma.get((i, j), {}).get(k, 0))

    def nabla_vec(self, i: int, v: FrameVector) -> FrameVector:
        """nabla_{e_i} of a frame-constant vector field."""
        out = {}
        for a, va in _coeff_map(v).items():
            for k, x in self.gamma.get((i, a), {}).items():
                out[k] = out.get(k, 0) + x * va
        return vector_of(self.manifold.dim, out)

    def nonzero(self):
        for (i, j) in sorted(self.gamma):
            yield i, j, self.entry(i, j)


def levi_civita(M: FrameManifold) -> ConnectionTable:
    """Koszul formula reduced for a frame-constant metric:
    2 g(nabla_{e_i} e_j, e_l) = C_ijl - C_jli + C_lij with
    C_ijl = g(e_l, [e_i, e_j]); each nonzero C adds to three entries, and
    g^{-1} raises the last index.
    """
    lowered = {}
    for (i, j, l), x in M.lowered_brackets.items():
        lowered[i, j, l] = lowered.get((i, j, l), 0) + x
        lowered[l, i, j] = lowered.get((l, i, j), 0) - x
        lowered[j, l, i] = lowered.get((j, l, i), 0) + x
    koszul = {key: x / 2 for key, x in lowered.items() if x}
    gi_cols = sparse_columns(M.g_inv)
    raised = {}
    for (i, j, l), x in koszul.items():
        row = raised.setdefault((i, j), {})
        for k, gkl in gi_cols[l].items():
            row[k] = row.get(k, 0) + gkl * x
    return ConnectionTable(M, _prune_rows(raised), koszul)


@dataclass(frozen=True)
class CurvatureTensor:
    manifold: FrameManifold
    comp: dict  # {(i, j, k): {l: R_ijk^l}}, R(e_i, e_j) e_k = R_ijk^l e_l

    def entry(self, i: int, j: int, k: int) -> FrameVector:
        return vector_of(self.manifold.dim, self.comp.get((i, j, k), {}))

    def lowered(self, i: int, j: int, k: int, l: int) -> ParamScalar:
        """R(e_i, e_j, e_k, e_l) = g(R(e_i, e_j) e_k, e_l)."""
        g = self.manifold.g
        return ParamScalar.rational(sum(
            (x * g[a][l] for a, x in self.comp.get((i, j, k), {}).items()),
            Fraction(0)))

    def apply_coeffs(self, x: dict, y: dict, z: dict) -> dict:
        """R(x, y) z for coefficient maps."""
        out = {}
        for i, xi in x.items():
            for j, yj in y.items():
                w = xi * yj
                for k, zk in z.items():
                    vec = self.comp.get((i, j, k))
                    if vec:
                        wk = w * zk
                        for l, r in vec.items():
                            out[l] = out.get(l, 0) + r * wk
        return _prune(out)

    def apply(self, x: FrameVector, y: FrameVector, z: FrameVector) -> FrameVector:
        """Trilinear extension of R to frame-constant vector fields."""
        return vector_of(self.manifold.dim, self.apply_coeffs(
            _coeff_map(x), _coeff_map(y), _coeff_map(z)))

    def nonzero(self):
        for (i, j, k) in sorted(self.comp):
            yield i, j, k, self.entry(i, j, k)


def _integer_rows(table: dict) -> tuple:
    """({key: {k: int}}, d) with every value of table equal to int / d."""
    d = 1
    for row in table.values():
        for x in row.values():
            d = lcm(d, x.denominator)
    return {key: {k: x.numerator * (d // x.denominator)
                  for k, x in row.items()}
            for key, row in table.items()}, d


def curvature(M: FrameManifold, conn: ConnectionTable) -> CurvatureTensor:
    """R(X, Y) Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_{[X, Y]} Z,
    so R_ijk^l = T_ijk^l - T_jik^l - sum_a c_ij^a Gamma_ak^l with
    T_ijk^l = sum_a Gamma_jk^a Gamma_ia^l.

    Gamma and c are scaled to integers over common denominators dg and dc,
    the sums run on ints over dg^2 dc, and each entry is divided once."""
    gamma, dg = _integer_rows(conn.gamma)
    brackets, dc = _integer_rows(M.brackets)
    by_first: dict = {}
    by_second: dict = {}
    for (i, a), row in gamma.items():
        by_first.setdefault(i, []).append((a, row))
        by_second.setdefault(a, []).append((i, row))
    acc: dict = {}
    for (j, k), row_jk in gamma.items():
        for a, x in row_jk.items():
            x *= dc
            for i, row_ia in by_second.get(a, ()):
                if i == j:
                    continue
                plus = acc.setdefault((i, j, k), {})
                minus = acc.setdefault((j, i, k), {})
                for l, y in row_ia.items():
                    t = x * y
                    plus[l] = plus.get(l, 0) + t
                    minus[l] = minus.get(l, 0) - t
    for (i, j), br in brackets.items():
        for a, x in br.items():
            x *= dg
            for k, row_ak in by_first.get(a, ()):
                vec = acc.setdefault((i, j, k), {})
                for l, y in row_ak.items():
                    vec[l] = vec.get(l, 0) - x * y
    den = dg * dg * dc
    return CurvatureTensor(M, {key: {l: Fraction(x, den) for l, x in vec.items()}
                               for key, vec in _prune_rows(acc).items()})


def bianchi_defect(R: CurvatureTensor, i: int, j: int, k: int) -> FrameVector:
    """R(e_i,e_j)e_k + R(e_j,e_k)e_i + R(e_k,e_i)e_j (first Bianchi sum)."""
    return R.entry(i, j, k) + R.entry(j, k, i) + R.entry(k, i, j)


@dataclass(frozen=True)
class RicciTensor:
    manifold: FrameManifold
    ric: dict  # {(j, k): ric(e_j, e_k)}, nonzero entries only

    def entry(self, j: int, k: int) -> ParamScalar:
        return ParamScalar.rational(self.ric.get((j, k), 0))

    def apply(self, y: FrameVector, z: FrameVector) -> ParamScalar:
        yc, zc = _coeff_map(y), _coeff_map(z)
        total = 0
        for (j, k), x in self.ric.items():
            if j in yc and k in zc:
                total = total + yc[j] * zc[k] * x
        return _as_scalar(total)

    def nonzero(self):
        for (j, k) in sorted(self.ric):
            yield j, k, self.entry(j, k)


def ricci(M: FrameManifold, R: CurvatureTensor) -> RicciTensor:
    """ric(e_j, e_k) = trace of X -> R(X, e_j) e_k. Equals the contraction of
    the lowered tensor through g^{-1}; for an identity metric this is the
    plain orthonormal-frame sum over R(e_i, e_j, e_k, e_i)."""
    acc = {}
    for (i, j, k), vec in R.comp.items():
        if i in vec:
            acc[j, k] = acc.get((j, k), 0) + vec[i]
    return RicciTensor(M, {key: x for key, x in acc.items() if x})


def ricci_via_metric(M: FrameManifold, R: CurvatureTensor) -> RicciTensor:
    """Same contraction routed through g^{-1} and the lowered tensor, read
    through the accessors only; kept as the reference that tests compare
    ricci against, for non-identity metrics."""
    m = M.dim
    gi = M.g_inv
    tab = {}
    for j in range(m):
        for k in range(m):
            total = ZERO
            for i in range(m):
                for l in range(m):
                    if gi[i][l]:
                        total = total + R.lowered(i, j, k, l) * gi[i][l]
            if not total.is_zero():
                tab[j, k] = total.constant_value()
    return RicciTensor(M, tab)


def scalar_curvature(M: FrameManifold, ric_t: RicciTensor) -> ParamScalar:
    gi = M.g_inv
    return ParamScalar.rational(sum(
        (x * gi[i][j] for (i, j), x in ric_t.ric.items() if gi[i][j]),
        Fraction(0)))


def ricci_operator_coeffs(M: FrameManifold, ric_t: RicciTensor) -> dict:
    """{(a, j): Q_aj} with g(Q e_j, e_k) = ric(e_j, e_k), nonzero only."""
    gi_cols = sparse_columns(M.g_inv)
    acc = {}
    for (l, j), x in ric_t.ric.items():
        for a, gal in gi_cols[l].items():
            acc[a, j] = acc.get((a, j), 0) + gal * x
    return {key: x for key, x in acc.items() if x}


def ricci_operator(M: FrameManifold, ric_t: RicciTensor) -> tuple:
    """Endomorphism Q with g(Q e_j, e_k) = ric(e_j, e_k); column j is Q e_j.
    Returned as a matrix q[a][j] of ParamScalar."""
    return _matrix_of(M.dim, ricci_operator_coeffs(M, ric_t))


# -- derived operations --------------------------------------------------------

def lie_derivative_metric(M: FrameManifold, conn: ConnectionTable,
                          X: FrameVector) -> tuple:
    """(L_X g)(e_i, e_j) = g(nabla_{e_i} X, e_j) + g(e_i, nabla_{e_j} X)."""
    x = _coeff_map(X)
    acc = {}
    for (i, a, j), q in conn.koszul.items():
        if a in x:
            t = q * x[a]
            acc[i, j] = acc.get((i, j), 0) + t
            acc[j, i] = acc.get((j, i), 0) + t
    return _matrix_of(M.dim, acc)


def is_killing(M: FrameManifold, conn: ConnectionTable, X: FrameVector):
    """Return (flag, defect table) where the defect is L_X g."""
    lx = lie_derivative_metric(M, conn, X)
    ok = all(entry.is_zero() for row in lx for entry in row)
    return ok, lx


def endo_derivative_coeffs(conn: ConnectionTable, q: dict) -> dict:
    """{(i, j): {k: ((nabla_{e_i} Q) e_j)_k}} for a frame-constant
    endomorphism given as {(a, j): Q_aj}, nonzero entries only:
    (nabla_{e_i} Q) e_j = nabla_{e_i}(Q e_j) - Q(nabla_{e_i} e_j)."""
    q_rows: dict = {}
    q_cols: dict = {}
    for (a, j), x in q.items():
        q_rows.setdefault(a, []).append((j, x))
        q_cols.setdefault(j, []).append((a, x))
    acc: dict = {}
    for (i, a), row in conn.gamma.items():
        for j, qaj in q_rows.get(a, ()):
            vec = acc.setdefault((i, j), {})
            for k, x in row.items():
                vec[k] = vec.get(k, 0) + x * qaj
        for b, x in row.items():
            cols = q_cols.get(b)
            if cols:
                vec = acc.setdefault((i, a), {})
                for k, qkb in cols:
                    vec[k] = vec.get(k, 0) - x * qkb
    return _prune_rows(acc)


def covariant_derivative_endo(M: FrameManifold, conn: ConnectionTable,
                              Q: tuple) -> tuple:
    """(nabla_{e_i} Q) e_j = nabla_{e_i}(Q e_j) - Q(nabla_{e_i} e_j) for a
    frame-constant endomorphism Q given column-wise (Q[a][j] = coeff of e_a
    in Q e_j). Returns a table [i][j] of FrameVector."""
    m = M.dim
    q = {}
    for a in range(m):
        for j in range(m):
            x = _as_scalar(Q[a][j])
            if not x.is_zero():
                q[a, j] = _plain(x)
    d = endo_derivative_coeffs(conn, q)
    return tuple(tuple(vector_of(m, d.get((i, j), {})) for j in range(m))
                 for i in range(m))
