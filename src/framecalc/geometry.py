"""Frame manifolds with constant structure data, and the exact tensor calculus
on them: Levi-Civita connection via the Koszul formula, curvature, Ricci,
Lie derivatives of the metric, covariant derivatives of endomorphisms.

A manifold here is a homogeneous presentation: an orthonormal-style frame
e_1..e_m with constant antisymmetric structure coefficients
[e_i, e_j] = sum_k c_ij^k e_k, stored as a sparse table of the nonzero
brackets, and a constant symmetric metric g on the frame. All indices are
0-based internally; rendered output is 1-based.

Tensors are sparse: a dict from an index tuple to a number, or to a sparse
vector {k: number} for the upper index, holding nonzero entries only. The
geometry is built from c and g alone, so it is rational; each stage stores
and hands on integer tables over one denominator, (table, d). The Fraction
tables the reports print (conn.gamma, R.comp, ric.ric) and the dense M.c
are built only when read. Kernels cost time in proportion to the
nonzero entries they combine, and so do the checks (validate here,
contact.py), which list their defects through one comparer, compare. One
elimination per manifold gives g^{-1} and the leading minors. Every vector
text is rendered from a sparse map (render_vector), as are the parser's
expect nabla and riem values, maps {k: int | Fraction}. ParamScalar and
FrameVector appear only where a caller's field or scalar brings in
parameters, and in RicciTensor.entry. L_X g, the one parametric
contraction, is split by the monomials of X and built on ints one
monomial part at a time, on the part's first read (LieDerivativeParts).
The package holds what a command or the benchmark reaches; the few names
that neither reaches say why they stay.
"""
from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import gcd, lcm

from .record import Record
from .reports import CheckReport
from .scalars import (ParamScalar, ZERO, as_fraction, format_rational,
                      join_parts, monomial_parts)

class GeometryError(ValueError):
    pass


def _as_scalar(x) -> ParamScalar:
    if isinstance(x, ParamScalar):
        return x
    return ParamScalar.rational(x)


# -- sparse helpers -----------------------------------------------------------
# Sparse coefficient maps {index: value} hold Fractions, or ParamScalars where
# a caller's data is parametric.

def matrix_of(dim: int, entries: dict) -> tuple:
    """m x m matrix of ParamScalars with the given sparse entries."""
    return tuple(tuple(_as_scalar(entries[i, j]) if (i, j) in entries else ZERO
                       for j in range(dim)) for i in range(dim))


# Kernels multiply and add on ints: a rational table is scaled to integers
# over one common denominator, and an output is kept in lowest terms
# (reduced) or divided once.

def integer_map(vec: dict) -> tuple:
    """({k: int}, d) with vec[k] = int / d for a map of rationals."""
    d = lcm(*(x.denominator for x in vec.values()))
    return {k: x.numerator * (d // x.denominator) for k, x in vec.items()}, d


def integer_rows(table: dict) -> tuple:
    """({key: {k: int}}, d) with every value of table equal to int / d over
    the least such d; a table of ints is returned as it is, with d = 1."""
    if all(type(x) is int for row in table.values() for x in row.values()):
        return table, 1
    d = lcm(*(x.denominator for row in table.values() for x in row.values()))
    return {key: {k: x.numerator * (d // x.denominator)
                  for k, x in row.items()}
            for key, row in table.items()}, d


def divided(vec: dict, d: int) -> dict:
    """The nonzero entries of the integer map vec, each divided by d."""
    return {k: Fraction(x, d) for k, x in vec.items() if x}


def divided_rows(table: dict, d: int) -> dict:
    """divided over each row, without the rows it leaves empty."""
    return {key: row for key, r in table.items() if (row := divided(r, d))}


def reduced(vec: dict, d: int) -> tuple:
    """integer_map(divided(vec, d)), in its order: (vec, d) in lowest terms."""
    q = gcd(d, *vec.values())
    return {k: x // q for k, x in vec.items() if x}, d // q


def reduced_rows(table: dict, d: int) -> tuple:
    """integer_rows(divided_rows(table, d)), as reduced gives for a map."""
    q = gcd(d, *(x for row in table.values() for x in row.values()))
    return {key: r for key, row in table.items()
            if (r := {k: x // q for k, x in row.items() if x})}, d // q


def joined(parts: dict) -> dict:
    """{key: ParamScalar} of a table given by its monomial parts {monomial:
    ({key: int}, d)}: each entry divided once and one ParamScalar built per
    nonzero entry."""
    return join_parts({mono: divided(vec, d) for mono, (vec, d) in parts.items()})


def columns(dim: int, mat, error, name: str) -> tuple:
    """({j: {i: int}}, d): the nonzero entries of a dim x dim matrix, dense or
    {(i, j): x}, by columns, all present, i ascending, on ints over their
    least common denominator (integer_rows; an int entry is kept as it is);
    else error(text)."""
    if not isinstance(mat, dict):
        if len(mat) != dim or any(len(r) != dim for r in mat):
            raise error(f"{name} must be dim x dim")
        mat = {(i, j): x for i, row in enumerate(mat) for j, x in enumerate(row) if x}
    cols = {j: {} for j in range(dim)}
    for (i, j), x in sorted(mat.items()):
        if not (0 <= i < dim and 0 <= j < dim):
            raise error(f"{name} index out of range 0..{dim - 1} at entry ({i}, {j})")
        if x:
            cols[j][i] = x if type(x) is int else as_fraction(x)
    return integer_rows(cols)


def apply_columns(cols, v: dict) -> dict:
    """The endomorphism with coefficient-map columns cols, applied to v."""
    out = {}
    for j, x in v.items():
        for a, p in cols[j].items():
            out[a] = out.get(a, 0) + p * x
    return {a: x for a, x in out.items() if x}


# -- exact linear algebra: fraction-free elimination ---------------------------

def _bareiss(a: list) -> tuple:
    """Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) of the n
    integer rows [b | I] of a in place, b square, with exact divisions; the
    rows above each pivot are eliminated too, leaving p * I beside
    p * b^{-1} for the last pivot p. Returns (det b, leading minors up to
    the first zero one, read off the pivots before any row swap)."""
    n = len(a)
    prev, sign, minors = 1, 1, []
    for k in range(n):
        if sign == 1 and len(minors) == k:  # no row swap so far
            minors.append(a[k][k])
        if not a[k][k]:
            piv = next((r for r in range(k + 1, n) if a[r][k]), None)
            if piv is None:
                return 0, minors
            a[k], a[piv], sign = a[piv], a[k], -sign
        p, rk = a[k][k], a[k]
        for i in range(n):
            f = a[i][k]
            if i != k and (f or p != prev):
                a[i] = [(x * p - f * y) // prev for x, y in zip(a[i], rk)]
        prev = p
    return sign * prev, minors


# -- vectors -----------------------------------------------------------------

def render_vector(coeffs: dict) -> str:
    """sum_k coeffs[k] e_{k+1} as text, for {k: int, Fraction or ParamScalar}
    in any key order: zeros skipped, e1 for 1, -e1 for -1, "0" for no term."""
    parts = []
    for k in sorted(coeffs):
        c, name = coeffs[k], f"e{k + 1}"
        s = c.render() if isinstance(c, ParamScalar) else format_rational(c)
        if s == "1":
            parts.append(name)
        elif s == "-1":
            parts.append("-" + name)
        elif s != "0":
            parts.append(f"({s})*{name}" if " + " in s else f"{s}*{name}")
    return " + ".join(parts) or "0"


def check_lengths(dim: int, what: str, *values, error=GeometryError) -> None:
    """error("<what> has n entries, not dim") for the first of values of
    another length n; a value of None (an argument not given) is skipped."""
    for v in values:
        if v is not None and len(v) != dim:
            raise error(f"{what} has {len(v)} entries, not {dim}")


class FrameVector(Record):
    """A vector field with constant coefficients in the frame, each held as
    a ParamScalar."""

    def __init__(self, coeffs: tuple):
        self.coeffs = tuple(_as_scalar(c) for c in coeffs)

    @classmethod
    def from_values(cls, values) -> "FrameVector":
        # kept: perfbench/workloads.py builds its fields with it
        return cls(values)

    def render(self) -> str:
        return render_vector(dict(enumerate(self.coeffs)))


# -- the manifold ------------------------------------------------------------

class FrameManifold:
    """Constant structure constants plus a constant metric g.

    c and g are stored only as integer forms (table, d), each value being
    int / d over the least such d. brackets_int holds the nonzero bracket
    table {(i, j): {k: int}}, 0-based, with both orders of every pair, in
    ascending order of (i, j) and of k; g_int holds g by columns (columns).
    The constructor takes a bracket table of rationals with both orders,
    and g as a dense matrix or as a map {(i, j): g_ij}; given takes the
    integer forms as they are. c is a dense view built on read.
    """

    # kept though no command calls it: the library's checked constructor,
    # for a caller that holds rational tables (the parser uses given)
    def __init__(self, name: str, dim: int, brackets: dict, g, params=()):
        if dim < 1:
            raise GeometryError("dimension must be positive")
        table = {}
        for (i, j), row in sorted(brackets.items()):
            if not all(0 <= t < dim for t in (i, j, *row)):
                raise GeometryError(f"bracket index out of range 0..{dim - 1} "
                                    f"at pair ({i}, {j})")
            row = {k: as_fraction(x) for k, x in sorted(row.items()) if x}
            if row:
                table[i, j] = row
        self.name, self.dim, self.params = name, dim, frozenset(params) | {"p"}
        self.brackets_int = integer_rows(table)
        self.g_int = columns(dim, g, GeometryError, "metric")

    @classmethod
    def given(cls, name: str, dim: int, brackets_int: tuple, g_int: tuple,
              params=()) -> "FrameManifold":
        """The manifold of integer forms already in the order and lowest
        terms the constructor gives them, taken as they are. The parser
        builds M this way: the constructor, which converts and sorts every
        entry again, made a parse about 40 us slower per H_5..H_13 document
        and 300 us per dense H_5..H_9 frame (2 cores, Python 3.11)."""
        M = cls.__new__(cls)
        M.name, M.dim, M.params = name, dim, frozenset(params) | {"p"}
        M.brackets_int, M.g_int = brackets_int, g_int
        return M

    @cached_property
    def c(self) -> tuple:
        """Dense view c[i][j][k] of the bracket table, Fractions, built when
        first read; perfbench/workloads.py reads it."""
        (table, d), m = self.brackets_int, self.dim
        zero = Fraction(0)
        return tuple(tuple(tuple(Fraction(row[k], d) if k in row else zero
                                 for k in range(m))
                           for row in (table.get((i, j), {}) for j in range(m)))
                     for i in range(m))

    @cached_property
    def elimination(self) -> tuple:
        """(minors, inverse) from one fraction-free elimination of [g | I]:
        the leading minors of g up to the first zero one, ints where g is
        integral, and g^{-1} as integer columns {j: {i: int}} over the least
        d > 0, (cols, d), or None if g is singular."""
        (cols, d), n = self.g_int, self.dim
        aug = [[0] * (2 * n) for _ in range(n)]  # [a | I], a = d g
        for j, col in cols.items():
            aug[j][n + j] = 1
            for i, x in col.items():
                aug[i][j] = x
        det, minors = _bareiss(aug)
        if d > 1:
            minors = [Fraction(x, d ** k) for k, x in enumerate(minors, start=1)]
        if not det:
            return minors, None
        p, q = aug[0][0], 0  # p * I beside p * a^{-1}, and g^{-1} = d * a^{-1}
        for row in aug:  # the gcd of the inverse block, row by row
            if (q := gcd(q, *row[n:])) == 1:
                break
        q = gcd(p, d * q) * (p // abs(p))
        inverse = {j: {} for j in range(n)}
        for i, row in enumerate(aug):  # its nonzero entries, row by row
            for j in compress(range(n), row[n:]):
                inverse[j][i] = d * row[n + j] // q
        return minors, (inverse, p // q)

    @cached_property
    def g_inv_int(self) -> tuple:
        if self.elimination[1] is None:
            raise GeometryError("metric is singular")
        return self.elimination[1]

    # the derivation, each stage computed once, on first read; the kernels
    # are looked up in this module at call time, so a wrapper set there
    # (a tracer, a test's counter) sees every call
    @cached_property
    def conn(self) -> "ConnectionTable":
        return levi_civita(self)

    @cached_property
    def riem(self) -> "CurvatureTensor":
        return curvature(self, self.conn)

    @cached_property
    def ric(self) -> "RicciTensor":
        return ricci(self, self.riem)

    # kept: ManifoldDocument equality, which the round-trip tests compare,
    # reads it
    def __eq__(self, other):
        if not isinstance(other, FrameManifold):
            return NotImplemented
        return (self.name, self.dim, self.brackets_int, self.g_int, self.params) == \
               (other.name, other.dim, other.brackets_int, other.g_int, other.params)


def bracket_sum(table: dict, x: dict, y: dict) -> dict:
    """sum of x_a y_b table[a, b] over a table {(a, b): {k: c}} (brackets,
    or Gamma for nabla_x y) and coefficient maps x, y, unscaled and unpruned."""
    out = {}
    for a, xa in x.items():
        for b, yb in y.items():
            row = table.get((a, b))
            if row:
                w = xa * yb
                for k, cab in row.items():
                    out[k] = out.get(k, 0) + cab * w
    return out


def add_to(table: dict, key, vec: dict, w: int = 1) -> None:
    """table[key] += w * vec, for integer maps vec."""
    row = table.setdefault(key, {})
    for k, x in vec.items():
        row[k] = row.get(k, 0) + w * x


def compare(lhs: dict, dl: int, rhs: dict, dr: int, fmt=None) -> list:
    """The defects of lhs / dl = rhs / dr for integer tables {key: {k: int}},
    in key order: each key is decided on ints, and only where the sides differ
    is the list fmt(key, left, right) on their rational maps, or the 1-based
    key and the difference, "(1,2): -e3", built. Every check lists its
    defects here."""
    bad, keys = [], []
    for key in lhs.keys() | rhs.keys():
        left, right = lhs.get(key, {}), rhs.get(key, {})
        for k in left.keys() | right.keys():
            if left.get(k, 0) * dr != right.get(k, 0) * dl:
                keys.append((key, left, right))
                break
    for key, left, right in sorted(keys):  # distinct keys: no map is compared
        if fmt:
            bad += fmt(key, divided(left, dl), divided(right, dr))
        else:
            label = ",".join(str(t + 1) for t in key)
            bad.append(f"({label}): " + render_vector({
                k: Fraction(left.get(k, 0) * dr - right.get(k, 0) * dl, dl * dr)
                for k in left.keys() | right.keys()}))
    return bad


def entry_defects(parts: dict, limit: int | None = None) -> list:
    """The texts "(1,2): value" of the first limit nonzero entries, in key
    order, of a table given by its monomial parts {monomial: ({(i, j): int},
    d)}; a ParamScalar is built only for an entry listed."""
    keys = sorted({key for vec, _ in parts.values()
                   for key, x in vec.items() if x})[:limit]
    shown = joined({mono: ({key: vec.get(key, 0) for key in keys}, d)
                    for mono, (vec, d) in parts.items()})
    return [f"({i + 1},{j + 1}): {shown[i, j].render()}" for i, j in keys]


# -- validation ---------------------------------------------------------------

def validate(M: FrameManifold, strict: bool = False) -> CheckReport:
    """Check antisymmetry of the structure constants and symmetry plus
    positive-definiteness of the metric. Strict mode also requires the
    Jacobi identity and reports the defect vector of each failing triple:
    one sweep over the nonzero [[e_a, e_b], e_z] keeps each term whose
    (a, b, z) is a cyclic rotation of an increasing triple."""
    report = CheckReport(f"{M.name} validate" + (" (strict)" if strict else ""))
    bad = set()
    table, dc = M.brackets_int
    for (i, j), row in table.items():
        back = table.get((j, i), {})
        for k, x in row.items():
            if back.get(k, 0) != -x:
                bad.update(((i + 1, j + 1, k + 1), (j + 1, i + 1, k + 1)))
    bad = sorted(bad)
    report.add_check("bracket antisymmetry", bad[:8], "violated at ")

    cols = M.g_int[0]
    asym = sorted({key for j, col in cols.items() for i, x in col.items()
                   if cols[i].get(j) != x for key in ((i + 1, j + 1), (j + 1, i + 1))})
    report.add_check("metric symmetry", asym[:8], "violated at ")

    if not asym:
        minors = M.elimination[0]
        bad_minor = next((k for k, d in enumerate(minors, start=1) if d <= 0), None)
        report.add("metric positive-definite", bad_minor is None,
                   None if bad_minor is None else
                   f"leading minor {bad_minor} has determinant "
                   f"{format_rational(minors[bad_minor - 1])}")

    if strict:
        by_first, jac = {}, {}
        for (s, z), row in table.items():
            by_first.setdefault(s, []).append((z, row))
        for (a, b), row in table.items():
            for s, x in row.items():
                for z, row_sz in by_first.get(s, ()):
                    key = ((a, b, z) if a < b < z else (b, z, a) if b < z < a
                           else (z, a, b) if z < a < b else None)
                    if key:
                        add_to(jac, key, row_sz, x)
        report.add_check("jacobi identity", compare(jac, dc * dc, {}, 1))
    return report


# -- connection, curvature, ricci ---------------------------------------------

class ConnectionTable(Record):
    """Gamma, nabla_{e_i} e_j = sum_k Gamma_ij^k e_k, and the Koszul table,
    stored only as integer forms (table, d) in lowest terms; gamma is a
    Fraction view built on read."""

    def __init__(self, manifold: FrameManifold, gamma_int: tuple,
                 koszul_int: tuple):
        self.manifold = manifold
        self.gamma_int = gamma_int    # {(i, j): {k: Gamma_ij^k * d}}
        self.koszul_int = koszul_int  # {(i, j, l): g(nabla_{e_i} e_j, e_l) * d}

    # a Fraction view, read by the connection report and nonzero
    gamma = cached_property(lambda self: divided_rows(*self.gamma_int))

    @cached_property
    def lie_int(self) -> tuple:
        """(table, d): {a: {(i, j): int}} with (L_{e_a} g)(e_i, e_j) =
        g(nabla_{e_i} e_a, e_j) + g(e_i, nabla_{e_j} e_a) = int / d, the
        Koszul table indexed by its middle index; nonzero entries only."""
        koszul, dk = self.koszul_int
        table: dict = {}
        for (i, a, j), q in koszul.items():
            row = table.setdefault(a, {})
            row[i, j] = row.get((i, j), 0) + q
            row[j, i] = row.get((j, i), 0) + q
        return {a: {key: x for key, x in row.items() if x}
                for a, row in table.items()}, dk

    @cached_property
    def gamma_rows(self) -> tuple:
        """(by_first, by_second): the integer Gamma rows (i, a) -> {k: int}
        listed as by_first[i] = [(a, row)] and by_second[a] = [(i, row)]."""
        by_first, by_second = {}, {}
        for (i, a), row in self.gamma_int[0].items():
            by_first.setdefault(i, []).append((a, row))
            by_second.setdefault(a, []).append((i, row))
        return by_first, by_second

    def nonzero(self):
        # kept: perfbench/tracing.py counts conn_nnz through it
        yield from sorted(self.gamma.items())


def levi_civita(M: FrameManifold) -> ConnectionTable:
    """Koszul formula reduced for a frame-constant metric:
    2 g(nabla_{e_i} e_j, e_l) = C_ijl - C_jli + C_lij with
    C_ijl = g(e_l, [e_i, e_j]); each nonzero C adds to three entries, and
    g^{-1} raises the last index. All sums run on integer numerators.
    """
    table, dc = M.brackets_int
    gcols, dg = M.g_int
    gi_cols, dgi = M.g_inv_int
    twice = {}
    for (i, j), row in table.items():
        for l, x in apply_columns(gcols, row).items():  # C_ijl
            twice[i, j, l] = twice.get((i, j, l), 0) + x
            twice[l, i, j] = twice.get((l, i, j), 0) - x
            twice[j, l, i] = twice.get((j, l, i), 0) + x
    raised = {}
    for (i, j, l), x in twice.items():
        if x:
            add_to(raised, (i, j), gi_cols[l], x)
    return ConnectionTable(M, reduced_rows(raised, 2 * dc * dg * dgi),
                           reduced(twice, 2 * dc * dg))


class CurvatureTensor(Record):
    """The curvature of conn. Its table comp is built on first read; ricci
    and the Reeb and gradient curvature identities work from Gamma and c
    alone."""

    def __init__(self, manifold: FrameManifold, conn: ConnectionTable):
        self.manifold = manifold
        self.conn = conn

    @cached_property
    def comp(self) -> dict:  # {(i, j, k): {l: R_ijk^l}}, R(e_i, e_j) e_k = R_ijk^l e_l
        return _curvature_components(self.manifold, self.conn)

    def nonzero(self):
        # kept: perfbench/tracing.py counts curv_nnz through it
        yield from sorted(self.comp.items())


def curvature(M: FrameManifold, conn: ConnectionTable) -> CurvatureTensor:
    """The curvature of conn; its components are built when first read."""
    return CurvatureTensor(M, conn)


def _curvature_components(M: FrameManifold, conn: ConnectionTable) -> dict:
    """R(X, Y) Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_{[X, Y]} Z,
    so R_ijk^l = T_ijk^l - T_jik^l - sum_a c_ij^a Gamma_ak^l with
    T_ijk^l = sum_a Gamma_jk^a Gamma_ia^l.

    Gamma and c are scaled to integers over common denominators dg and dc,
    the sums run on ints over dg^2 dc, and each entry is divided once."""
    gamma, dg = conn.gamma_int
    brackets, dc = M.brackets_int
    by_first, by_second = conn.gamma_rows
    acc: dict = {}
    for (j, k), row_jk in gamma.items():
        for a, x in row_jk.items():
            x *= dc
            for i, row_ia in by_second.get(a, ()):
                if i != j:
                    add_to(acc, (i, j, k), row_ia, x)
                    add_to(acc, (j, i, k), row_ia, -x)
    for (i, j), br in brackets.items():
        for a, x in br.items():
            for k, row_ak in by_first.get(a, ()):
                add_to(acc, (i, j, k), row_ak, -dg * x)
    return divided_rows(acc, dg * dg * dc)


class RicciTensor(Record):
    """ric, stored only as its integer form (table, d) in lowest terms; ric
    is a Fraction view built on read."""

    def __init__(self, manifold: FrameManifold, ric_int: tuple):
        self.manifold = manifold
        self.ric_int = ric_int  # {(j, k): int}, ric(e_j, e_k) over d, nonzero only

    ric = cached_property(lambda self: divided(*self.ric_int))  # a Fraction view

    def entry(self, j: int, k: int) -> ParamScalar:
        # kept: perfbench/checks.py reads the audit's Ricci tensor with it
        return ParamScalar.rational(self.ric.get((j, k), 0))


def ricci(M: FrameManifold, R: CurvatureTensor) -> RicciTensor:
    """ric(e_j, e_k) = trace of X -> R(X, e_j) e_k, taken from Gamma and c
    without building R:
    ric_jk = sum_a Gamma_jk^a t_a - sum_{i,a} Gamma_ik^a Gamma_ja^i
             - sum_{i,a} c_ij^a Gamma_ak^i,  with t_a = sum_i Gamma_ia^i.
    The sums run on ints over dg^2 dc, as in the curvature kernel."""
    gamma, dg = R.conn.gamma_int
    brackets, dc = M.brackets_int
    t: dict = {}
    by_first: dict = {}  # (i, a) -> [(k, Gamma_ik^a)]
    for (i, k), row in gamma.items():
        if i in row:
            t[k] = t.get(k, 0) + row[i]
        for a, x in row.items():
            by_first.setdefault((i, a), []).append((k, x))
    acc: dict = {}
    for (j, k), row in gamma.items():
        acc[j, k] = dc * sum(x * t[a] for a, x in row.items() if a in t)
    for (j, a), row in gamma.items():
        for i, y in row.items():
            y *= dc
            for k, x in by_first.get((i, a), ()):
                acc[j, k] = acc.get((j, k), 0) - x * y
    for (i, j), row in brackets.items():
        for a, x in row.items():
            x *= dg
            for k, y in by_first.get((a, i), ()):
                acc[j, k] = acc.get((j, k), 0) - x * y
    return RicciTensor(M, reduced(acc, dg * dg * dc))


def scalar_curvature_int(M: FrameManifold, ric_t: RicciTensor) -> tuple:
    """(int, d): the scalar curvature g^{jk} ric_jk = int / d."""
    gi_cols, dgi = M.g_inv_int
    ric, dr = ric_t.ric_int
    return sum(x * gi_cols[j].get(i, 0) for (i, j), x in ric.items()), dgi * dr


def scalar_curvature(M: FrameManifold, ric_t: RicciTensor) -> ParamScalar:
    return ParamScalar.rational(Fraction(*scalar_curvature_int(M, ric_t)))


def ricci_operator_int(M: FrameManifold, ric_t: RicciTensor) -> tuple:
    """({(a, j): int}, d): Q_aj = int / d with g(Q e_j, e_k) = ric(e_j, e_k),
    nonzero only, over d = dgi dr for g^{-1} over dgi and ric over dr."""
    gi_cols, dgi = M.g_inv_int
    ric, dr = ric_t.ric_int
    acc = {}
    for (l, j), x in ric.items():
        for a, gal in gi_cols[l].items():
            acc[a, j] = acc.get((a, j), 0) + gal * x
    return {key: x for key, x in acc.items() if x}, dgi * dr


def ricci_operator(M: FrameManifold, ric_t: RicciTensor) -> tuple:
    """Endomorphism Q with g(Q e_j, e_k) = ric(e_j, e_k); column j is Q e_j.
    Returned as a matrix q[a][j] of ParamScalar."""
    return matrix_of(M.dim, divided(*ricci_operator_int(M, ric_t)))


# -- derived operations --------------------------------------------------------

class LieDerivativeParts(Mapping):
    """L_X g by the monomials of X's coefficients: {monomial: ({(i, j): int},
    d)}, each part sum_a x_a L_{e_a} g contracted on the integer
    conn.lie_int. X is split by monomial once, into split ({monomial: {a:
    Fraction}}); a monomial's part is built on its first read and kept, so
    a reader that stops at one monomial builds no part after it."""

    def __init__(self, conn: ConnectionTable, X: FrameVector):
        self.lie_int = conn.lie_int
        self.split = monomial_parts(dict(enumerate(X.coeffs)))
        self._built: dict = {}

    def __getitem__(self, mono) -> tuple:
        if mono not in self._built:
            self._built[mono] = self._part(self.split[mono])
        return self._built[mono]

    def __iter__(self):
        return iter(self.split)

    def __len__(self) -> int:
        return len(self.split)

    def _part(self, coeffs: dict) -> tuple:
        lie, dl = self.lie_int
        x, d = integer_map(coeffs)
        acc: dict = {}
        for a, xa in x.items():
            for key, q in lie.get(a, {}).items():
                acc[key] = acc.get(key, 0) + q * xa
        return acc, dl * d


def endo_derivative_int(conn: ConnectionTable, q: dict, dq: int) -> tuple:
    """({(i, j): {k: ((nabla_{e_i} Q) e_j)_k}}, d) on ints over d, zeros kept,
    for a frame-constant endomorphism given on ints over dq as {(a, j): int}:
    (nabla_{e_i} Q) e_j = nabla_{e_i}(Q e_j) - Q(nabla_{e_i} e_j)."""
    gamma, dg = conn.gamma_int
    q_rows, q_cols = {}, {}
    for (a, j), x in q.items():
        q_rows.setdefault(a, []).append((j, x))
        q_cols.setdefault(j, []).append((a, x))
    acc: dict = {}
    for (i, a), row in gamma.items():
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
    return acc, dg * dq


# kept though nothing in the package calls it: perfbench/tracing.py looks
# it up by name for its covariant_derivative_endo layer
def covariant_derivative_endo(M: FrameManifold, conn: ConnectionTable,
                              Q: tuple) -> dict:
    """(nabla_{e_i} Q) e_j = nabla_{e_i}(Q e_j) - Q(nabla_{e_i} e_j) for a
    frame-constant endomorphism Q given column-wise (Q[a][j] = coeff of e_a
    in Q e_j), as its nonzero rows {(i, j): {k: ParamScalar}}, in ascending
    order: endo_derivative_int run once on Q's nonzero entries as
    ParamScalars, and each nonzero entry divided once."""
    check_lengths(M.dim, "a column or row of Q", Q, *Q)
    table, d = endo_derivative_int(conn, {
        (a, j): _as_scalar(x) for a, row in enumerate(Q)
        for j, x in enumerate(row) if x}, 1)
    return {key: row for key, vec in sorted(table.items())
            if (row := {k: x / d for k, x in sorted(vec.items()) if x})}
