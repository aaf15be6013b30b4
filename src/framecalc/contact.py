"""Almost-contact metric structures on frame manifolds and the Sasakian,
normality and Reeb-field identities.

The structure is (phi, xi, eta): an endomorphism phi, a Reeb vector xi, and
eta the g-dual covector of xi (always derived from xi, never stored). All
entries are exact rationals.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .geometry import (ConnectionTable, CurvatureTensor, FrameManifold,
                       FrameVector, RicciTensor, apply_columns as _apply,
                       bracket_sum, divided, endo_derivative_int, integer_map,
                       integer_rows, sparse_columns, vector_of)
from .record import Record
from .reports import PRECONDITION, CheckItem, CheckReport
from .scalars import format_rational


class ContactError(ValueError):
    pass


class AlmostContactData(Record):
    """phi[a][j] = coefficient of e_a in phi(e_j); xi = Reeb vector coeffs."""

    def __init__(self, phi: tuple, xi: tuple):
        self.phi = phi
        self.xi = xi

    @classmethod
    def from_values(cls, phi, xi) -> "AlmostContactData":
        return cls(tuple(tuple(Fraction(x) for x in row) for row in phi),
                   tuple(Fraction(x) for x in xi))

    @property
    def dim(self) -> int:
        return len(self.xi)

    @cached_property
    def phi_int(self) -> tuple:
        """(columns {j: {a: int}} of phi, d), each value being int / d."""
        return integer_rows(dict(enumerate(sparse_columns(self.phi))))

    def eta(self, M: FrameManifold) -> tuple:
        """eta(e_i) = g(e_i, xi)."""
        _, _, eta, de = _xi_eta(M, self)
        return tuple(Fraction(eta.get(i, 0), de) for i in range(M.dim))

    def xi_vector(self) -> FrameVector:
        return FrameVector.from_values(self.xi)

    def phi_column(self, j: int) -> FrameVector:
        return FrameVector.from_values(tuple(self.phi[a][j] for a in range(self.dim)))


def _fmt_coeffs(dim: int, v: dict, d: int = 1) -> str:
    return vector_of(dim, divided(v, d)).render()


def _minus(a: dict, da: int, b: dict, db: int) -> tuple:
    """a / da - b / db for integer maps, as numerators over da * db."""
    return {k: a.get(k, 0) * db - b.get(k, 0) * da
            for k in a.keys() | b.keys()}, da * db


def _xi_eta(M: FrameManifold, D: AlmostContactData) -> tuple:
    """(xi, dx, eta, de): xi and eta = g(., xi) as integer maps over dx, de."""
    xi, dx = integer_map({a: x for a, x in enumerate(D.xi) if x})
    gcols, dg = M.g_int
    return xi, dx, _apply(gcols, xi), dg * dx


def _d_eta(M: FrameManifold, eta: tuple, i: int, j: int) -> Fraction:
    return -sum((eta[k] * x for k, x in M.brackets.get((i, j), {}).items()),
                Fraction(0)) / 2


def d_eta(M: FrameManifold, D: AlmostContactData, i: int, j: int) -> Fraction:
    """d eta(e_i, e_j) = -1/2 eta([e_i, e_j]) for frame-constant eta."""
    return _d_eta(M, D.eta(M), i, j)


def check_almost_contact(M: FrameManifold, D: AlmostContactData) -> CheckReport:
    """The defining axioms: eta(xi) = 1, phi^2 = -I + xi (x) eta, the metric
    phi-compatibility g(phi X, phi Y) = g(X, Y) - eta(X) eta(Y), phi(xi) = 0
    and eta(phi(.)) = 0. Each side is a sum of integer numerators."""
    m = M.dim
    report = CheckReport(f"{M.name} almost-contact axioms")
    (cols, dp), (gcols, dg) = D.phi_int, M.g_int
    xi, dx, eta, de = _xi_eta(M, D)

    val = Fraction(sum(eta.get(a, 0) * x for a, x in xi.items()), de * dx)
    report.add("eta(xi) = 1", val == 1, f"eta(xi) = {format_rational(val)}")

    bad = []
    for j in range(m):
        col = _apply(cols, cols[j])  # over dp^2
        want = {a: x * eta.get(j, 0) for a, x in xi.items()}  # over dx de
        want[j] = want.get(j, 0) - dx * de
        if any(_minus(col, dp * dp, want, dx * de)[0].values()):
            bad.append(f"phi^2(e{j + 1}) = {_fmt_coeffs(m, col, dp * dp)}")
    report.add_check("phi^2 = -I + xi(x)eta", bad)

    g_phi = [_apply(gcols, cols[j]) for j in range(m)]  # g(., phi e_j)
    bad = []
    for i in range(m):
        for j in range(m):
            lhs = sum(x * g_phi[j].get(a, 0) for a, x in cols[i].items())
            rhs = (gcols[j].get(i, 0) * de * de
                   - dg * eta.get(i, 0) * eta.get(j, 0))
            if lhs * de * de != rhs * dp * dp:  # over dp^2 dg and dg de^2
                bad.append(f"({i + 1},{j + 1})")
    report.add_check("g(phi X, phi Y) = g(X, Y) - eta(X)eta(Y)", bad,
                     "violated at ")

    pxi = _apply(cols, xi)
    report.add("phi(xi) = 0", not pxi, f"phi(xi) = {_fmt_coeffs(m, pxi, dp * dx)}")

    etaphi = divided({j: sum(eta.get(a, 0) * x for a, x in col.items())
                      for j, col in cols.items()}, de * dp)
    report.add("eta(phi(.)) = 0", not etaphi,
               f"eta(phi(e_j)) = {_fmt_coeffs(m, etaphi)}")
    return report


def check_sasakian(M: FrameManifold, conn: ConnectionTable,
                   D: AlmostContactData) -> CheckReport:
    """(nabla_X phi) Y = g(X, Y) xi - eta(Y) X on all frame pairs."""
    report = CheckReport(f"{M.name} sasakian equation")
    pre = check_almost_contact(M, D)
    if pre.overall == "fail":
        failing = [item.name for item in pre.items if item.status != "pass"]
        report.add_item(CheckItem("almost-contact axioms", PRECONDITION,
                                  "failing: " + "; ".join(failing)))
        return report

    m = M.dim
    gcols, dg = M.g_int
    xi, dx, eta, de = _xi_eta(M, D)
    phi = {(a, j): x for a, row in enumerate(D.phi)
           for j, x in enumerate(row) if x}
    dphi, dd = endo_derivative_int(conn, phi)
    bad = []
    for i in range(m):
        for j in range(m):
            rhs = {a: gcols[j].get(i, 0) * x * de for a, x in xi.items()}
            rhs[i] = rhs.get(i, 0) - eta.get(j, 0) * dg * dx  # over dg dx de
            diff, den = _minus(dphi.get((i, j), {}), dd, rhs, dg * dx * de)
            if any(diff.values()):
                bad.append(f"({i + 1},{j + 1}): {_fmt_coeffs(m, diff, den)}")
    report.add_check("(nabla_X phi)Y = g(X,Y)xi - eta(Y)X", bad)
    return report


def _nijenhuis(M: FrameManifold, cols, i: int, j: int) -> dict:
    """[phi, phi](e_i, e_j) as numerators over dp^2 dc, for the integer
    columns cols of phi over dp and the bracket table over dc."""
    table = M.brackets_int[0]
    ei, ej = {i: 1}, {j: 1}
    pi, pj = cols[i], cols[j]
    out = _apply(cols, _apply(cols, table.get((i, j), {})))
    for sign, v in ((1, bracket_sum(table, pi, pj)),
                    (-1, _apply(cols, bracket_sum(table, pi, ej))),
                    (-1, _apply(cols, bracket_sum(table, ei, pj)))):
        for k, x in v.items():
            out[k] = out.get(k, 0) + sign * x
    return out


def nijenhuis(M: FrameManifold, D: AlmostContactData, i: int, j: int) -> tuple:
    """[phi, phi](e_i, e_j) =
    phi^2 [e_i,e_j] + [phi e_i, phi e_j] - phi[phi e_i, e_j] - phi[e_i, phi e_j]."""
    cols, dp = D.phi_int
    n = _nijenhuis(M, cols, i, j)
    d = dp * dp * M.brackets_int[1]
    return tuple(Fraction(n.get(k, 0), d) for k in range(M.dim))


def check_normality(M: FrameManifold, D: AlmostContactData) -> CheckReport:
    """[phi, phi](X, Y) + 2 d eta(X, Y) xi = 0 on all frame pairs, where
    2 d eta(X, Y) = -eta([X, Y])."""
    report = CheckReport(f"{M.name} normality")
    m = M.dim
    (cols, dp), (table, dc) = D.phi_int, M.brackets_int
    xi, dx, eta, de = _xi_eta(M, D)
    bad = []
    for i in range(m):
        for j in range(i + 1, m):
            e = sum(eta.get(k, 0) * x for k, x in table.get((i, j), {}).items())
            total, den = _minus(_nijenhuis(M, cols, i, j), dp * dp * dc,
                                {k: e * x for k, x in xi.items()}, de * dc * dx)
            if any(total.values()):
                bad.append(f"({i + 1},{j + 1}): {_fmt_coeffs(m, total, den)}")
    report.add_check("[phi,phi] + 2 d eta (x) xi = 0", bad)
    return report


def check_contact_metric(M: FrameManifold, D: AlmostContactData) -> CheckReport:
    """Contact-metric compatibility d eta(X, Y) = g(X, phi Y). Normal almost
    contact structures can still fail this; Sasakian ones never do."""
    report = CheckReport(f"{M.name} contact-metric compatibility")
    m = M.dim
    eta = D.eta(M)
    gcols = sparse_columns(M.g)
    g_phi = [_apply(gcols, col) for col in sparse_columns(D.phi)]
    bad = []
    for i in range(m):
        for j in range(m):
            lhs = _d_eta(M, eta, i, j)
            rhs = Fraction(g_phi[j].get(i, 0))
            if lhs != rhs:
                bad.append(f"({i + 1},{j + 1}): d eta = {format_rational(lhs)}, "
                           f"g(e_i, phi e_j) = {format_rational(rhs)}")
    report.add_check("d eta(X,Y) = g(X, phi Y)", bad)
    return report


def check_curvature_identity(M: FrameManifold, R: CurvatureTensor,
                             D: AlmostContactData) -> CheckReport:
    """R(Y, xi) Z = eta(Z) Y - g(Y, Z) xi on all frame pairs, from the
    columns nabla_xi e_z and the vectors [e_y, xi], each built once:
    R(e_y, xi) e_z = nabla_{e_y} nabla_xi e_z - nabla_xi nabla_{e_y} e_z
    - nabla_{[e_y, xi]} e_z, on the integer Gamma over dgam and c over dc."""
    report = CheckReport(f"{M.name} reeb curvature identity")
    m = M.dim
    gcols, dg = M.g_int
    gamma, dgam = R.conn.gamma_int
    brackets, dc = M.brackets_int
    xi, dx, eta, de = _xi_eta(M, D)
    dr = dgam * dgam * dc
    nxi = [bracket_sum(gamma, xi, {z: 1}) for z in range(m)]  # over dgam dx
    bad = []
    for yj in range(m):
        ey = {yj: 1}
        br = bracket_sum(brackets, ey, xi)  # [e_y, xi] over dc dx
        for zk in range(m):
            lhs = {}  # over dr dx
            for vec, w in ((bracket_sum(gamma, ey, nxi[zk]), dc),
                           (_apply(nxi, gamma.get((yj, zk), {})), -dc),
                           (bracket_sum(gamma, br, {zk: 1}), -dgam)):
                for k, x in vec.items():
                    lhs[k] = lhs.get(k, 0) + w * x
            rhs = {a: -gcols[zk].get(yj, 0) * x * de for a, x in xi.items()}
            rhs[yj] = rhs.get(yj, 0) + eta.get(zk, 0) * dg * dx  # over de dg dx
            diff, den = _minus(lhs, dr * dx, rhs, de * dg * dx)
            if any(diff.values()):
                bad.append(f"({yj + 1},{zk + 1}): {_fmt_coeffs(m, diff, den)}")
    report.add_check("R(Y, xi)Z = eta(Z)Y - g(Y,Z)xi", bad)
    return report


def check_reeb_ricci(M: FrameManifold, ric_t: RicciTensor,
                     D: AlmostContactData) -> CheckReport:
    """ric(xi, Z) = (m - 1) eta(Z), the 2n multiple in dimension m = 2n + 1."""
    report = CheckReport(f"{M.name} reeb ricci identity")
    m = M.dim
    eta = D.eta(M)
    lhs = [Fraction(0)] * m
    for (j, k), x in ric_t.ric.items():
        if D.xi[j]:
            lhs[k] += D.xi[j] * x
    bad = []
    for k in range(m):
        rhs = (m - 1) * eta[k]
        if lhs[k] != rhs:
            bad.append(f"e{k + 1}: ric(xi, e_k) = {format_rational(lhs[k])}, "
                       f"want {format_rational(rhs)}")
    report.add_check(f"ric(xi, Z) = {m - 1} eta(Z)", bad)
    return report


def derive_phi(M: FrameManifold, conn: ConnectionTable, xi) -> tuple:
    """Recover phi from the connection by phi(Y) = -nabla_Y xi.

    On a Sasakian presentation this reproduces the declared phi table.
    """
    m = M.dim
    xi_vec = FrameVector.from_values(xi)
    cols = []
    for j in range(m):
        col = -conn.nabla_vec(j, xi_vec)
        cols.append(col.rational_coeffs())
    return tuple(tuple(cols[j][a] for j in range(m)) for a in range(m))
