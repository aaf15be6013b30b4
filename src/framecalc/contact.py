"""Almost-contact metric structures on frame manifolds and the Sasakian,
normality and Reeb-field identities.

The structure is (phi, xi, eta): an endomorphism phi, a Reeb vector xi, and
eta the g-dual covector of xi (always derived from xi, never stored). All
entries are exact rationals.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import (ConnectionTable, CurvatureTensor, FrameManifold,
                       FrameVector, RicciTensor, endo_derivative_coeffs,
                       sparse_columns, vector_of)
from .reports import PRECONDITION, CheckItem, CheckReport
from .scalars import format_rational


class ContactError(ValueError):
    pass


@dataclass(frozen=True)
class AlmostContactData:
    """phi[a][j] = coefficient of e_a in phi(e_j); xi = Reeb vector coeffs."""

    phi: tuple
    xi: tuple

    @classmethod
    def from_values(cls, phi, xi) -> "AlmostContactData":
        return cls(tuple(tuple(Fraction(x) for x in row) for row in phi),
                   tuple(Fraction(x) for x in xi))

    @property
    def dim(self) -> int:
        return len(self.xi)

    def eta(self, M: FrameManifold) -> tuple:
        """eta(e_i) = g(e_i, xi)."""
        m = M.dim
        return tuple(sum((M.g[i][j] * self.xi[j] for j in range(m)), Fraction(0))
                     for i in range(m))

    def phi_vec(self, v) -> tuple:
        m = self.dim
        return tuple(sum((self.phi[a][j] * v[j] for j in range(m)), Fraction(0))
                     for a in range(m))

    def xi_vector(self) -> FrameVector:
        return FrameVector.from_values(self.xi)

    def phi_column(self, j: int) -> FrameVector:
        return FrameVector.from_values(tuple(self.phi[a][j] for a in range(self.dim)))


def _fmt_coeffs(dim: int, v: dict) -> str:
    return vector_of(dim, v).render()


def _apply(cols: list, v: dict) -> dict:
    """The endomorphism with coefficient-map columns cols, applied to v."""
    out = {}
    for j, x in v.items():
        for a, p in cols[j].items():
            out[a] = out.get(a, 0) + p * x
    return {a: x for a, x in out.items() if x}


def _d_eta(M: FrameManifold, eta: tuple, i: int, j: int) -> Fraction:
    return -sum((eta[k] * x for k, x in M.brackets.get((i, j), {}).items()),
                Fraction(0)) / 2


def d_eta(M: FrameManifold, D: AlmostContactData, i: int, j: int) -> Fraction:
    """d eta(e_i, e_j) = -1/2 eta([e_i, e_j]) for frame-constant eta."""
    return _d_eta(M, D.eta(M), i, j)


def check_almost_contact(M: FrameManifold, D: AlmostContactData) -> CheckReport:
    """The defining axioms: eta(xi) = 1, phi^2 = -I + xi (x) eta, the metric
    phi-compatibility g(phi X, phi Y) = g(X, Y) - eta(X) eta(Y), phi(xi) = 0
    and eta(phi(.)) = 0."""
    m = M.dim
    report = CheckReport(f"{M.name} almost-contact axioms")
    eta = D.eta(M)
    cols = sparse_columns(D.phi)

    val = sum((eta[i] * D.xi[i] for i in range(m)), Fraction(0))
    report.add("eta(xi) = 1", val == 1, f"eta(xi) = {format_rational(val)}")

    bad = []
    for j in range(m):
        col = _apply(cols, cols[j])
        want = {a: D.xi[a] * eta[j] for a in range(m)}
        want[j] -= 1
        if col != {a: x for a, x in want.items() if x}:
            bad.append(f"phi^2(e{j + 1}) = {_fmt_coeffs(m, col)}")
    report.add("phi^2 = -I + xi(x)eta", not bad, "; ".join(bad))

    gcols = sparse_columns(M.g)
    g_phi = [_apply(gcols, col) for col in cols]  # g(., phi e_j)
    bad = []
    for i in range(m):
        for j in range(m):
            lhs = sum((x * g_phi[j].get(a, 0) for a, x in cols[i].items()),
                      Fraction(0))
            if lhs != M.g[i][j] - eta[i] * eta[j]:
                bad.append(f"({i + 1},{j + 1})")
    report.add("g(phi X, phi Y) = g(X, Y) - eta(X)eta(Y)", not bad,
               "violated at " + "; ".join(bad))

    pxi = _apply(cols, {a: x for a, x in enumerate(D.xi) if x})
    report.add("phi(xi) = 0", not pxi, f"phi(xi) = {_fmt_coeffs(m, pxi)}")

    etaphi = {j: sum((eta[a] * x for a, x in col.items()), Fraction(0))
              for j, col in enumerate(cols)}
    etaphi = {j: x for j, x in etaphi.items() if x}
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
    eta = D.eta(M)
    phi = {(a, j): x for a, row in enumerate(D.phi)
           for j, x in enumerate(row) if x}
    dphi = endo_derivative_coeffs(conn, phi)
    bad = []
    for i in range(m):
        for j in range(m):
            diff = dict(dphi.get((i, j), {}))
            if M.g[i][j]:
                for a, x in enumerate(D.xi):
                    diff[a] = diff.get(a, 0) - M.g[i][j] * x
            diff[i] = diff.get(i, 0) + eta[j]
            diff = {a: x for a, x in diff.items() if x}
            if diff:
                bad.append(f"({i + 1},{j + 1}): {_fmt_coeffs(m, diff)}")
    report.add("(nabla_X phi)Y = g(X,Y)xi - eta(Y)X", not bad,
               "; ".join(bad))
    return report


def _nijenhuis(M: FrameManifold, cols: list, i: int, j: int) -> dict:
    br = M.bracket_coeffs
    ei, ej = {i: 1}, {j: 1}
    pi, pj = cols[i], cols[j]
    out = _apply(cols, _apply(cols, M.brackets.get((i, j), {})))
    for sign, v in ((1, br(pi, pj)), (-1, _apply(cols, br(pi, ej))),
                    (-1, _apply(cols, br(ei, pj)))):
        for k, x in v.items():
            out[k] = out.get(k, 0) + sign * x
    return out


def nijenhuis(M: FrameManifold, D: AlmostContactData, i: int, j: int) -> tuple:
    """[phi, phi](e_i, e_j) =
    phi^2 [e_i,e_j] + [phi e_i, phi e_j] - phi[phi e_i, e_j] - phi[e_i, phi e_j]."""
    n = _nijenhuis(M, sparse_columns(D.phi), i, j)
    return tuple(Fraction(n.get(k, 0)) for k in range(M.dim))


def check_normality(M: FrameManifold, D: AlmostContactData) -> CheckReport:
    """[phi, phi](X, Y) + 2 d eta(X, Y) xi = 0 on all frame pairs."""
    report = CheckReport(f"{M.name} normality")
    m = M.dim
    eta = D.eta(M)
    cols = sparse_columns(D.phi)
    bad = []
    for i in range(m):
        for j in range(i + 1, m):
            total = _nijenhuis(M, cols, i, j)
            de = _d_eta(M, eta, i, j)
            if de:
                for k, x in enumerate(D.xi):
                    total[k] = total.get(k, 0) + 2 * de * x
            total = {k: x for k, x in total.items() if x}
            if total:
                bad.append(f"({i + 1},{j + 1}): {_fmt_coeffs(m, total)}")
    report.add("[phi,phi] + 2 d eta (x) xi = 0", not bad,
               "; ".join(bad))
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
    report.add("d eta(X,Y) = g(X, phi Y)", not bad,
               "; ".join(bad))
    return report


def check_curvature_identity(M: FrameManifold, R: CurvatureTensor,
                             D: AlmostContactData) -> CheckReport:
    """R(Y, xi) Z = eta(Z) Y - g(Y, Z) xi on all frame pairs."""
    report = CheckReport(f"{M.name} reeb curvature identity")
    m = M.dim
    eta = D.eta(M)
    xi = {a: x for a, x in enumerate(D.xi) if x}
    bad = []
    for yj in range(m):
        for zk in range(m):
            diff = R.apply_coeffs({yj: 1}, xi, {zk: 1})
            diff[yj] = diff.get(yj, 0) - eta[zk]
            if M.g[yj][zk]:
                for a, x in xi.items():
                    diff[a] = diff.get(a, 0) + M.g[yj][zk] * x
            diff = {a: x for a, x in diff.items() if x}
            if diff:
                bad.append(f"({yj + 1},{zk + 1}): {_fmt_coeffs(m, diff)}")
    report.add("R(Y, xi)Z = eta(Z)Y - g(Y,Z)xi", not bad,
               "; ".join(bad))
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
    report.add(f"ric(xi, Z) = {m - 1} eta(Z)", not bad,
               "; ".join(bad))
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
