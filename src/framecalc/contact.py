"""Almost-contact metric structures on frame manifolds and the Sasakian,
normality and Reeb-field identities.

The structure is (phi, xi, eta): an endomorphism phi, a Reeb vector xi, and
eta the g-dual covector of xi, all exact rationals. A structure is derived
once per manifold (AlmostContactData.on): eta, phi, g phi and the axioms.
Each check builds both sides of its identity as integer tables in sweeps
over the nonzero bracket, Gamma, phi and g entries, not over the m^2 frame
pairs; one comparer, geometry.compare, lists the defects of every check.
"""
from __future__ import annotations

from fractions import Fraction

from .geometry import (ConnectionTable, CurvatureTensor, FrameManifold,
                       FrameVector, RicciTensor, add_to, apply_columns as _apply,
                       bracket_sum, check_lengths, columns, compare, divided,
                       endo_derivative_int, integer_map, render_vector)
from .record import Record
from .reports import PASS, PRECONDITION, CheckItem, CheckReport
from .scalars import format_rational


class ContactError(ValueError):
    pass


class AlmostContactData(Record):
    """phi[a][j] = coefficient of e_a in phi(e_j); xi = Reeb vector coeffs.
    phi, dense or by columns {j: {a: phi_aj}}, is stored only as phi_int,
    integer columns over one denominator (columns); a dense phi not of xi's
    size fails every check, so square, whether it is of that size, is a
    field: equality and repr read phi_int, xi and square."""

    _fields = ("phi_int", "xi", "square")

    def __init__(self, phi, xi: tuple):
        self.xi, m = xi, len(xi)
        self.square = isinstance(phi, dict) or {len(phi), *map(len, phi)} == {m}
        if isinstance(phi, dict):
            phi = {(a, j): x for j, col in phi.items() for a, x in col.items()}
        self.phi_int = columns(m, phi if self.square else {}, ContactError, "phi")

    @property
    def dim(self) -> int:
        return len(self.xi)

    def on(self, M: FrameManifold) -> "ContactDerivation":
        """This structure on M, derived once for the last manifold asked for."""
        if getattr(self, "_on", None) is None or self._on.manifold is not M:
            self._on = ContactDerivation(M, self)
        return self._on

    def xi_vector(self) -> FrameVector:
        return FrameVector(self.xi)


class ContactDerivation:
    """D on M, derived once: the integer forms two or more of the pair's
    checks read, and the axioms' items, whose verdict check_sasakian reads."""

    def __init__(self, M: FrameManifold, D: AlmostContactData):
        if D.dim != (m := M.dim) or not D.square:
            raise ContactError(f"contact structure of dimension {D.dim} on {M.name} "
                               f"of dimension {m}: xi needs {m} entries, phi {m} x {m}")
        self.manifold, self.phi_int, (gcols, dg) = M, D.phi_int, M.g_int
        xi, dx = integer_map({a: x for a, x in enumerate(D.xi) if x})
        eta, de = _apply(gcols, xi), dg * dx  # eta = g(., xi)
        self.xi_eta = xi, dx, eta, de
        # the nonzero phi_aj over dp; by rows, a: [(j, phi_aj)], and
        # g phi over dg dp, a: {j: g(e_a, phi e_j)}
        self.phi, self.rows, self.g_phi = {}, {}, {}
        for j, col in self.phi_int[0].items():
            for a, x in col.items():
                self.phi[a, j] = x
                self.rows.setdefault(a, []).append((j, x))
            for a, y in _apply(gcols, col).items():
                self.g_phi.setdefault(a, {})[j] = y
        # g(e_i, e_j) xi - eta(e_j) e_i over dg dx de, the Sasakian right side
        rhs = {(i, j): {i: -y * dg * dx} for j, y in eta.items() for i in range(m)}
        for j, col in gcols.items():
            for i, x in col.items():
                add_to(rhs, (i, j), xi, x * de)
        self.g_xi_minus_eta = rhs, dg * dx * de
        self.axioms = axiom_items(self)


def axiom_items(on: ContactDerivation) -> list:
    """The defining axioms: eta(xi) = 1, phi^2 = -I + xi (x) eta, the metric
    phi-compatibility g(phi X, phi Y) = g(X, Y) - eta(X) eta(Y), phi(xi) = 0
    and eta(phi(.)) = 0, each side a sum of integer numerators; the defect
    text is built for a failing item only."""
    m, (cols, dp), (xi, dx, eta, de) = on.manifold.dim, on.phi_int, on.xi_eta
    gcols, dg = on.manifold.g_int
    report = CheckReport("")

    val = Fraction(sum(eta.get(a, 0) * x for a, x in xi.items()), de * dx)
    report.add("eta(xi) = 1", val == 1, val != 1 and f"eta(xi) = {format_rational(val)}")

    square, want = {}, {}  # phi^2 e_j over dp^2, xi eta_j - e_j over dx de
    for j in range(m):
        square[j,] = _apply(cols, cols[j])
        want[j,] = w = {a: x * eta.get(j, 0) for a, x in xi.items()}
        w[j] = w.get(j, 0) - dx * de
    report.add_check("phi^2 = -I + xi(x)eta", compare(
        square, dp * dp, want, dx * de, lambda key, left, _:
        [f"phi^2(e{key[0] + 1}) = {render_vector(left)}"]))

    lhs, rhs = {}, {}  # the two sides by rows, (i,): {j: int}
    for i, col in cols.items():  # g(phi e_i, phi e_j) over dp^2 dg
        for a, x in col.items():
            add_to(lhs, (i,), on.g_phi.get(a, {}), x)
    for j, col in gcols.items():  # g(e_i, e_j) - eta_i eta_j over dg de^2
        for i, x in col.items():
            rhs.setdefault((i,), {})[j] = x * de * de
    for i, x in eta.items():
        add_to(rhs, (i,), eta, -dg * x)
    report.add_check("g(phi X, phi Y) = g(X, Y) - eta(X)eta(Y)", compare(
        lhs, dp * dp * dg, rhs, dg * de * de, lambda key, left, right:
        [f"({key[0] + 1},{j + 1})" for j in sorted(left.keys() | right.keys())
         if left.get(j, 0) != right.get(j, 0)]), "violated at ")

    pxi = divided(_apply(cols, xi), dp * dx)
    report.add("phi(xi) = 0", not pxi, pxi and f"phi(xi) = {render_vector(pxi)}")

    etaphi = divided({j: sum(eta.get(a, 0) * x for a, x in col.items())
                      for j, col in cols.items()}, de * dp)
    report.add("eta(phi(.)) = 0", not etaphi,
               etaphi and f"eta(phi(e_j)) = {render_vector(etaphi)}")
    return report.items


def check_almost_contact(M: FrameManifold, D: AlmostContactData) -> CheckReport:
    """The almost-contact axioms (axiom_items) of D on M."""
    return CheckReport(f"{M.name} almost-contact axioms", list(D.on(M).axioms))


def check_sasakian(M: FrameManifold, conn: ConnectionTable,
                   D: AlmostContactData) -> CheckReport:
    """(nabla_X phi) Y = g(X, Y) xi - eta(Y) X on all frame pairs."""
    report, on = CheckReport(f"{M.name} sasakian equation"), D.on(M)
    failing = [item.name for item in on.axioms if item.status != PASS]
    if failing:
        report.add_item(CheckItem("almost-contact axioms", PRECONDITION,
                                  "failing: " + "; ".join(failing)))
        return report
    report.add_check("(nabla_X phi)Y = g(X,Y)xi - eta(Y)X", compare(
        *endo_derivative_int(conn, on.phi, on.phi_int[1]), *on.g_xi_minus_eta))
    return report


def check_normality(M: FrameManifold, D: AlmostContactData) -> CheckReport:
    """[phi, phi](X, Y) + 2 d eta(X, Y) xi = 0 on all frame pairs, where
    2 d eta(X, Y) = -eta([X, Y]). One sweep over the brackets [e_a, e_b]
    and the phi entries in rows a and b builds [phi e_i, phi e_j] and
    phi[e_i, e_j] - [phi e_i, e_j] - [e_i, phi e_j], mapped by phi once."""
    report, on = CheckReport(f"{M.name} normality"), D.on(M)
    (cols, dp), (table, dc), (xi, dx, eta, de) = on.phi_int, M.brackets_int, on.xi_eta
    rows = on.rows
    lhs, inner, rhs = {}, {}, {}  # over dp^2 dc, dp dc and de dc dx
    for (a, b), br in table.items():
        if a < b:
            add_to(inner, (a, b), _apply(cols, br))
            e = sum(eta.get(k, 0) * x for k, x in br.items())
            rhs[a, b] = {k: e * x for k, x in xi.items()}
        for i, x in rows.get(a, ()):
            if i < b:
                add_to(inner, (i, b), br, -x)
            for j, y in rows.get(b, ()):
                if i < j:
                    add_to(lhs, (i, j), br, x * y)
        for j, y in rows.get(b, ()):
            if a < j:
                add_to(inner, (a, j), br, -y)
    for key, v in inner.items():
        add_to(lhs, key, _apply(cols, v))
    report.add_check("[phi,phi] + 2 d eta (x) xi = 0",
                     compare(lhs, dp * dp * dc, rhs, de * dc * dx))
    return report


def check_contact_metric(M: FrameManifold, D: AlmostContactData) -> CheckReport:
    """Contact-metric compatibility d eta(X, Y) = g(X, phi Y). Normal almost
    contact structures can still fail this; Sasakian ones never do."""
    report = CheckReport(f"{M.name} contact-metric compatibility")
    on, (table, dc), dg = D.on(M), M.brackets_int, M.g_int[1]
    (_, dp), (_, _, eta, de) = on.phi_int, on.xi_eta
    lhs = {key: {0: -sum(eta.get(k, 0) * x for k, x in row.items())}
           for key, row in table.items()}  # over 2 de dc, and rhs over dg dp
    rhs = {(i, j): {0: y} for i, row in on.g_phi.items() for j, y in row.items()}
    report.add_check("d eta(X,Y) = g(X, phi Y)", compare(
        lhs, 2 * de * dc, rhs, dg * dp, lambda key, left, right:
        [f"({key[0] + 1},{key[1] + 1}): d eta = {format_rational(left.get(0, 0))}, "
         f"g(e_i, phi e_j) = {format_rational(right.get(0, 0))}"]))
    return report


def check_curvature_identity(M: FrameManifold, R: CurvatureTensor,
                             D: AlmostContactData) -> CheckReport:
    """R(Y, xi) Z = eta(Z) Y - g(Y, Z) xi on all frame pairs, from the
    columns nabla_xi e_z and the vectors [e_y, xi], each built once:
    R(e_y, xi) e_z = nabla_{e_y} nabla_xi e_z - nabla_xi nabla_{e_y} e_z
    - nabla_{[e_y, xi]} e_z, on the integer Gamma over dgam and c over dc;
    each term is swept over the nonzero Gamma entries it takes."""
    report = CheckReport(f"{M.name} reeb curvature identity")
    (gamma, dgam), (brackets, dc), on = R.conn.gamma_int, M.brackets_int, D.on(M)
    xi, dx, _, _ = on.xi_eta
    by_first, by_second = R.conn.gamma_rows
    nxi = {z: bracket_sum(gamma, xi, {z: 1}) for z in range(M.dim)}  # over dgam dx
    lhs = {}  # over dgam^2 dc dx
    for z, col in nxi.items():
        for a, w in col.items():
            for y, row in by_second.get(a, ()):
                add_to(lhs, (y, z), row, dc * w)
    for key, row in gamma.items():
        add_to(lhs, key, _apply(nxi, row), -dc)
    for y in range(M.dim):
        for s, w in bracket_sum(brackets, {y: 1}, xi).items():  # over dc dx
            for z, row in by_first.get(s, ()):
                add_to(lhs, (y, z), row, -dgam * w)
    rhs, dr = on.g_xi_minus_eta
    report.add_check("R(Y, xi)Z = eta(Z)Y - g(Y,Z)xi",
                     compare(lhs, dgam * dgam * dc * dx, rhs, -dr))
    return report


def check_reeb_ricci(M: FrameManifold, ric_t: RicciTensor,
                     D: AlmostContactData) -> CheckReport:
    """ric(xi, Z) = (m - 1) eta(Z), the 2n multiple in dimension m = 2n + 1."""
    report = CheckReport(f"{M.name} reeb ricci identity")
    m = M.dim
    (ric, dr), (xi, dx, eta, de) = ric_t.ric_int, D.on(M).xi_eta
    lhs = {}  # ric(xi, e_k) over dx dr, by (k,)
    for (j, k), x in ric.items():
        if j in xi:
            add_to(lhs, (k,), {0: xi[j] * x})
    report.add_check(f"ric(xi, Z) = {m - 1} eta(Z)", compare(
        lhs, dx * dr, {(k,): {0: (m - 1) * x} for k, x in eta.items()}, de,
        lambda key, left, right: [
            f"e{key[0] + 1}: ric(xi, e_k) = {format_rational(left.get(0, 0))}, "
            f"want {format_rational(right.get(0, 0))}"]))
    return report


# kept though no command calls it yet: a planned "contact phi = -nabla xi"
# statement will fill phi from it
def derive_phi(M: FrameManifold, conn: ConnectionTable, xi) -> tuple:
    """Recover phi from the connection by phi(Y) = -nabla_Y xi, on the
    integer Gamma. On a Sasakian presentation this reproduces the declared
    phi table."""
    check_lengths(M.dim, "xi", xi, error=ContactError)
    (gamma, dg), (x, dx) = conn.gamma_int, integer_map(dict(enumerate(xi)))
    cols = [bracket_sum(gamma, {j: 1}, x) for j in range(M.dim)]
    return tuple(tuple(Fraction(-col.get(a, 0), dg * dx) for col in cols)
                 for a in range(M.dim))
