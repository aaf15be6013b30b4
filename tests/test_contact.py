"""Almost-contact, Sasakian, normality, and Reeb identity checks."""
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from frames import contact_frames, dense_of
from framecalc.catalog import load_builtin
from framecalc import contact
from framecalc.contact import (AlmostContactData, ContactError,
                               check_almost_contact,
                               check_contact_metric, check_curvature_identity,
                               check_normality, check_reeb_ricci,
                               check_sasakian, derive_phi)
from framecalc.geometry import (FrameManifold, FrameVector, curvature,
                                levi_civita, ricci, ricci_operator,
                                scalar_curvature, validate)
from framecalc.manifold_format import MAX_DIM, parse_manifold
from framecalc.solitons import SolitonFlavor, solve_lambda_trace


def setup_h5():
    doc = load_builtin("heisenberg5")
    M = doc.manifold
    return M, doc.contact, levi_civita(M)


def flipped_phi(D: AlmostContactData) -> AlmostContactData:
    # negate the phi block on the e4/e5 plane: phi e4 = -e5, phi e5 = e4
    phi = oracle.dense(D.phi_int)
    for a in range(len(phi)):
        phi[a][3] = -phi[a][3]
        phi[a][4] = -phi[a][4]
    return AlmostContactData(tuple(tuple(r) for r in phi), D.xi)


def failing_pairs(report) -> set:
    item = next(i for i in report.items if i.status == "fail")
    return {(int(a), int(b))
            for a, b in re.findall(r"\((\d+),(\d+)\)", item.defect)}


# -- the five axioms -------------------------------------------------------------

def test_h5_almost_contact_passes():
    M, D, _ = setup_h5()
    rep = check_almost_contact(M, D)
    assert rep.overall == "pass"
    assert [i.name for i in rep.items] == [
        "eta(xi) = 1",
        "phi^2 = -I + xi(x)eta",
        "g(phi X, phi Y) = g(X, Y) - eta(X)eta(Y)",
        "phi(xi) = 0",
        "eta(phi(.)) = 0",
    ]


def test_eta_is_metric_dual():
    M, D, _ = setup_h5()
    assert D.on(M).xi_eta == ({2: 1}, 1, {2: 1}, 1)  # xi, its d, eta, its d


def test_bad_xi_fails_axioms():
    M, D, _ = setup_h5()
    bad = AlmostContactData(oracle.dense(D.phi_int), (
        Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0)))
    rep = check_almost_contact(M, bad)
    assert rep.overall == "fail"
    failed = {i.name for i in rep.items if i.status == "fail"}
    assert "phi(xi) = 0" in failed


def test_unnormalized_xi_fails_eta_axiom():
    M, D, _ = setup_h5()
    bad = AlmostContactData(oracle.dense(D.phi_int), tuple(2 * x for x in D.xi))
    rep = check_almost_contact(M, bad)
    item = next(i for i in rep.items if i.name == "eta(xi) = 1")
    assert item.status == "fail"
    assert "eta(xi) = 4" in item.defect


# -- sasakian ------------------------------------------------------------------------

def test_h5_sasakian_passes():
    M, D, conn = setup_h5()
    rep = check_sasakian(M, conn, D)
    assert rep.overall == "pass"
    assert rep.items[0].name == "(nabla_X phi)Y = g(X,Y)xi - eta(Y)X"


def test_sasakian_precondition_on_broken_axioms():
    M, D, conn = setup_h5()
    bad = AlmostContactData(oracle.dense(D.phi_int), (
        Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0)))
    rep = check_sasakian(M, conn, bad)
    assert rep.items[0].name == "almost-contact axioms"
    assert rep.items[0].status == "precondition_violated"
    assert rep.overall == "fail"


def test_abelian_not_sasakian():
    doc = load_builtin("abelian3")
    M, D = doc.manifold, doc.contact
    rep = check_sasakian(M, levi_civita(M), D)
    assert rep.overall == "fail"


# -- normality and contact-metric compatibility -----------------------------------------

def test_h5_normality_passes():
    M, D, _ = setup_h5()
    assert check_normality(M, D).overall == "pass"


def test_flipped_phi_still_normal_but_not_contact_metric():
    # Negating one phi block survives the quadratic Nijenhuis terms but breaks
    # the linear compatibility d eta(X,Y) = g(X, phi Y) exactly on that block.
    M, D, conn = setup_h5()
    F = flipped_phi(D)
    assert check_almost_contact(M, F).overall == "pass"
    assert check_normality(M, F).overall == "pass"
    rep = check_contact_metric(M, F)
    assert rep.overall == "fail"
    assert failing_pairs(rep) == {(4, 5), (5, 4)}


def test_flipped_phi_fails_sasakian():
    M, D, conn = setup_h5()
    F = flipped_phi(D)
    rep = check_sasakian(M, conn, F)
    assert rep.overall == "fail"
    assert failing_pairs(rep) == {(4, 3), (4, 4), (5, 3), (5, 5)}


def test_h5_contact_metric_passes():
    M, D, _ = setup_h5()
    assert check_contact_metric(M, D).overall == "pass"


def test_abelian_normal_but_not_contact_metric():
    doc = load_builtin("abelian3")
    M, D = doc.manifold, doc.contact
    assert check_almost_contact(M, D).overall == "pass"
    assert check_normality(M, D).overall == "pass"
    rep = check_contact_metric(M, D)
    assert rep.overall == "fail"
    assert failing_pairs(rep) == {(1, 2), (2, 1)}


# -- reeb identities -----------------------------------------------------------------

def test_h5_curvature_identity():
    M, D, conn = setup_h5()
    R = curvature(M, conn)
    assert check_curvature_identity(M, R, D).overall == "pass"


def test_h5_reeb_ricci():
    M, D, conn = setup_h5()
    ric = ricci(M, curvature(M, conn))
    rep = check_reeb_ricci(M, ric, D)
    assert rep.overall == "pass"
    assert rep.items[0].name == "ric(xi, Z) = 4 eta(Z)"


def test_h3_reeb_identities():
    doc = load_builtin("heisenberg3")
    M, D = doc.manifold, doc.contact
    conn = levi_civita(M)
    R = curvature(M, conn)
    assert check_curvature_identity(M, R, D).overall == "pass"
    rep = check_reeb_ricci(M, ricci(M, R), D)
    assert rep.items[0].name == "ric(xi, Z) = 2 eta(Z)"
    assert rep.overall == "pass"


def test_abelian_fails_reeb_identities():
    doc = load_builtin("abelian3")
    M, D = doc.manifold, doc.contact
    R = curvature(M, levi_civita(M))
    assert check_curvature_identity(M, R, D).overall == "fail"
    assert check_reeb_ricci(M, ricci(M, R), D).overall == "fail"


# -- phi recovery ----------------------------------------------------------------------

def test_derive_phi_recovers_declared_table():
    M, D, conn = setup_h5()
    assert list(map(list, derive_phi(M, conn, D.xi))) == oracle.dense(D.phi_int)


def test_derive_phi_h3():
    doc = load_builtin("heisenberg3")
    M, D = doc.manifold, doc.contact
    assert list(map(list, derive_phi(M, levi_civita(M), D.xi))) == \
        oracle.dense(D.phi_int)


@pytest.mark.parametrize("xi", [(0, 0, 1), (0, 0, 1, 0, 0, 5, 7)])
def test_derive_phi_refuses_a_xi_of_another_length(xi):
    """A xi with fewer or more entries than the frame is refused with both
    lengths named, instead of giving a phi of the frame's size."""
    M, _, conn = setup_h5()
    xi = tuple(Fraction(x) for x in xi)
    with pytest.raises(ContactError, match=f"^xi has {len(xi)} entries, not 5$"):
        derive_phi(M, conn, xi)


# -- the swept checks against per-pair references ----------------------------------

@settings(deadline=None)
@given(contact_frames())
def test_swept_checks_print_the_per_pair_reference_reports(case):
    """Each check sweeps the nonzero bracket, Gamma, phi, g and Ricci
    entries; its report text equals, byte for byte, that of oracle's loops
    over every frame pair."""
    table, g, phi, xi = case
    m = len(g)
    M = FrameManifold("f", m, table, g)
    D = AlmostContactData(phi, tuple(xi))
    c = dense_of(table, m)
    conn = levi_civita(M)
    assert check_almost_contact(M, D).render_text() == \
        oracle.almost_contact_text("f", g, phi, xi)
    assert check_sasakian(M, conn, D).render_text() == \
        oracle.sasakian_text("f", c, g, phi, xi)
    assert check_normality(M, D).render_text() == \
        oracle.normality_text("f", c, g, phi, xi)
    assert check_contact_metric(M, D).render_text() == \
        oracle.contact_metric_text("f", c, g, phi, xi)
    R = curvature(M, conn)
    assert check_curvature_identity(M, R, D).render_text() == \
        oracle.curvature_identity_text("f", c, g, phi, xi)
    assert check_reeb_ricci(M, ricci(M, R), D).render_text() == \
        oracle.reeb_ricci_text("f", c, g, xi)


def test_builtin_checks_print_the_per_pair_reference_reports():
    for name in ("heisenberg5", "heisenberg3", "abelian3", "abelian5"):
        doc = load_builtin(name)
        M, D = doc.manifold, doc.contact
        c, g = [[list(r) for r in p] for p in M.c], oracle.dense(M.g_int)
        xi = list(D.xi)
        for F in (D, flipped_phi(D)) if M.dim == 5 else (D,):
            phi = oracle.dense(F.phi_int)
            assert check_almost_contact(M, F).render_text() == \
                oracle.almost_contact_text(name, g, phi, xi)
            assert check_sasakian(M, M.conn, F).render_text() == \
                oracle.sasakian_text(name, c, g, phi, xi)
            assert check_normality(M, F).render_text() == \
                oracle.normality_text(name, c, g, phi, xi)
            assert check_contact_metric(M, F).render_text() == \
                oracle.contact_metric_text(name, c, g, phi, xi)
            assert check_curvature_identity(M, M.riem, F).render_text() == \
                oracle.curvature_identity_text(name, c, g, phi, xi)
        assert check_reeb_ricci(M, M.ric, D).render_text() == \
            oracle.reeb_ricci_text(name, c, g, xi)


def heisenberg_text(n: int) -> str:
    """H_{2n+1} as sparse manifold-format text: [e_a, e_{n+1+a}] = 2 e_{n+1},
    xi = e_{n+1}, phi e_a = e_{n+1+a} and phi e_{n+1+a} = -e_a."""
    r = n + 1
    lines = [f"manifold h{2 * n + 1} dim {2 * n + 1}", "metric identity",
             f"contact xi = e{r}"]
    for a in range(1, n + 1):
        lines += [f"bracket e{a} e{r + a} = 2*e{r}",
                  f"contact phi e{a} = e{r + a}",
                  f"contact phi e{r + a} = -e{a}"]
    return "\n".join(lines) + "\n"


def test_heisenberg_127_passes_strict_validate_and_every_contact_check():
    """On the largest Heisenberg frame the parser takes, the sweeps touch
    only the nonzero entries, so the whole audit stays quick."""
    assert MAX_DIM >= 127
    doc = parse_manifold(heisenberg_text(63))
    M, D = doc.manifold, doc.contact
    assert M.dim == 127
    reports = [validate(M, strict=True), check_almost_contact(M, D),
               check_sasakian(M, M.conn, D), check_normality(M, D),
               check_contact_metric(M, D),
               check_curvature_identity(M, M.riem, D),
               check_reeb_ricci(M, M.ric, D)]
    assert [r.overall for r in reports] == ["pass"] * 7
    assert reports[-1].items[0].name == "ric(xi, Z) = 126 eta(Z)"


# -- phi stored by columns --------------------------------------------------------

def six_checks(M, D) -> list:
    """The texts of the six checks of D on M."""
    R = curvature(M, levi_civita(M))
    return [check(M, D).render_text() for check in (
        check_almost_contact, lambda M, D: check_sasakian(M, R.conn, D),
        check_normality, check_contact_metric,
        lambda M, D: check_curvature_identity(M, R, D),
        lambda M, D: check_reeb_ricci(M, ricci(M, R), D))]


@settings(deadline=None)
@given(contact_frames(), st.data())
def test_dense_and_sparse_phi_give_one_structure(case, data):
    """phi given dense or by columns {j: {a: phi_aj}}, in any order, some
    columns left out and some given empty, makes equal structures with
    equal phi_int, key order included, and equal texts from all six
    checks."""
    table, g, phi, xi = case
    m = len(g)
    cols = {}
    for j in data.draw(st.permutations(range(m))):
        col = {a: phi[a][j] for a in data.draw(st.permutations(range(m)))
               if phi[a][j]}
        if col or data.draw(st.booleans()):
            cols[j] = col
    dense = AlmostContactData(phi, tuple(xi))
    sparse = AlmostContactData(cols, dense.xi)
    assert dense == sparse
    assert oracle.dense(sparse.phi_int) == [list(row) for row in phi]
    assert [list(col.items()) for col in dense.phi_int[0].values()] == \
        [list(col.items()) for col in sparse.phi_int[0].values()]
    assert dense.phi_int[1] == sparse.phi_int[1]
    M = FrameManifold("f", m, table, g)
    assert six_checks(M, dense) == six_checks(M, sparse)


def test_a_sparse_phi_index_out_of_range_is_a_contact_error():
    xi = (Fraction(0), Fraction(0), Fraction(1))
    for cols, entry in (({5: {0: 1}}, "(0, 5)"), ({0: {3: 1}}, "(3, 0)")):
        with pytest.raises(ContactError, match=re.escape(
                f"phi index out of range 0..2 at entry {entry}")):
            AlmostContactData(cols, xi)


def test_an_audit_builds_no_dense_or_fraction_view():
    """The benchmark's audit of a parsed H_9 reads the integer forms only:
    no dense or Fraction c, g or phi and no Fraction Gamma, Koszul or Ricci
    table is built, and metric identity stores one entry per frame vector."""
    doc = parse_manifold(heisenberg_text(4))
    M, D = doc.manifold, doc.contact
    assert M.g_int == ({j: {j: 1} for j in range(9)}, 1)  # m entries
    assert validate(M, strict=True).overall == "pass"
    conn = levi_civita(M)
    R = curvature(M, conn)
    ric = ricci(M, R)
    ricci_operator(M, ric)
    scalar_curvature(M, ric)
    reports = [check_almost_contact(M, D), check_sasakian(M, conn, D),
               check_normality(M, D), check_curvature_identity(M, R, D),
               check_reeb_ricci(M, ric, D)]
    assert [r.overall for r in reports] == ["pass"] * 5
    solve_lambda_trace(M, conn, ric, FrameVector(D.xi),
                       SolitonFlavor.CONFORMAL)
    assert "c" not in vars(M)
    assert "gamma" not in vars(conn)
    assert "ric" not in vars(ric)


# -- one derivation per (manifold, structure) pair ----------------------------------

def every_check(M, D) -> list:
    """Calls of the six checks of D on M."""
    return [lambda: check_almost_contact(M, D),
            lambda: check_sasakian(M, M.conn, D),
            lambda: check_normality(M, D), lambda: check_contact_metric(M, D),
            lambda: check_curvature_identity(M, M.riem, D),
            lambda: check_reeb_ricci(M, M.ric, D)]


def test_the_axioms_run_once_for_every_check_of_one_pair(monkeypatch):
    calls = []
    kernel = contact.axiom_items
    monkeypatch.setattr(contact, "axiom_items",
                        lambda on: calls.append(on) or kernel(on))
    doc = load_builtin("heisenberg5")
    results = [call() for call in every_check(doc.manifold, doc.contact)]
    assert [r.overall for r in results] == ["pass"] * 6
    assert len(calls) == 1


def test_one_structure_on_two_manifolds_gets_a_verdict_for_each():
    """The derivation is kept for one manifold at a time, matched by
    identity: alternating between heisenberg5 and a copy whose e1 is
    stretched never hands one manifold's verdict to the other."""
    doc = load_builtin("heisenberg5")
    M, D = doc.manifold, doc.contact
    g = oracle.dense(M.g_int)
    g[0][0] = Fraction(4)
    S = FrameManifold(M.name, M.dim, M.brackets_int[0], g)  # over d = 1
    for _ in range(2):
        assert check_almost_contact(M, D).overall == "pass"
        assert check_sasakian(M, M.conn, D).overall == "pass"
        bad = check_almost_contact(S, D)
        assert [i.name for i in bad.items if i.status == "fail"] == \
            ["g(phi X, phi Y) = g(X, Y) - eta(X)eta(Y)"]
        assert check_sasakian(S, S.conn, D).items[0].status == \
            "precondition_violated"


def test_passing_axioms_write_no_defect_text(monkeypatch):
    calls = []
    monkeypatch.setattr(contact, "render_vector",
                        lambda *args: calls.append(args) or None)
    doc = load_builtin("heisenberg5")
    assert check_almost_contact(doc.manifold, doc.contact).overall == "pass"
    assert calls == []


def test_a_structure_of_another_dimension_is_a_contact_error():
    M = load_builtin("heisenberg5").manifold
    D3 = load_builtin("heisenberg3").contact
    D5 = load_builtin("heisenberg5").contact
    narrow = AlmostContactData([row[:3] for row in oracle.dense(D5.phi_int)],
                               D5.xi)
    for D, message in ((D3, "dimension 3 on heisenberg5 of dimension 5"),
                       (narrow, "dimension 5 on heisenberg5 of dimension 5: "
                                "xi needs 5 entries, phi 5 x 5")):
        for call in every_check(M, D):
            with pytest.raises(ContactError, match=re.escape(message)):
                call()
