"""Independent naive oracle: brute-force Koszul / curvature / contraction
loops on raw Fraction lists, per-pair references for the checks, and the
token-by-token text readers. Shares no code with the package under test;
used to pin expected values."""
from fractions import Fraction as F


def zeros(*shape):
    if len(shape) == 1:
        return [F(0)] * shape[0]
    return [zeros(*shape[1:]) for _ in range(shape[0])]


def solve(a, b):
    # Gaussian elimination with exact fractions; a is n x n, b is n-vector.
    n = len(a)
    m = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        pv = m[col][col]
        m[col] = [x / pv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def bracket(c, x, y):
    # [x, y] for coefficient vectors x, y.
    n = len(c)
    out = zeros(n)
    for i in range(n):
        for j in range(n):
            if x[i] and y[j]:
                for k in range(n):
                    out[k] += x[i] * y[j] * c[i][j][k]
    return out


def g_of(g, x, y):
    n = len(g)  # terms with x[a] = 0 vanish: most of them, for a basis x
    return sum((g[a][b] * x[a] * y[b] for a in range(n) if x[a]
                for b in range(n)), F(0))


def basis(n, i):
    v = zeros(n)
    v[i] = F(1)
    return v


def naive_koszul(c, g):
    # 2 g(nabla_i e_j, e_k) = -g(e_i,[e_j,e_k]) + g(e_j,[e_k,e_i]) + g(e_k,[e_i,e_j])
    n = len(c)
    gamma = zeros(n, n, n)
    for i in range(n):
        for j in range(n):
            rhs = zeros(n)
            for k in range(n):
                ei, ej, ek = basis(n, i), basis(n, j), basis(n, k)
                t = -g_of(g, ei, bracket(c, ej, ek)) \
                    + g_of(g, ej, bracket(c, ek, ei)) \
                    + g_of(g, ek, bracket(c, ei, ej))
                rhs[k] = t / 2
            gamma[i][j] = solve([row[:] for row in g], rhs)
    return gamma


def nabla(gamma, i, v):
    # nabla_{e_i} of a constant-coefficient vector v
    n = len(gamma)
    out = zeros(n)
    for a in range(n):
        if v[a]:
            for k in range(n):
                out[k] += v[a] * gamma[i][a][k]
    return out


def naive_curvature(c, gamma):
    # R(e_i,e_j)e_k = nabla_i nabla_j e_k - nabla_j nabla_i e_k - nabla_{[e_i,e_j]} e_k
    n = len(gamma)
    R = zeros(n, n, n, n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                t1 = nabla(gamma, i, gamma[j][k])
                t2 = nabla(gamma, j, gamma[i][k])
                br = c[i][j]
                t3 = zeros(n)
                for m in range(n):
                    if br[m]:
                        for l in range(n):
                            t3[l] += br[m] * gamma[m][k][l]
                R[i][j][k] = [t1[l] - t2[l] - t3[l] for l in range(n)]
    return R


def naive_ricci(R):
    n = len(R)
    return [[sum(R[i][j][k][i] for i in range(n)) for k in range(n)]
            for j in range(n)]


def lower(R, g):
    n = len(g)
    Rl = zeros(n, n, n, n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    Rl[i][j][k][l] = sum(R[i][j][k][a] * g[a][l]
                                         for a in range(n))
    return Rl


def inv(g):
    n = len(g)
    cols = [solve([row[:] for row in g], basis(n, j)) for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def ricci_via_ginv(R, g):
    n = len(g)
    gi = inv(g)
    Rl = lower(R, g)
    return [[sum(gi[i][l] * Rl[i][j][k][l] for i in range(n) for l in range(n))
             for k in range(n)] for j in range(n)]


def ricci_via_metric(M, R):
    """ric[j][k] through g^{-1} and the lowered tensor, for an engine
    manifold M and its curvature R, read through the metric's integer
    columns M.g_int and the Fraction table R.comp only."""
    n = M.dim
    Rd = [[[[R.comp.get((i, j, k), {}).get(l, F(0)) for l in range(n)]
            for k in range(n)] for j in range(n)] for i in range(n)]
    return ricci_via_ginv(Rd, dense(M.g_int))


def mk_c(n, entries):
    c = zeros(n, n, n)
    for (i, j, k), val in entries.items():
        c[i - 1][j - 1][k - 1] = F(val)
        c[j - 1][i - 1][k - 1] = -F(val)
    return c


def ident(n):
    return [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]


def dense(form):
    """The dense Fraction matrix a[i][j] = cols[j][i] / d of an integer
    column form (cols, d), as the engine stores g, g^{-1} and phi."""
    cols, d = form
    n = len(cols)
    return [[F(cols[j].get(i, 0), d) for j in range(n)] for i in range(n)]


# Reference linear algebra: one Fraction elimination per leading minor, and
# Gauss-Jordan on [g | I]; the engine's fraction-free elimination is checked
# against these.

def det(rows):
    rows = [[F(x) for x in row] for row in rows]
    n = len(rows)
    sign = F(1)
    d = F(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return F(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        d *= rows[col][col]
        inv_p = 1 / rows[col][col]
        for r in range(col + 1, n):
            if rows[r][col] != 0:
                f = rows[r][col] * inv_p
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return sign * d


def leading_minors(g):
    return [det([row[:k] for row in g[:k]]) for k in range(1, len(g) + 1)]


def gauss_jordan_inverse(g):
    """The inverse of g as a tuple of tuples, or None when g is singular."""
    n = len(g)
    aug = [[F(g[i][j]) for j in range(n)] +
           [F(1) if i == j else F(0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(aug[i][n:]) for i in range(n))


# Ricci of a metric Lie algebra from the brackets alone (no connection, no
# curvature tensor): Besse, Einstein Manifolds (1987), Cor. 7.38, with the
# orthonormal sums written as contractions with g^{-1}. Sparse dicts, so it
# reaches dimensions the dense loops above cannot.

def besse_ricci(brackets, g):
    """ric[j][k] for the brackets {(i, j): {k: c_ij^k}} over pairs i < j
    (the Jacobi identity must hold) and a metric g given as rows:

      ric(X, Y) = -1/2 sum g^{ab} g([X, e_a], [Y, e_b]) - 1/2 B(X, Y)
                  + 1/4 sum g^{ac} g^{bd} g([e_a, e_b], X) g([e_c, e_d], Y)
                  - 1/2 (g([H, X], Y) + g([H, Y], X)),

    with B the Killing form, B(X, Y) = tr(ad_X ad_Y), and H the mean
    curvature vector, g(H, X) = tr ad_X."""
    n = len(g)
    br = {}
    for (i, j), row in brackets.items():
        row = {k: F(x) for k, x in row.items() if x}
        if row:
            br[i, j] = row
            br[j, i] = {k: -x for k, x in row.items()}
    gi = [{b: x for b, x in enumerate(row) if x}
          for row in gauss_jordan_inverse(g)]
    g_rows = [{b: F(x) for b, x in enumerate(row) if x} for row in g]

    def add(out, key, x):
        out[key] = out.get(key, 0) + x

    def lowered(v):  # the covector g(v, .)
        out = {}
        for p, x in v.items():
            for l, y in g_rows[p].items():
                add(out, l, x * y)
        return out

    ad = [{} for _ in range(n)]          # ad[j][a] = [e_j, e_a]
    by_upper = {}                        # (p, a) -> [(k, c_kp^a)]
    for (j, a), row in br.items():
        ad[j][a] = row
        for p, x in row.items():
            by_upper.setdefault((a, p), []).append((j, x))
    low = {key: lowered(row) for key, row in br.items()}  # g([e_a, e_b], .)
    ric = zeros(n, n)

    # -1/2 sum g^{ab} g([e_j, e_a], [e_k, e_b])
    for k in range(n):
        w = {}                           # w[a] = sum_b g^{ab} g([e_k, e_b], .)
        for b in ad[k]:
            for a, x in gi[b].items():
                for p, y in low[k, b].items():
                    add(w.setdefault(a, {}), p, x * y)
        for j in range(n):
            ric[j][k] -= sum((x * w[a].get(p, 0) for a, row in ad[j].items()
                              if a in w for p, x in row.items()), F(0)) / 2
    # -1/2 B(e_j, e_k), B(e_j, e_k) = sum_{a,p} c_ja^p c_kp^a
    for j in range(n):
        for a, row in ad[j].items():
            for p, x in row.items():
                for k, y in by_upper.get((p, a), ()):
                    ric[j][k] -= x * y / 2
    # +1/4 sum g^{ac} g^{bd} g([e_a, e_b], e_j) g([e_c, e_d], e_k)
    raised = {}
    for (a, b), v in low.items():
        for c, x in gi[a].items():
            for d, y in gi[b].items():
                vec = raised.setdefault((c, d), {})
                for l, z in v.items():
                    add(vec, l, x * y * z)
    for key, v in raised.items():
        for j, x in v.items():
            for k, y in low.get(key, {}).items():
                ric[j][k] += x * y / 4
    # -1/2 (g([H, e_j], e_k) + g([H, e_k], e_j)), H^a = sum_b g^{ab} tr ad_b
    h = {}
    for b in range(n):
        t = sum((row.get(a, 0) for a, row in ad[b].items()), F(0))
        for a, x in gi[b].items():
            add(h, a, x * t)
    for a, x in h.items():
        for j in range(n):
            for k, y in low.get((a, j), {}).items():
                ric[j][k] -= x * y / 2
                ric[k][j] -= x * y / 2
    return ric


# Sectional curvature of an orthonormal frame from the brackets alone:
# Milnor, Adv. Math. 21 (1976). No connection and no Jacobi identity.

def milnor_sectional(c, i, j):
    """K(e_i, e_j) for a dense table c[i][j][k] = c_ij^k = a_ijk in a frame
    that the metric makes orthonormal:

      sum_k 1/2 a_ijk (-a_ijk + a_jki + a_kij)
            - 1/4 (a_ijk - a_jki + a_kij)(a_ijk + a_jki - a_kij)
            - a_kii a_kjj."""
    K = F(0)
    for k in range(len(c)):
        a, b, d = c[i][j][k], c[j][k][i], c[k][i][j]
        K += (a * (b + d - a) / 2 - (a - b + d) * (a + b - d) / 4
              - c[k][i][i] * c[k][j][j])
    return K


# Soliton reference: L_X g entry by entry from the naive connection, and the
# trace-solved lambda with its residual. The coefficients of X and lambda may
# be any values that support + and * with Fractions (parametric ones
# included), so these loops never look inside them.

def naive_lie_derivative(gamma, g, X):
    """(L_X g)[i][j] = g(nabla_{e_i} X, e_j) + g(e_i, nabla_{e_j} X)."""
    n = len(g)
    nab = [nabla(gamma, i, X) for i in range(n)]
    return [[g_of(g, nab[i], basis(n, j)) + g_of(g, basis(n, i), nab[j])
             for j in range(n)] for i in range(n)]


def naive_soliton_residual(g, lx, ric, s):
    """L_X g + 2 ric - s g."""
    n = len(g)
    return [[lx[i][j] + 2 * ric[i][j] - s * g[i][j] for j in range(n)]
            for i in range(n)]


def naive_trace_lambda(g, lx, ric, shift):
    """lambda with g^{ij} (L_X g + 2 ric - (2 lambda - shift) g)_ij = 0, that
    is lambda = (tr(L_X g) + 2 tr(ric) + n shift) / 2n with tr = g^{ij} . _ij
    and g^{ij} g_ij = n."""
    n = len(g)
    gi = inv(g)
    tr = sum(gi[i][j] * (lx[i][j] + 2 * ric[i][j])
             for i in range(n) for j in range(n))
    return (tr + n * shift) * F(1, 2 * n)


def naive_hessian(gamma, df):
    """Hess f[i][j] = -(nabla_{e_i} e_j) f = -sum_k Gamma_ij^k df[k] for a
    frame-constant differential df."""
    n = len(gamma)
    return [[-sum(gamma[i][j][k] * df[k] for k in range(n)) for j in range(n)]
            for i in range(n)]


def annihilator(rows, n):
    """A basis of {v : sum_k r[k] v[k] = 0 for every r in rows}, by exact
    reduction of the rows to echelon form."""
    m = [list(r) for r in rows]
    pivots = []
    for col in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = zeros(n)
        v[free] = F(1)
        for i, col in enumerate(pivots):
            v[col] = -m[i][free]
        basis.append(v)
    return basis


# Per-pair references for validate and the contact checks: the report text
# of each check from loops over every frame pair (or triple) on dense lists,
# with vectors rendered and reports laid out here. c, g and phi are dense
# (c[i][j][k], g[i][j], phi[a][j] = coefficient of e_a in phi e_j).

def render_vector(v):
    parts = []
    for k, x in enumerate(v):
        if x:
            name = f"e{k + 1}"
            parts.append(name if x == 1 else "-" + name if x == -1
                         else f"{F(x)}*{name}")
    return " + ".join(parts) or "0"


def reference_compare(lhs, dl, rhs, dr, fmt=None):
    """The per-key comparer of lhs / dl = rhs / dr on integer tables
    {key: {k: int}}: every key in order, its difference built before it is
    tested; fmt(key, left, right) gets the nonzero rational entries of each
    side, and without fmt a defect is the 1-based key and the difference."""
    bad = []
    for key in sorted(lhs.keys() | rhs.keys()):
        left, right = lhs.get(key, {}), rhs.get(key, {})
        diff = {k: x for k in left.keys() | right.keys()
                if (x := left.get(k, 0) * dr - right.get(k, 0) * dl)}
        if diff and fmt:
            bad += fmt(key, {k: F(x, dl) for k, x in left.items() if x},
                       {k: F(x, dr) for k, x in right.items() if x})
        elif diff:
            label = ",".join(str(t + 1) for t in key)
            bad.append(f"({label}): " + render_vector(
                [F(diff.get(k, 0), dl * dr) for k in range(max(diff) + 1)]))
    return bad


def report_text(subject, items):
    """items: (name, defects or None, prefix); a check passes on no defects."""
    rows = [(name, "pass" if not bad else "fail",
             None if not bad else prefix + "; ".join(bad))
            for name, bad, prefix in items]
    return _layout(subject, rows)


def table_text(subject, label, values, expected):
    """The connection, curvature or ricci report on dense reference values
    {index: coefficient list or rational}: a passing row per nonzero entry,
    in index order, and a ledger record per (index, value, source) of
    expected that values does not reproduce."""
    def show(v):
        return render_vector(v) if isinstance(v, list) else str(F(v))

    def name(idx):
        return label.format(*(i + 1 for i in idx))

    rows = [f"{name(idx)} = {show(v)}" for idx, v in sorted(values.items())
            if (any(v) if isinstance(v, list) else v)]
    ledger = [f"  [{src}] expected {name(idx)} = {show(want)}; "
              f"computed {name(idx)} = {show(values[idx])}"
              for idx, want, src in expected if want != values[idx]]
    lines = [f"subject: {subject}",
             "overall: " + ("discrepancies" if ledger else "pass")]
    width = max(map(len, rows), default=0)
    lines += [f"  {row.ljust(width)}  pass" for row in rows]
    if not rows and not ledger:
        lines.append("  no checks run")
    if ledger:
        lines += ["ledger:", *ledger]
    return "\n".join(lines) + "\n"


def _layout(subject, rows):
    overall = "fail" if any(s != "pass" for _, s, _ in rows) else "pass"
    width = max(len(name) for name, _, _ in rows)
    lines = [f"subject: {subject}", f"overall: {overall}"]
    for name, status, defect in rows:
        lines.append(f"  {name.ljust(width)}  {status}"
                     + ("" if defect is None else f"  [{defect}]"))
    return "\n".join(lines) + "\n"


def _matvec(a, v):
    return [sum((a[i][k] * v[k] for k in range(len(v))), F(0))
            for i in range(len(a))]


def _column(a, j):
    return [row[j] for row in a]


def _sub(u, v):
    return [x - y for x, y in zip(u, v)]


def _scaled(v, s):
    return [x * s for x in v]


def _eta(g, xi):
    return _matvec(g, xi)  # eta_i = g(e_i, xi)


def validate_text(name, c, g, strict):
    n = len(g)
    anti = sorted({t for i in range(n) for j in range(n) for k in range(n)
                   if c[i][j][k] != -c[j][i][k]
                   for t in ((i + 1, j + 1, k + 1), (j + 1, i + 1, k + 1))})
    asym = [(i + 1, j + 1) for i in range(n) for j in range(n)
            if g[i][j] != g[j][i]]
    rows = [(label, "fail" if bad else "pass",
             "violated at " + "; ".join(map(str, bad[:8])) if bad else None)
            for label, bad in (("bracket antisymmetry", anti),
                               ("metric symmetry", asym))]
    if not asym:
        minors = leading_minors(g)
        k = next((k for k, d in enumerate(minors, start=1) if d <= 0), None)
        rows.append(("metric positive-definite", "pass" if k is None else "fail",
                     None if k is None else
                     f"leading minor {k} has determinant {minors[k - 1]}"))
    subject = f"{name} validate" + (" (strict)" if strict else "")
    if strict:
        bad = []
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    d = zeros(n)
                    for a, b, z in ((i, j, k), (j, k, i), (k, i, j)):
                        d = [x + y for x, y in
                             zip(d, bracket(c, c[a][b], basis(n, z)))]
                    if any(d):
                        bad.append(f"({i + 1},{j + 1},{k + 1}): "
                                   f"{render_vector(d)}")
        rows.append(("jacobi identity", "fail" if bad else "pass",
                     "; ".join(bad) if bad else None))
    return _layout(subject, rows)


def almost_contact_items(g, phi, xi):
    n = len(g)
    eta = _eta(g, xi)
    val = sum((e * x for e, x in zip(eta, xi)), F(0))
    square = [_matvec(phi, _column(phi, j)) for j in range(n)]
    pxi = _matvec(phi, xi)
    etaphi = [sum((eta[a] * phi[a][j] for a in range(n)), F(0))
              for j in range(n)]
    return [
        ("eta(xi) = 1", [] if val == 1 else [f"eta(xi) = {val}"], ""),
        ("phi^2 = -I + xi(x)eta",
         [f"phi^2(e{j + 1}) = {render_vector(square[j])}" for j in range(n)
          if square[j] != _sub(_scaled(xi, eta[j]), basis(n, j))], ""),
        ("g(phi X, phi Y) = g(X, Y) - eta(X)eta(Y)",
         [f"({i + 1},{j + 1})" for i in range(n) for j in range(n)
          if g_of(g, _column(phi, i), _column(phi, j))
          != g[i][j] - eta[i] * eta[j]], "violated at "),
        ("phi(xi) = 0", [f"phi(xi) = {render_vector(pxi)}"] if any(pxi)
         else [], ""),
        ("eta(phi(.)) = 0", [f"eta(phi(e_j)) = {render_vector(etaphi)}"]
         if any(etaphi) else [], ""),
    ]


def almost_contact_text(name, g, phi, xi):
    return report_text(f"{name} almost-contact axioms",
                       almost_contact_items(g, phi, xi))


def sasakian_text(name, c, g, phi, xi):
    """(nabla_{e_i} phi) e_j = nabla_{e_i}(phi e_j) - phi(nabla_{e_i} e_j)
    against g(e_i, e_j) xi - eta(e_j) e_i, behind the almost-contact axioms."""
    n = len(g)
    subject = f"{name} sasakian equation"
    failing = [label for label, bad, _ in almost_contact_items(g, phi, xi)
               if bad]
    if failing:
        return _layout(subject, [("almost-contact axioms",
                                  "precondition_violated",
                                  "failing: " + "; ".join(failing))])
    gamma, eta = naive_koszul(c, g), _eta(g, xi)
    bad = []
    for i in range(n):
        for j in range(n):
            lhs = _sub(nabla(gamma, i, _column(phi, j)),
                       _matvec(phi, gamma[i][j]))
            rhs = _sub(_scaled(xi, g[i][j]), _scaled(basis(n, i), eta[j]))
            if lhs != rhs:
                bad.append(f"({i + 1},{j + 1}): {render_vector(_sub(lhs, rhs))}")
    return report_text(subject, [("(nabla_X phi)Y = g(X,Y)xi - eta(Y)X", bad,
                                  "")])


def nijenhuis_vector(c, phi, i, j):
    """[phi, phi](e_i, e_j) = phi^2 [e_i, e_j] + [phi e_i, phi e_j]
    - phi [phi e_i, e_j] - phi [e_i, phi e_j]."""
    n = len(c)
    pi, pj = _column(phi, i), _column(phi, j)
    ei, ej = basis(n, i), basis(n, j)
    out = _matvec(phi, _matvec(phi, c[i][j]))
    out = [x + y for x, y in zip(out, bracket(c, pi, pj))]
    out = _sub(out, _matvec(phi, bracket(c, pi, ej)))
    return _sub(out, _matvec(phi, bracket(c, ei, pj)))


def normality_text(name, c, g, phi, xi):
    """[phi, phi](e_i, e_j) + 2 d eta(e_i, e_j) xi, 2 d eta = -eta([., .])."""
    n = len(g)
    eta = _eta(g, xi)
    bad = []
    for i in range(n):
        for j in range(i + 1, n):
            e = sum((a * b for a, b in zip(eta, c[i][j])), F(0))
            total = _sub(nijenhuis_vector(c, phi, i, j), _scaled(xi, e))
            if any(total):
                bad.append(f"({i + 1},{j + 1}): {render_vector(total)}")
    return report_text(f"{name} normality",
                       [("[phi,phi] + 2 d eta (x) xi = 0", bad, "")])


def contact_metric_text(name, c, g, phi, xi):
    n = len(g)
    eta = _eta(g, xi)
    bad = []
    for i in range(n):
        for j in range(n):
            lhs = -sum((a * b for a, b in zip(eta, c[i][j])), F(0)) / 2
            rhs = g_of(g, basis(n, i), _column(phi, j))
            if lhs != rhs:
                bad.append(f"({i + 1},{j + 1}): d eta = {lhs}, "
                           f"g(e_i, phi e_j) = {rhs}")
    return report_text(f"{name} contact-metric compatibility",
                       [("d eta(X,Y) = g(X, phi Y)", bad, "")])


def curvature_identity_text(name, c, g, phi, xi):
    """R(e_y, xi) e_z from the naive curvature table, against
    eta(e_z) e_y - g(e_y, e_z) xi."""
    n = len(g)
    R = naive_curvature(c, naive_koszul(c, g))
    eta = _eta(g, xi)
    bad = []
    for y in range(n):
        for z in range(n):
            lhs = zeros(n)
            for b in range(n):
                lhs = [u + xi[b] * v for u, v in zip(lhs, R[y][b][z])]
            rhs = _sub(_scaled(basis(n, y), eta[z]), _scaled(xi, g[y][z]))
            if lhs != rhs:
                bad.append(f"({y + 1},{z + 1}): {render_vector(_sub(lhs, rhs))}")
    return report_text(f"{name} reeb curvature identity",
                       [("R(Y, xi)Z = eta(Z)Y - g(Y,Z)xi", bad, "")])


def reeb_ricci_text(name, c, g, xi):
    """ric(xi, e_k) from the naive Ricci tensor, against (m - 1) eta(e_k)."""
    n = len(g)
    ric = naive_ricci(naive_curvature(c, naive_koszul(c, g)))
    eta = _eta(g, xi)
    bad = []
    for k in range(n):
        lhs = sum((xi[j] * ric[j][k] for j in range(n)), F(0))
        if lhs != (n - 1) * eta[k]:
            bad.append(f"e{k + 1}: ric(xi, e_k) = {lhs}, want {(n - 1) * eta[k]}")
    return report_text(f"{name} reeb ricci identity",
                       [(f"ric(xi, Z) = {n - 1} eta(Z)", bad, "")])


# The gradient curvature identity as the engine checked it pair by pair: for
# each (i, j), R(e_i, e_j) Df from nabla Df, less the right-hand side, built
# and rendered before it is tested. s, the multiplier in Hess f + ric = s g,
# may be parametric; the residual entries are rendered with str().

_PRE = "precondition_violated"
IDENTITY = "R(X,Y)Df = (X lam)Y - (Y lam)X - (nabla_X Q)Y + (nabla_Y Q)X"


def endo_derivative(gamma, Q, i, j):
    """(nabla_i Q) e_j = nabla_i (Q e_j) - Q (nabla_i e_j) for an
    endomorphism given column-wise, Q[a][j] the coefficient of e_a in Q e_j."""
    return _sub(nabla(gamma, i, _column(Q, j)), _matvec(Q, gamma[i][j]))


def gradient_identity_defects(c, g, gamma, ric, df, dlambda):
    """The pairs (i, j) where R(e_i, e_j) Df differs from dlambda_i e_j -
    dlambda_j e_i - (nabla_i Q) e_j + (nabla_j Q) e_i, with Df = g^{-1} df
    and Q = g^{-1} ric, each listed with the difference."""
    n = len(g)
    gi = inv(g)
    Df = _matvec(gi, df)
    nab = [nabla(gamma, b, Df) for b in range(n)]
    Q = [[sum(gi[a][l] * ric[l][j] for l in range(n)) for j in range(n)]
         for a in range(n)]

    bad = []
    for i in range(n):
        for j in range(n):
            lhs = _sub(_sub(nabla(gamma, i, nab[j]), nabla(gamma, j, nab[i])),
                       [sum(c[i][j][b] * nab[b][k] for b in range(n))
                        for k in range(n)])
            rhs = _sub(_sub(_scaled(basis(n, j), dlambda[i]),
                            _scaled(basis(n, i), dlambda[j])),
                       _sub(endo_derivative(gamma, Q, i, j),
                            endo_derivative(gamma, Q, j, i)))
            diff = _sub(lhs, rhs)
            if any(diff):
                bad.append(f"({i + 1},{j + 1}): {render_vector(diff)}")
    return bad


def gradient_identity_text(name, c, g, gamma, ric, df, dlambda, s):
    """The identity's report, with gamma and ric from naive_koszul and
    naive_ricci: dlambda supplied, df closed and the gradient soliton
    equation holding (its first six nonzero residual entries listed
    otherwise) are preconditions, checked in that order."""
    subject = f"{name} gradient curvature identity"
    n = len(g)
    if dlambda is None:
        return _layout(subject, [("dlambda supplied", _PRE,
                                  "gradient data carries no dlambda")])
    open_pairs = [f"({i + 1},{j + 1}): {F(d)}" for i in range(n)
                  for j in range(i + 1, n)
                  if (d := sum(df[k] * c[i][j][k] for k in range(n)))]
    if open_pairs:
        return _layout(subject, [("df integrable", _PRE, "df is not integrable: "
                                  + "; ".join(open_pairs))])
    hess = naive_hessian(gamma, df)
    res = [f"({i + 1},{j + 1}): {v}" for i in range(n) for j in range(n)
           if (v := hess[i][j] + ric[i][j] - s * g[i][j]) != 0]
    if res:
        return _layout(subject, [("gradient soliton equation holds", _PRE,
                                  "; ".join(res[:6]))])
    bad = gradient_identity_defects(c, g, gamma, ric, df, dlambda)
    return _layout(subject, [(IDENTITY, "fail" if bad else "pass",
                              "; ".join(bad) if bad else None)])


# Token-by-token references for the text grammars: the scanner, the scalar
# loop, the vector reader and the statement code of the manifold reader as
# they read text one token at a time, before the readers matched whole terms
# and statement heads with patterns. Only the line split differs: lines end
# at \n, \r\n or \r alone. Values come back as plain dicts, errors as
# ScalarTextError or LineError with the engine's message text.

import re as _re

_WORD = _re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_INTEGER = _re.compile(r"\d+")
_BASIS = _re.compile(r"e(\d+)")
_SOURCE = _re.compile(r'source\s+"([^"]*)"\s*$')
_EXPECT_KINDS = ("nabla", "riem", "ricci", "lambda")
MAX_DIGITS = 1000
MAX_DIM = 128
_ONE = F(1)


class ScalarTextError(ValueError):
    pass


class LineError(ValueError):
    def __init__(self, lineno, col, message):
        super().__init__(f"line {lineno}, col {col}: {message}")
        self.lineno = lineno
        self.col = col
        self.message = message


def evaluate(scalar, env):
    """The value of a ParamScalar at the rationals env gives its
    parameters, summed over its terms()."""
    total = F(0)
    for mono, coeff in scalar.terms().items():
        for sym, exp in mono:
            coeff *= F(env[sym]) ** exp
        total += coeff
    return total


def canonical_monomial(pairs):
    if len(pairs) == 1 and pairs[0][1] > 0:
        return tuple(pairs)
    exps = {}
    for sym, e in pairs:
        exps[sym] = exps.get(sym, 0) + e
    return tuple(sorted((sym, e) for sym, e in exps.items() if e))


class TokenScanner:
    _ws = _re.compile(r"\s*").match

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, msg, pos=None):
        p = self.pos if pos is None else pos
        raise ScalarTextError(f"{msg} at offset {p} in scalar {self.text!r}")

    def skip_ws(self):
        self.pos = p = self._ws(self.text, self.pos).end()
        return p

    def eof(self):
        self.pos = p = self._ws(self.text, self.pos).end()
        return p >= len(self.text)

    def end(self):
        if not self.eof():
            self.error("trailing text")

    def peek(self):
        self.pos = p = self._ws(self.text, self.pos).end()
        return self.text[p:p + 1]

    def peek_word(self):
        m = _WORD.match(self.text, self.skip_ws())
        return m.group(0) if m else ""

    def word(self, what="an identifier"):
        m = _WORD.match(self.text, self.skip_ws())
        if not m:
            self.error(f"expected {what}")
        self.pos = m.end()
        return m.group(0)

    def keyword(self, lit):
        start = self.pos
        w = self.word()
        if w != lit:
            self.error(f"expected {lit!r}, found {w!r}", start)

    def char(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def signs(self):
        negative = False
        while (ch := self.peek()) in ("+", "-"):
            negative ^= ch == "-"
            self.pos += 1
        return negative

    def literal(self, m, group):
        digits = m.group(group)
        if len(digits) > MAX_DIGITS:
            self.error(f"integer literal of {len(digits)} digits exceeds "
                       f"the limit of {MAX_DIGITS}", m.start(group))
        return int(digits)

    def integer(self):
        m = _INTEGER.match(self.text, self.skip_ws())
        if not m:
            self.error("expected an integer")
        value = self.literal(m, 0)
        self.pos = m.end()
        return value

    def rational(self):
        start = self.skip_ws()
        m = _INTEGER.match(self.text, start)
        if not m:
            self.error("expected a rational number")
        num = self.literal(m, 0)
        self.pos = m.end()
        if self.peek() != "/":
            return F(num)
        self.pos += 1
        m = _INTEGER.match(self.text, self.skip_ws())
        if not m:
            self.error("expected an integer denominator")
        den = self.literal(m, 0)
        self.pos = m.end()
        if den == 0:
            self.error("zero denominator", start)
        return F(num, den)

    def signed_rational(self):
        negative = self.signs()
        q = self.rational()
        return -q if negative else q

    def monomial(self, what):
        pairs = []
        while True:
            name = self.word(what)
            exp = 1
            if self.peek() == "^":
                self.pos += 1
                exp = self.integer()
            pairs.append((name, exp))
            if self.peek() != "*":
                return canonical_monomial(pairs)
            self.pos += 1
            what = "a parameter name"

    def scalar(self):
        """{monomial: Fraction}, zero coefficients left out."""
        terms = {}
        negative = self.signs()
        while True:
            mono = ()
            if self.peek().isdigit():
                coeff = self.rational()
                ch = self.peek()
                if ch == "*":
                    self.pos += 1
                if ch == "*" or ch == "_" or ch.isalpha():
                    mono = self.monomial("a parameter name")
            else:
                coeff = _ONE
                mono = self.monomial("a term")
            if negative:
                coeff = -coeff
            terms[mono] = terms[mono] + coeff if mono in terms else coeff
            if self.eof():
                return {m: c for m, c in terms.items() if c}
            if self.text[self.pos] not in "+-":
                self.error("expected '+' or '-' between terms")
            negative = self.signs()


class LineScanner(TokenScanner):
    _ws = _re.compile(r"[ \t]*").match

    def __init__(self, text, lineno):
        super().__init__(text)
        self.lineno = lineno

    def error(self, msg, pos=None):
        p = self.pos if pos is None else pos
        raise LineError(self.lineno, p + 1, msg)

    def basis_index(self, dim):
        start = self.skip_ws()
        m = _BASIS.match(self.text, start)
        if not m:
            self.error("expected a frame vector e<k>")
        k = self.literal(m, 1)
        self.pos = m.end()
        if not 1 <= k <= dim:
            self.error(f"frame index e{k} out of range 1..{dim}", start)
        return k - 1

    def index_1based(self, dim):
        start = self.skip_ws()
        k = self.integer()
        if not 1 <= k <= dim:
            self.error(f"index {k} out of range 1..{dim}", start)
        return k - 1


def parse_vector(sc, dim):
    coeffs = {}
    if sc.peek() == "0":
        save = sc.pos
        sc.pos += 1
        if sc.eof():
            return coeffs
        sc.pos = save
    first = True
    while not sc.eof():
        start = sc.pos
        negative = sc.signs()
        if not first and sc.pos == start:
            sc.error("expected '+' or '-' between terms")
        q = _ONE
        if sc.peek().isdigit():
            q = sc.rational()
            if sc.peek() == "*":
                sc.pos += 1
        k = sc.basis_index(dim)
        if negative:
            q = -q
        coeffs[k] = coeffs[k] + q if k in coeffs else q
        first = False
    if first:
        sc.error("expected a vector expression")
    return {k: x for k, x in coeffs.items() if x}


def reference_scalar(text):
    return TokenScanner(text).scalar()


def reference_rational(text):
    sc = TokenScanner(text)
    q = sc.signed_rational()
    sc.end()
    return q


def reference_vector(text, dim):
    return parse_vector(LineScanner(text, 1), dim)


def _strip_comment(raw):
    if "#" not in raw:
        return raw
    quoted = False
    for pos, ch in enumerate(raw):
        if ch == '"':
            quoted = not quoted
        elif ch == "#" and not quoted:
            return raw[:pos]
    return raw


def text_lines(text):
    """The lines of text, each ended by \\n, \\r\\n or \\r."""
    lines = _re.split(r"\r\n|\r|\n", text)
    if lines[-1] == "":
        lines.pop()
    return lines


def reference_document(text):
    """A manifold file's statements as a dict of plain values: name, dim,
    params, brackets {(i, j): {k: Fraction}} for i < j, metric ("identity"
    or the dense rows), xi, phi {j: {a: Fraction}}, and the expect entries
    nabla, riem (vectors as dicts), ricci and lam ({monomial: Fraction})."""
    name = None
    dim = 0
    params = []
    brackets = {}
    bracket_lines = {}
    metric_mode = None
    metric_entries = {}
    xi = None
    phi_cols = {}
    exp_nabla = []
    exp_riem = []
    exp_ricci = []
    exp_lam = []
    last_line = 0

    for lineno, raw in enumerate(text_lines(text), start=1):
        last_line = lineno
        line = _strip_comment(raw).rstrip("\r").rstrip()
        if not line.strip():
            continue
        sc = LineScanner(line, lineno)
        head = sc.word()

        if head == "manifold":
            if name is not None:
                sc.error("duplicate manifold declaration")
            name = sc.word()
            sc.keyword("dim")
            dim_pos = sc.skip_ws()
            dim = sc.integer()
            if dim < 1:
                sc.error("dimension must be positive")
            if dim > MAX_DIM:
                sc.error(f"dimension {dim} exceeds the limit {MAX_DIM}", dim_pos)
            sc.end()
            continue

        if name is None:
            sc.error("the manifold declaration must come first", 0)

        if head == "param":
            params.append(sc.word())
            sc.end()
        elif head == "bracket":
            i = sc.basis_index(dim)
            j = sc.basis_index(dim)
            if i == j:
                sc.error("bracket of a frame vector with itself is zero; omit it")
            key = (min(i, j), max(i, j))
            if key in brackets:
                sc.error(f"bracket for pair (e{key[0] + 1}, e{key[1] + 1}) "
                         f"already declared on line {bracket_lines[key]}")
            sc.char("=")
            v = parse_vector(sc, dim)
            brackets[key] = v if i < j else {k: -x for k, x in v.items()}
            bracket_lines[key] = lineno
        elif head == "metric":
            which = sc.peek_word()
            if which == "identity":
                sc.word()
                if metric_mode is not None:
                    sc.error("metric already declared")
                metric_mode = "identity"
                sc.end()
            elif which == "g":
                sc.word()
                if metric_mode == "identity":
                    sc.error("metric already declared as identity")
                metric_mode = "entries"
                i = sc.index_1based(dim)
                j = sc.index_1based(dim)
                if (i, j) in metric_entries or (j, i) in metric_entries:
                    sc.error(f"metric entry ({i + 1},{j + 1}) already declared")
                sc.char("=")
                q = sc.signed_rational()
                sc.end()
                metric_entries[(i, j)] = q
                metric_entries[(j, i)] = q
            else:
                sc.error("expected 'identity' or 'g'")
        elif head == "contact":
            which = sc.word()
            if which == "xi":
                if xi is not None:
                    sc.error("contact xi already declared")
                sc.char("=")
                xi = parse_vector(sc, dim)
            elif which == "phi":
                j = sc.basis_index(dim)
                if j in phi_cols:
                    sc.error(f"contact phi e{j + 1} already declared")
                sc.char("=")
                phi_cols[j] = parse_vector(sc, dim)
            else:
                sc.error("expected 'xi' or 'phi'")
        elif head == "expect":
            start = sc.pos
            clause = _SOURCE.search(line)
            kind = sc.peek_word() if clause and sc.skip_ws() > start else ""
            sc.pos += len(kind)
            if kind not in _EXPECT_KINDS or not line[sc.pos:sc.pos + 1].isspace():
                sc.error("malformed expect line; need = <value> source \"...\"",
                         start)
            sc.text = line[:clause.start()].rstrip()
            source = clause.group(1)
            if kind == "lambda":
                sc.char("=")
                sc._ws = TokenScanner._ws
                exp_lam.append((sc.scalar(), source))
            elif kind == "ricci":
                i = sc.index_1based(dim)
                j = sc.index_1based(dim)
                sc.char("=")
                q = sc.signed_rational()
                sc.end()
                exp_ricci.append((i, j, q, source))
            else:
                nabla = kind == "nabla"
                idx = [sc.basis_index(dim) for _ in range(2 if nabla else 3)]
                sc.char("=")
                v = parse_vector(sc, dim)
                (exp_nabla if nabla else exp_riem).append((*idx, v, source))
        else:
            sc.error(f"unknown statement {head!r}", 0)

    if name is None:
        raise LineError(last_line + 1, 1, "missing manifold declaration")
    if metric_mode is None:
        raise LineError(last_line + 1, 1, "missing metric declaration")
    allowed = set(params) | {"p"}
    for lam, _src in exp_lam:
        extra = {sym for mono in lam for sym, _ in mono} - allowed
        if extra:
            raise LineError(last_line + 1, 1,
                            f"expected lambda uses undeclared parameter "
                            f"{sorted(extra)[0]!r}")
    if phi_cols and xi is None:
        raise LineError(last_line + 1, 1, "contact phi requires contact xi")
    metric = "identity" if metric_mode == "identity" else [
        [metric_entries.get((i, j), F(0)) for j in range(dim)]
        for i in range(dim)]
    return {"name": name, "dim": dim, "params": params,
            "brackets": brackets, "metric": metric, "xi": xi,
            "phi": phi_cols, "nabla": exp_nabla, "riem": exp_riem,
            "ricci": exp_ricci, "lam": exp_lam}
