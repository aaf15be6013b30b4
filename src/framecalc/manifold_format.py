"""Line-based text format for frame manifolds.

    # comments run to end of line, except inside "..."; blank lines are ignored
    manifold <ident> dim <int>
    param <ident>
    bracket e<i> e<j> = <vector-expr>
    metric identity
    metric g <i> <j> = <rational>
    contact xi = <vector-expr>
    contact phi e<j> = <vector-expr>
    expect nabla e<i> e<j> = <vector-expr> source "<text>"
    expect riem e<i> e<j> e<k> = <vector-expr> source "<text>"
    expect ricci <i> <j> = <rational> source "<text>"
    expect lambda = <scalar-expr> source "<text>"

A vector-expr is 0 or a sum of signed terms <rational>[*]e<k>; indices are
1-based and must stay within the declared dimension, which is at most
MAX_DIM; integer literals have at most scalars.MAX_DIGITS digits. Brackets
may be declared at most once per unordered pair; the parser keeps only
their nonzero coefficients and hands them to FrameManifold.from_brackets
as a sparse table. Expected values are audit
data: they never feed computation, they only populate discrepancy ledgers,
so repeated or contradictory expect lines are legal.

Every line is read in place by a subclass of scalars.Scanner: blanks and
tabs between tokens, errors at the line and column of the offending token.
An expect line is first cut before its trailing source clause; its kind,
indices, = and value are then read on the same scanner. An expect lambda
scalar-expr is read by Scanner.scalar with any whitespace, as parse_scalar
reads it.
"""
from __future__ import annotations

import re
from fractions import Fraction

from .contact import AlmostContactData
from .geometry import FrameManifold, FrameVector, identity_metric, vector_of
from .record import Record
from .scalars import _ONE, Scanner, format_rational

# Largest accepted dimension. Brackets are stored sparse, but the metric and
# its inverse stay dense (m^2 entries, one elimination each) and the strict
# Jacobi scan visits all m^3 / 6 triples, so the declared dimension alone
# sets a floor on the cost of a command.
MAX_DIM = 128


class ParseError(ValueError):
    def __init__(self, lineno: int, col: int, message: str):
        super().__init__(f"line {lineno}, col {col}: {message}")
        self.lineno = lineno
        self.col = col
        self.message = message


class ExpectedValues(Record):
    def __init__(self, nabla: tuple = (), riem: tuple = (),
                 ricci: tuple = (), lam: tuple = ()):
        self.nabla = nabla  # (i, j, FrameVector, source)
        self.riem = riem    # (i, j, k, FrameVector, source)
        self.ricci = ricci  # (i, j, Fraction, source)
        self.lam = lam      # (ParamScalar, source)

    def is_empty(self) -> bool:
        return not (self.nabla or self.riem or self.ricci or self.lam)


class ManifoldDocument(Record):
    def __init__(self, manifold: FrameManifold,
                 contact: AlmostContactData | None, expected: ExpectedValues):
        self.manifold = manifold
        self.contact = contact
        self.expected = expected


_BASIS = re.compile(r"e(\d+)")


class _Scanner(Scanner):
    """A manifold line: only blanks and tabs between tokens, ParseError at
    a line and column, and frame indices."""

    _ws = re.compile(r"[ \t]*").match

    def __init__(self, text: str, lineno: int):
        super().__init__(text)
        self.lineno = lineno

    def error(self, msg: str, pos: int | None = None):
        p = self.pos if pos is None else pos
        raise ParseError(self.lineno, p + 1, msg)

    def basis_index(self, dim: int) -> int:
        """Read e<k> and return the 0-based index."""
        start = self.skip_ws()
        m = _BASIS.match(self.text, start)
        if not m:
            self.error("expected a frame vector e<k>")
        k = self.literal(m, 1)
        self.pos = m.end()
        if not 1 <= k <= dim:
            self.error(f"frame index e{k} out of range 1..{dim}", start)
        return k - 1

    def index_1based(self, dim: int) -> int:
        start = self.skip_ws()
        k = self.integer()
        if not 1 <= k <= dim:
            self.error(f"index {k} out of range 1..{dim}", start)
        return k - 1


def _parse_vector(sc: _Scanner, dim: int) -> dict:
    """The nonzero coefficients {k: Fraction} of a vector-expr."""
    coeffs: dict = {}
    # bare zero
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


def parse_vector_text(text: str, dim: int) -> FrameVector:
    return vector_of(dim, _parse_vector(_Scanner(text, 1), dim))


# The source clause that ends an expect line. The whitespace before it is
# cut with rstrip: a leading \s* here would rescan each blank run from
# every position in it.
_SOURCE = re.compile(r'source\s+"([^"]*)"\s*$')
_EXPECT_KINDS = ("nabla", "riem", "ricci", "lambda")


def _strip_comment(raw: str) -> str:
    """Cut a line at its first # that is not inside a double-quoted string."""
    if "#" not in raw:
        return raw
    quoted = False
    for pos, ch in enumerate(raw):
        if ch == '"':
            quoted = not quoted
        elif ch == "#" and not quoted:
            return raw[:pos]
    return raw


def parse_manifold(text: str) -> ManifoldDocument:
    """Parse the manifold file grammar. Grammar violations raise ParseError
    with a line and column; the described geometry is not judged here beyond
    shape, so files for validate-rejected manifolds still parse."""
    name = None
    dim = 0
    params: list = []
    brackets: dict = {}
    bracket_lines: dict = {}
    metric_mode = None  # None | "identity" | "entries"
    metric_entries: dict = {}
    xi = None
    phi_cols: dict = {}
    exp_nabla: list = []
    exp_riem: list = []
    exp_ricci: list = []
    exp_lam: list = []
    last_line = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = _strip_comment(raw).rstrip("\r").rstrip()
        if not line.strip():
            continue
        sc = _Scanner(line, lineno)
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
            v = _parse_vector(sc, dim)
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
                xi = _parse_vector(sc, dim)
            elif which == "phi":
                j = sc.basis_index(dim)
                if j in phi_cols:
                    sc.error(f"contact phi e{j + 1} already declared")
                sc.char("=")
                phi_cols[j] = _parse_vector(sc, dim)
            else:
                sc.error("expected 'xi' or 'phi'")
        elif head == "expect":
            # The kind follows blanks or tabs and precedes whitespace; the
            # rest is read up to the source clause.
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
                sc._ws = Scanner._ws  # the value reads as parse_scalar reads it
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
                v = vector_of(dim, _parse_vector(sc, dim))
                (exp_nabla if nabla else exp_riem).append((*idx, v, source))
        else:
            sc.error(f"unknown statement {head!r}", 0)

    if name is None:
        raise ParseError(last_line + 1, 1, "missing manifold declaration")
    if metric_mode is None:
        raise ParseError(last_line + 1, 1, "missing metric declaration")

    if metric_mode == "identity":
        g = identity_metric(dim)
    else:
        zero = Fraction(0)
        g = tuple(tuple(metric_entries.get((i, j), zero)
                        for j in range(dim)) for i in range(dim))

    M = FrameManifold.from_brackets(name, dim, brackets, g, params)

    allowed = M.params
    for lam, _src in exp_lam:
        extra = lam.symbols() - allowed
        if extra:
            raise ParseError(last_line + 1, 1,
                             f"expected lambda uses undeclared parameter "
                             f"{sorted(extra)[0]!r}")

    contact = None
    if phi_cols and xi is None:
        raise ParseError(last_line + 1, 1, "contact phi requires contact xi")
    if xi is not None:
        zero = Fraction(0)
        phi = tuple(tuple(phi_cols.get(j, {}).get(a, zero) for j in range(dim))
                    for a in range(dim))
        contact = AlmostContactData(phi, tuple(xi.get(a, zero)
                                               for a in range(dim)))

    expected = ExpectedValues(tuple(exp_nabla), tuple(exp_riem),
                              tuple(exp_ricci), tuple(exp_lam))
    return ManifoldDocument(M, contact, expected)


def render_manifold(doc: ManifoldDocument) -> str:
    """Canonical text for a document; parse(render(doc)) == doc."""
    M = doc.manifold
    lines = [f"manifold {M.name} dim {M.dim}"]
    for p in sorted(M.params - {"p"}):
        lines.append(f"param {p}")
    for (i, j), row in M.brackets.items():
        if i < j:
            lines.append(f"bracket e{i + 1} e{j + 1} = "
                         f"{vector_of(M.dim, row).render()}")
    if M.g == identity_metric(M.dim):
        lines.append("metric identity")
    else:
        wrote = False
        for i in range(M.dim):
            for j in range(i, M.dim):
                if M.g[i][j]:
                    lines.append(f"metric g {i + 1} {j + 1} = "
                                 f"{format_rational(M.g[i][j])}")
                    wrote = True
        if not wrote:  # degenerate all-zero metric still needs a statement
            lines.append("metric g 1 1 = 0")
    if doc.contact is not None:
        lines.append(f"contact xi = "
                     f"{FrameVector.from_values(doc.contact.xi).render()}")
        for j in range(M.dim):
            col = doc.contact.phi_column(j)
            if not col.is_zero():
                lines.append(f"contact phi e{j + 1} = {col.render()}")
    for kind, entries in (("nabla", doc.expected.nabla),
                          ("riem", doc.expected.riem)):
        for *idx, v, src in entries:
            frames = " ".join(f"e{i + 1}" for i in idx)
            lines.append(f"expect {kind} {frames} = {v.render()} "
                         f"source \"{src}\"")
    for i, j, q, src in doc.expected.ricci:
        lines.append(f"expect ricci {i + 1} {j + 1} = {format_rational(q)} "
                     f"source \"{src}\"")
    for lam, src in doc.expected.lam:
        lines.append(f"expect lambda = {lam.render()} source \"{src}\"")
    return "\n".join(lines) + "\n"
