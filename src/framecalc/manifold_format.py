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
may be declared at most once per unordered pair. Expected values are audit
data: they never feed computation, they only populate discrepancy ledgers,
so repeated or contradictory expect lines are legal.

A line ends at \\n, \\r\\n or \\r, as open() in text mode ends it; other
characters str.splitlines() breaks at (\\x0c, \\x85, \\u2028, ...) stay in
the line. Each line is read by one full match of _LINE, blanks and tabs
between tokens: head, indices, value, source clause and # comment. A
vector-expr is split into terms by one findall, a rational and each
term's coefficient taken from the groups by scalars._number, an expect
lambda scalar-expr read by Scanner.scalar, as parse_scalar reads it. An
integer literal is read as an int and only a/b as a Fraction, and the
brackets, the metric and phi go to FrameManifold and AlmostContactData as
the integer tables the kernels read, in final order.
An expect nabla or riem value is kept as the map {k: int | Fraction} of
its nonzero coefficients, k ascending, as the table reports read it.

A line the pattern rejects, or whose limits or rules fail, is cut at its
comment and read again from its start by the token methods of _Scanner, a
subclass of scalars.Scanner, which raise ParseError at the line and column
of the offending token; an expect lambda value Scanner.scalar rejects is
read again from its start the same way. No line that parses goes through
them. Both ways check a statement by the same rules and record it by the
same code (_Document).
"""
from __future__ import annotations

import re
from fractions import Fraction

from .contact import AlmostContactData
from .geometry import (FrameManifold, FrameVector, integer_rows, render_vector,
                       vector_of)
from .record import Record
from .scalars import (_INTEGER, _ONE, MAX_DIGITS, Scanner, _number,
                      as_fraction, format_rational)

# Largest accepted dimension. Brackets, the metric and phi are stored sparse,
# but the one elimination of the metric works on dense m x m integer rows,
# so the declared dimension alone sets a floor on the cost of a command.
MAX_DIM = 128
# Most characters the CLI reads from a --file; past it the file is refused
# unread, so an endless or huge one neither hangs nor exhausts memory.
MAX_CHARS = 1 << 24


class ParseError(ValueError):
    def __init__(self, lineno: int, col: int, message: str):
        super().__init__(f"line {lineno}, col {col}: {message}")
        self.lineno = lineno
        self.col = col
        self.message = message


class ExpectedValues(Record):
    def __init__(self, nabla: tuple = (), riem: tuple = (),
                 ricci: tuple = (), lam: tuple = ()):
        self.nabla = nabla  # (i, j, {k: int | Fraction}, source)
        self.riem = riem    # (i, j, k, {k: int | Fraction}, source)
        self.ricci = ricci  # (i, j, int or Fraction, source)
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
        if _index(m.group(1), dim) < 0:
            self.error(f"frame index e{k} out of range 1..{dim}", start)
        return k - 1

    def index_1based(self, dim: int) -> int:
        start = self.skip_ws()
        k = self.integer()
        if _index(self.text[start:self.pos], dim) < 0:
            self.error(f"index {k} out of range 1..{dim}", start)
        return k - 1


# A vector-expr: 0, or terms sign* [rational [*]] e<k> with a sign before
# all but the first; the terms in one group, without the blanks after them.
_TERM = r"(?:\d+(?:[ \t]*/[ \t]*\d+)?[ \t]*(?:\*[ \t]*)?)?e\d+"
_VECTOR_EXPR = rf"(?:[ \t]*0|([ \t+-]*{_TERM}(?:[ \t]*[+-][ \t+-]*{_TERM})*))"
# Its terms, one per match: signs, numerator, denominator, frame index. It
# reads only such a group, from the start of a term, so checks nothing.
_TERMS = re.compile(r"([-+ \t]*)(\d*)[ \t/]*(\d*)[ \t*]*e(\d+)").findall
# The source clause of an expect line.
_SOURCE = r'source\s+"([^"]*)"'
# A line up to its comment, the first # not inside "...", as one match.
_CODE = r'(?:[^"#]+|"[^"]*(?:"|$))*'


def _index(digits: str, bound: int) -> int:
    """The 0-based index of a 1-based literal a pattern matched, or -1 when
    it is out of 1..bound or over MAX_DIGITS digits."""
    k = int(digits) if len(digits) <= MAX_DIGITS else 0
    return k - 1 if 1 <= k <= bound else -1


def _vector(text: str, dim: int) -> dict | None:
    """The nonzero coefficients {k: value}, k ascending, of a vector-expr
    the line pattern matched, or None where a term breaks a limit."""
    coeffs: dict = {}
    for signs, num, den, k in _TERMS(text):
        q, k = _number(signs, num, den), _index(k, dim)
        if q is None or k < 0:
            return None
        coeffs[k] = coeffs[k] + q if k in coeffs else q
    if len(coeffs) == 1 and coeffs[k]:
        return coeffs
    return {k: x for k, x in sorted(coeffs.items()) if x}


def _vector_by_tokens(sc: _Scanner, dim: int) -> dict:
    """The vector-expr that fills the rest of sc's text, one token at a
    time: ParseError at the first token that breaks the grammar. Only text
    the pattern rejects is read here, so never a bare 0."""
    coeffs: dict = {}
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
    return {k: x for k, x in sorted(coeffs.items()) if x}


def _line_pattern():
    r"""The full-match function of a line: a statement, each kind a named
    group, or a blank or comment-only line (blank), then the whitespace and
    comment the token reader cuts. [ \t]+ separates tokens that would merge
    without it, or an expect kind from what follows, else [ \t]*; every
    blank run has one place. A kind's groups follow its named group, so
    m.groups()[m.lastindex:] starts with them. Every copy of a value
    pattern is compiled at every import, so the kinds with a rational share
    one group, rational, and those with a vector-expr another, vector:
    kind word, indices, value, and the source clause where r or v matched."""
    name = r"([A-Za-z_][A-Za-z_0-9]*)"
    heads = {
        "manifold": rf"manifold[ \t]+{name}[ \t]+dim[ \t]+(\d+)",
        "param": rf"param[ \t]+{name}",
        "identity": r"metric[ \t]+identity",
        "rational": r"(?:metric[ \t]+(g)|expect[ \t]+(?P<r>ricci))"
                    r"[ \t]+(\d+)[ \t]+(\d+)[ \t]*="
                    r"([ \t+-]*)(\d+)(?:[ \t]*/[ \t]*(\d+))?"
                    rf"(?(r)\s*{_SOURCE})",
        "lambda": rf'expect[ \t]+lambda[ \t]+=([^#"]*){_SOURCE}',
        "vector": r"(?:(bracket)|contact[ \t]+(xi|phi)"
                  r"|expect[ \t]+(?P<v>nabla|riem))"
                  rf"((?:[ \t]+e\d+(?:[ \t]*e\d+)*)?)[ \t]*={_VECTOR_EXPR}"
                  rf"(?(v)\s*{_SOURCE})",
    }
    return re.compile(r"(?:[ \t]*(?:" + "|".join(
        f"(?P<{kind}>{head})" for kind, head in heads.items())
        + r")|(?P<blank>))\s*(?:#.*)?").fullmatch


_LINE = _line_pattern()
_EXPECT_KINDS = ("nabla", "riem", "ricci", "lambda")

# The number of indices in the head of each statement kind with indices.
_INDICES = {"bracket": 2, "identity": 0, "g": 2, "xi": 0, "phi": 1,
            "ricci": 2, "nabla": 2, "riem": 3, "lambda": 0}


def _lines(text: str) -> list:
    r"""The lines of text, each ended by \n, \r\n or \r as open() in text
    mode ends them, and by no other character (str.splitlines also ends
    lines at \x0b, \x0c, \x1c-\x1e, \x85, \u2028 and \u2029)."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


class _Document:
    """The statements of a manifold file read so far.

    A line is read by read_match where _LINE matches it, else by
    read_tokens. Both check a statement by the same rules, each a method
    returning the message of its error or None, and hand it and its value
    to record. read_match takes a line only where every limit and rule
    passes; read_tokens raises each error at its token."""

    def __init__(self):
        self.lineno = 0
        self.name = None
        self.dim = 0
        self.params: list = []
        self.brackets: dict = {}  # {(i, j): {k: value}}, both orders, rows != 0
        self.bracket_lines: dict = {}  # {(i, j): line}, i < j
        self.metric_mode = None  # None | "identity" | "entries"
        self.metric_entries: dict = {}
        self.xi = None
        self.phi_cols: dict = {}
        self.expected: dict = {kind: [] for kind in _EXPECT_KINDS}

    # -- rules: checked after the first word, the kind's words, the indices

    def order_error(self, head: str) -> str | None:
        if head == "manifold":
            return None if self.name is None else "duplicate manifold declaration"
        if self.name is None:
            return "the manifold declaration must come first"
        return None

    def kind_error(self, kind: str) -> str | None:
        if kind == "identity" and self.metric_mode is not None:
            return "metric already declared"
        if kind == "g" and self.metric_mode == "identity":
            return "metric already declared as identity"
        if kind == "xi" and self.xi is not None:
            return "contact xi already declared"
        return None

    def index_error(self, kind: str, idx: tuple) -> str | None:
        if kind == "bracket":
            i, j = idx
            if i == j:
                return "bracket of a frame vector with itself is zero; omit it"
            key = (min(i, j), max(i, j))
            if key in self.bracket_lines:
                return (f"bracket for pair (e{key[0] + 1}, e{key[1] + 1}) "
                        f"already declared on line {self.bracket_lines[key]}")
        elif kind == "g" and tuple(idx) in self.metric_entries:
            return f"metric entry ({idx[0] + 1},{idx[1] + 1}) already declared"
        elif kind == "phi" and idx[0] in self.phi_cols:
            return f"contact phi e{idx[0] + 1} already declared"
        return None

    # -- the two readers of a line -----------------------------------------

    def read_match(self, m, raw: str) -> bool:
        """Read the line raw that _LINE matched as m; False, with nothing
        recorded, where a limit or a rule fails."""
        kind, at = m.lastgroup, m.lastindex + 1
        args, dim = m.groups("")[at - 1:], self.dim
        fields, value, source = (), (), None  # metric identity
        if kind == "vector":  # kind word, frame indices, value, source
            kind, idx = args[0] or args[1] or args[2], _INTEGER.findall(args[3])
            if len(idx) != _INDICES[kind]:
                return False
            fields = [_index(k, dim) for k in idx]
            value, source = _vector(args[4], dim), args[5]
        elif kind == "rational":  # kind word, indices, value, source
            kind, fields = args[0] or args[1], (_index(args[2], dim),
                                                _index(args[3], dim))
            value, source = _number(*args[4:7]), args[7]
        elif kind == "manifold":  # its name and dimension, -1 if out of range
            fields = (args[0], _index(args[1], MAX_DIM) + 1 or -1)
        elif kind == "param":
            fields = args[:1]
        elif kind == "blank":
            return True
        if (value is None or -1 in fields or self.order_error(kind)
                or self.kind_error(kind) or self.index_error(kind, fields)):
            return False
        if kind == "lambda":  # from the =, on the line up to source
            sc = _Scanner(raw[:m.end(at)].rstrip(), self.lineno)
            sc.pos = m.start(at)
            value, source = sc.scalar(), args[1]
        self.record(kind, fields, value, source)
        return True

    def read_tokens(self, sc: _Scanner):
        """Read the line of sc one token at a time; ParseError at the first
        token that breaks the grammar or a rule."""
        dim = self.dim
        head = sc.word()
        if msg := self.order_error(head):
            sc.error(msg, None if head == "manifold" else 0)
        if head == "manifold":
            name = sc.word()
            sc.keyword("dim")
            dim_pos = sc.skip_ws()
            dim = sc.integer()
            if _index(sc.text[dim_pos:sc.pos], MAX_DIM) < 0:
                if dim < 1:
                    sc.error("dimension must be positive")
                sc.error(f"dimension {dim} exceeds the limit {MAX_DIM}", dim_pos)
            sc.end()
            self.record(head, (name, dim))
            return
        if head == "param":
            name = sc.word()
            sc.end()
            self.record(head, (name,))
            return
        source = None
        if head == "bracket":
            kind = head
            idx = (sc.basis_index(dim), sc.basis_index(dim))
        elif head == "metric":
            kind = sc.peek_word()
            if kind not in ("identity", "g"):
                sc.error("expected 'identity' or 'g'")
            sc.word()
            if msg := self.kind_error(kind):
                sc.error(msg)
            if kind == "identity":
                sc.end()
                self.record(kind, ())
                return
            idx = (sc.index_1based(dim), sc.index_1based(dim))
        elif head == "contact":
            kind = sc.word()
            if kind not in ("xi", "phi"):
                sc.error("expected 'xi' or 'phi'")
            if msg := self.kind_error(kind):
                sc.error(msg)
            idx = (sc.basis_index(dim),) if kind == "phi" else ()
        elif head == "expect":
            # The kind follows blanks or tabs and precedes whitespace; the
            # rest is read up to the source clause.
            start = sc.pos
            clause = re.search(_SOURCE + r"\s*$", sc.text)
            kind = sc.peek_word() if clause and sc.skip_ws() > start else ""
            sc.pos += len(kind)
            if (kind not in _EXPECT_KINDS
                    or not sc.text[sc.pos:sc.pos + 1].isspace()):
                sc.error("malformed expect line; need = <value> source \"...\"",
                         start)
            sc.text, source = sc.text[:clause.start()].rstrip(), clause.group(1)
            read = sc.index_1based if kind == "ricci" else sc.basis_index
            idx = tuple(read(dim) for _ in range(_INDICES[kind]))
        else:
            sc.error(f"unknown statement {head!r}", 0)
        if msg := self.index_error(kind, idx):
            sc.error(msg)
        sc.char("=")
        if kind in ("g", "ricci"):
            value = sc.signed_rational()
            sc.end()
        elif kind == "lambda":
            value = sc.scalar()  # as parse_scalar reads it
        else:
            value = _vector_by_tokens(sc, dim)
        self.record(kind, idx, value, source)

    def record(self, kind: str, fields: tuple, value=None, source=None):
        """Store a statement whose head, rules and value passed: fields are
        the name and dimension of a manifold line, the name of a param
        line, else the 0-based indices."""
        if kind == "manifold":
            self.name, self.dim = fields
        elif kind == "param":
            self.params.append(fields[0])
        elif kind == "identity":
            self.metric_mode = "identity"
        elif kind == "g":
            i, j = fields
            self.metric_mode = "entries"
            self.metric_entries[i, j] = self.metric_entries[j, i] = value
        elif kind in _EXPECT_KINDS:
            self.expected[kind].append((*fields, value, source))
        elif kind == "bracket":
            i, j = fields
            self.bracket_lines[min(i, j), max(i, j)] = self.lineno
            if value:
                self.brackets[i, j] = value
                self.brackets[j, i] = {k: -x for k, x in value.items()}
        elif kind == "xi":
            self.xi = value
        else:
            self.phi_cols[fields[0]] = value

    def document(self) -> ManifoldDocument:
        """The document the statements describe, its tables in final order,
        after the checks that need the whole file; their errors are at the
        line after the last."""
        end = self.lineno + 1
        if self.name is None:
            raise ParseError(end, 1, "missing manifold declaration")
        if self.metric_mode is None:
            raise ParseError(end, 1, "missing metric declaration")
        dim, identity = self.dim, self.metric_mode == "identity"
        g = {j: {j: 1} if identity else {} for j in range(dim)}
        for (i, j), x in sorted(self.metric_entries.items()):
            if x:
                g[j][i] = x
        M = FrameManifold.given(self.name, dim, integer_rows(dict(sorted(
            self.brackets.items()))), integer_rows(g), self.params)
        for lam, _src in self.expected["lambda"]:
            extra = lam.symbols() - M.params
            if extra:
                raise ParseError(end, 1, f"expected lambda uses undeclared "
                                         f"parameter {sorted(extra)[0]!r}")
        contact = None
        if self.phi_cols and self.xi is None:
            raise ParseError(end, 1, "contact phi requires contact xi")
        if self.xi is not None:
            zero, xi = Fraction(0), self.xi
            contact = AlmostContactData(self.phi_cols, tuple(
                as_fraction(xi[a]) if a in xi else zero for a in range(dim)))
        return ManifoldDocument(M, contact, ExpectedValues(
            *map(tuple, self.expected.values())))


def parse_vector_text(text: str, dim: int) -> FrameVector:
    m = re.fullmatch(_VECTOR_EXPR + r"[ \t]*", text)
    v = _vector(m.group(1) or "", dim) if m else None
    return vector_of(dim, _vector_by_tokens(_Scanner(text, 1), dim)
                     if v is None else v)


def parse_manifold(text: str) -> ManifoldDocument:
    """Parse the manifold file grammar. Grammar violations raise ParseError
    with a line and column; the described geometry is not judged here beyond
    shape, so files for validate-rejected manifolds still parse."""
    doc = _Document()
    for doc.lineno, raw in enumerate(_lines(text), start=1):
        m = _LINE(raw)
        if not (m and doc.read_match(m, raw)):
            doc.read_tokens(_Scanner(re.match(_CODE, raw)[0].rstrip(), doc.lineno))
    return doc.document()


def render_manifold(doc: ManifoldDocument) -> str:
    """Canonical text for a document; parse(render(doc)) == doc."""
    M = doc.manifold
    lines = [f"manifold {M.name} dim {M.dim}"]
    for p in sorted(M.params - {"p"}):
        lines.append(f"param {p}")
    for (i, j), row in M.brackets.items():
        if i < j:
            lines.append(f"bracket e{i + 1} e{j + 1} = {render_vector(row)}")
    upper = sorted((i, j, x) for j, col in M.g_cols.items()
                   for i, x in col.items() if i <= j)
    if all(col == {j: 1} for j, col in M.g_cols.items()):
        lines.append("metric identity")
    else:
        for i, j, x in upper:
            lines.append(f"metric g {i + 1} {j + 1} = {format_rational(x)}")
        if not upper:  # degenerate all-zero metric still needs a statement
            lines.append("metric g 1 1 = 0")
    if doc.contact is not None:
        lines.append(f"contact xi = {render_vector(dict(enumerate(doc.contact.xi)))}")
        for j, col in doc.contact.phi_cols.items():
            if col:
                lines.append(f"contact phi e{j + 1} = {render_vector(col)}")
    for kind, entries in (("nabla", doc.expected.nabla),
                          ("riem", doc.expected.riem)):
        for *idx, v, src in entries:
            frames = " ".join(f"e{i + 1}" for i in idx)
            lines.append(f"expect {kind} {frames} = {render_vector(v)} "
                         f"source \"{src}\"")
    for i, j, q, src in doc.expected.ricci:
        lines.append(f"expect ricci {i + 1} {j + 1} = {format_rational(q)} "
                     f"source \"{src}\"")
    for lam, src in doc.expected.lam:
        lines.append(f"expect lambda = {lam.render()} source \"{src}\"")
    return "\n".join(lines) + "\n"
