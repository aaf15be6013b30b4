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
may be declared at most once per unordered pair. The brackets, the metric
entries and the phi columns go to FrameManifold and AlmostContactData as
sparse tables; no m x m matrix is built. Expected values are audit data:
they never feed computation, they only populate discrepancy ledgers, so
repeated or contradictory expect lines are legal.

A line ends at \\n, \\r\\n or \\r, as open() in text mode ends it; other
characters str.splitlines() breaks at (\\x0c, \\x85, \\u2028, ...) stay in
the line. Each statement is recognised by one anchored match of
_STATEMENT over its head and indices, up to the = (over the whole line
for manifold, param and metric identity), with blanks and tabs between
tokens. Its value is read by the term readers: a vector-expr one term per
match of _VECTOR_TERM, a rational by one match of _RATIONAL, an expect
lambda scalar-expr by Scanner.scalar with any whitespace, as parse_scalar
reads it. The value of an expect line ends before the trailing source
clause.

A line the pattern rejects, or whose indices or declarations fail their
checks, is read again by the token methods of _Scanner, a subclass of
scalars.Scanner, from the start of the line. They raise ParseError at the
line and column of the offending token; no line that parses goes through
them. Both ways check a statement by the same rules and record it by the
same code, the methods of _Document.
"""
from __future__ import annotations

import re
from fractions import Fraction

from .contact import AlmostContactData
from .geometry import FrameManifold, FrameVector, vector_of
from .record import Record
from .scalars import (_ONE, MAX_DIGITS, Scanner, _coefficient,
                      format_rational)

# Largest accepted dimension. Brackets, the metric and phi are stored sparse,
# but the one elimination of the metric works on dense m x m integer rows,
# so the declared dimension alone sets a floor on the cost of a command.
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
        if _index(m.group(1), dim) < 0:
            self.error(f"frame index e{k} out of range 1..{dim}", start)
        return k - 1

    def index_1based(self, dim: int) -> int:
        start = self.skip_ws()
        k = self.integer()
        if _index(self.text[start:self.pos], dim) < 0:
            self.error(f"index {k} out of range 1..{dim}", start)
        return k - 1


# One term of a vector-expr, sign* [rational [*]] e<k>. Groups: 1 the signs,
# 2 and 3 the numerator and denominator, 4 the frame index.
_VECTOR_TERM = re.compile(r"((?:[ \t]*[+-])*)[ \t]*(?:(\d+)(?:[ \t]*/[ \t]*(\d+))?"
                          r"[ \t]*(?:\*[ \t]*)?)?e(\d+)").match


def _index(digits: str, bound: int) -> int:
    """The 0-based index of a 1-based literal a pattern matched, or -1 when
    it is out of 1..bound or over MAX_DIGITS digits."""
    k = int(digits) if len(digits) <= MAX_DIGITS else 0
    return k - 1 if 1 <= k <= bound else -1


def _parse_vector(sc: _Scanner, dim: int) -> dict:
    """The nonzero coefficients {k: Fraction} of the vector-expr that fills
    the rest of sc's text, read one term per match. A term is taken when
    the end of the text or a sign follows it."""
    text, ws = sc.text, sc._ws
    n = len(text)
    p = ws(text, sc.pos).end()
    if text.startswith("0", p) and ws(text, p + 1).end() == n:  # bare zero
        sc.pos = n
        return {}
    coeffs: dict = {}
    first = True
    while m := _VECTOR_TERM(text, sc.pos):
        signs, num, den, k = m.groups()
        q = _coefficient(signs, num, den)
        k = _index(k, dim)
        p = ws(text, m.end()).end()
        if q is None or k < 0 or p < n and text[p] not in "+-":
            break
        coeffs[k] = coeffs[k] + q if k in coeffs else q
        sc.pos = p
        first = False
        if p == n:
            return {k: x for k, x in coeffs.items() if x}
    return _vector_by_tokens(sc, dim, coeffs, first)


def _vector_by_tokens(sc: _Scanner, dim: int, coeffs: dict, first: bool) -> dict:
    """_parse_vector one token at a time from the start of a term: the first
    of the text when first, else a term after the ones in coeffs."""
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

# The number of indices in the head of each statement kind with indices.
_INDICES = {"bracket": 2, "identity": 0, "g": 2, "xi": 0, "phi": 1,
            "ricci": 2, "nabla": 2, "riem": 3, "lambda": 0}

# A signed rational that ends the text: the value of a metric g or an
# expect ricci line. Groups as _VECTOR_TERM's 1 to 3.
_RATIONAL = re.compile(r"((?:[ \t]*[+-])*)[ \t]*(\d+)(?:[ \t]*/[ \t]*(\d+))?"
                       r"[ \t]*$").match


def _statement_pattern():
    r"""The match function of a statement head, each kind a named group: a
    whole line for manifold, param and metric identity, up to the = for the
    others. Where two tokens would merge without a blank between them, or
    the token reader needs whitespace after an expect kind, [ \t]+
    separates them, else [ \t]*. A kind's capture groups follow its named
    group, so m.groups()[m.lastindex:] starts with them."""
    b, e, name = "[ \t]", r"e(\d+)", r"([A-Za-z_][A-Za-z_0-9]*)"
    heads = {
        "manifold": rf"manifold{b}+{name}{b}+dim{b}+(\d+)$",
        "param": rf"param{b}+{name}$",
        "bracket": rf"bracket{b}+{e}{b}*{e}{b}*=",
        "identity": rf"metric{b}+identity$",
        "g": rf"metric{b}+g{b}+(\d+){b}+(\d+){b}*=",
        "xi": rf"contact{b}+xi{b}*=",
        "phi": rf"contact{b}+phi{b}+{e}{b}*=",
        "ricci": rf"expect{b}+ricci{b}+(\d+){b}+(\d+){b}*=",
        "nabla": rf"expect{b}+nabla{b}+{e}{b}*{e}{b}*=",
        "riem": rf"expect{b}+riem{b}+{e}{b}*{e}{b}*{e}{b}*=",
        "lambda": rf"expect{b}+lambda{b}+=",
    }
    return re.compile(f"{b}*(?:" + "|".join(
        f"(?P<{kind}>{head})" for kind, head in heads.items()) + ")").match


_STATEMENT = _statement_pattern()


def _rational(sc: _Scanner) -> Fraction:
    """The signed rational that fills the rest of sc's text, by one match
    of _RATIONAL, or by the token methods where that is rejected."""
    m = _RATIONAL(sc.text, sc.pos)
    if m and (q := _coefficient(*m.groups())) is not None:
        sc.pos = m.end()
        return q
    q = sc.signed_rational()
    sc.end()
    return q


def _lines(text: str) -> list:
    r"""The lines of text, each ended by \n, \r\n or \r as open() in text
    mode ends them, and by no other character (str.splitlines also ends
    lines at \x0b, \x0c, \x1c-\x1e, \x85, \u2028 and \u2029)."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


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


class _Document:
    """The statements of a manifold file read so far.

    A line is read by read_match where _STATEMENT matches its head, else by
    read_tokens. Both check a statement by the same rules, each a method
    that returns the message of the error the statement makes or None, and
    both hand it to record, which reads its value with the term readers
    and stores it. read_match takes a line only where its indices are in
    range and every rule passes; read_tokens raises a rule's message where
    the token that breaks it ends, and a grammar error at its token."""

    def __init__(self):
        self.name = None
        self.dim = 0
        self.params: list = []
        self.brackets: dict = {}  # {(i, j): {k: Fraction}}, i < j
        self.bracket_lines: dict = {}
        self.metric_mode = None  # None | "identity" | "entries"
        self.metric_entries: dict = {}
        self.xi = None
        self.phi_cols: dict = {}
        self.nabla: list = []
        self.riem: list = []
        self.ricci: list = []
        self.lam: list = []

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
            if key in self.brackets:
                return (f"bracket for pair (e{key[0] + 1}, e{key[1] + 1}) "
                        f"already declared on line {self.bracket_lines[key]}")
        elif kind == "g" and tuple(idx) in self.metric_entries:
            return f"metric entry ({idx[0] + 1},{idx[1] + 1}) already declared"
        elif kind == "phi" and idx[0] in self.phi_cols:
            return f"contact phi e{idx[0] + 1} already declared"
        return None

    # -- the two readers of a line -----------------------------------------

    def read_match(self, m, sc: _Scanner) -> bool:
        """Read the line of sc whose head m matched; False, with nothing
        recorded, where an index is out of range or a rule fails."""
        kind = m.lastgroup
        args = m.groups()[m.lastindex:]
        if kind == "manifold":
            k = _index(args[1], MAX_DIM)
            fields = (args[0], k + 1) if k >= 0 else None
        elif kind == "param":
            fields = args[:1]
        else:
            fields = [_index(k, self.dim) for k in args[:_INDICES[kind]]]
            if min(fields, default=0) < 0:
                return False
        if (fields is None or self.order_error(kind) or self.kind_error(kind)
                or self.index_error(kind, fields)):
            return False
        source = None
        if kind in _EXPECT_KINDS:
            clause = _SOURCE.search(sc.text, m.end())
            if not clause:
                return False
            sc.text, source = sc.text[:clause.start()].rstrip(), clause.group(1)
        sc.pos = m.end()
        self.record(kind, fields, sc, source)
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
            self.record(head, (name, dim), sc)
            return
        if head == "param":
            name = sc.word()
            sc.end()
            self.record(head, (name,), sc)
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
                self.record(kind, (), sc)
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
            clause = _SOURCE.search(sc.text)
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
        self.record(kind, idx, sc, source)

    def record(self, kind: str, fields: tuple, sc: _Scanner, source=None):
        """Store a statement whose head and rules passed: fields are the
        name and dimension of a manifold line, the name of a param line,
        else the 0-based indices; the value is read from sc's position."""
        if kind == "manifold":
            self.name, self.dim = fields
        elif kind == "param":
            self.params.append(fields[0])
        elif kind == "identity":
            self.metric_mode = "identity"
        elif kind == "g":
            i, j = fields
            self.metric_mode = "entries"
            self.metric_entries[i, j] = self.metric_entries[j, i] = _rational(sc)
        elif kind == "ricci":
            self.ricci.append((*fields, _rational(sc), source))
        elif kind == "lambda":
            self.lam.append((sc.scalar(), source))  # as parse_scalar reads it
        else:
            v = _parse_vector(sc, self.dim)
            if kind == "bracket":
                i, j = fields
                key = (min(i, j), max(i, j))
                self.brackets[key] = v if i < j else {k: -x for k, x in v.items()}
                self.bracket_lines[key] = sc.lineno
            elif kind == "xi":
                self.xi = v
            elif kind == "phi":
                self.phi_cols[fields[0]] = v
            else:
                (self.nabla if kind == "nabla" else self.riem).append(
                    (*fields, vector_of(self.dim, v), source))

    def document(self, last_line: int) -> ManifoldDocument:
        """The document the statements describe, after the checks that need
        the whole file; their errors are at the line after the last."""
        if self.name is None:
            raise ParseError(last_line + 1, 1, "missing manifold declaration")
        if self.metric_mode is None:
            raise ParseError(last_line + 1, 1, "missing metric declaration")
        dim = self.dim
        g = self.metric_entries if self.metric_mode == "entries" else None  # identity
        M = FrameManifold.from_brackets(self.name, dim, self.brackets, g,
                                        self.params)
        for lam, _src in self.lam:
            extra = lam.symbols() - M.params
            if extra:
                raise ParseError(last_line + 1, 1,
                                 f"expected lambda uses undeclared parameter "
                                 f"{sorted(extra)[0]!r}")
        contact = None
        if self.phi_cols and self.xi is None:
            raise ParseError(last_line + 1, 1, "contact phi requires contact xi")
        if self.xi is not None:
            zero = Fraction(0)
            contact = AlmostContactData(self.phi_cols, tuple(
                self.xi.get(a, zero) for a in range(dim)))
        expected = ExpectedValues(tuple(self.nabla), tuple(self.riem),
                                  tuple(self.ricci), tuple(self.lam))
        return ManifoldDocument(M, contact, expected)


def parse_manifold(text: str) -> ManifoldDocument:
    """Parse the manifold file grammar. Grammar violations raise ParseError
    with a line and column; the described geometry is not judged here beyond
    shape, so files for validate-rejected manifolds still parse."""
    doc = _Document()
    last_line = 0
    for lineno, raw in enumerate(_lines(text), start=1):
        last_line = lineno
        line = _strip_comment(raw).rstrip()
        if not line:
            continue
        sc = _Scanner(line, lineno)
        m = _STATEMENT(line)
        if not (m and doc.read_match(m, sc)):
            doc.read_tokens(sc)
    return doc.document(last_line)


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
