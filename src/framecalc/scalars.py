"""Exact scalar arithmetic: rationals, sparse polynomials in named parameters,
and the printed form of a linear equation in one unknown (LinearForm).

Rationals are stdlib fractions.Fraction (arbitrary precision, auto-normalized
to lowest terms with positive denominator); no floats anywhere.

ParamScalar holds what the soliton layer, the parser and the reports use:
+, -, * and division by a constant, the queries they read (is_constant,
constant_value, symbols, affine_in, terms) and render. A power p^k enters
only as a parsed monomial; nothing evaluates a scalar at a point.

A ParamScalar has one canonical form: a dict from monomials to coefficients
in which every monomial is a sorted tuple of (symbol, exponent) pairs with
exponents >= 1 (the empty tuple is the constant monomial) and every
coefficient is a nonzero Fraction. Equal polynomials therefore have equal
dicts and equal hashes. The constructor makes each monomial canonical
(canonical_monomial, as the parser does), adds the coefficients of equal
ones and drops zeros; ParamScalar._of takes canonical terms as they are.
Arithmetic on canonical operands has canonical results, so +, -, *, / and rational
build theirs with _of: coefficients are merged and zeros dropped, with no
second sort or conversion.
monomial_parts and join_parts move between a map of ParamScalars and its
split by monomial, {monomial: {key: Fraction}}, so that kernels can work on
the rational parts one at a time and build one ParamScalar per entry.

Text is read one term per match of one compiled pattern, _TERM: a term's
Fraction and canonical monomial are built from the groups of the match and
the signed coefficients summed in one {monomial: Fraction} dict, so
parse_scalar (Scanner.scalar) builds one ParamScalar per call, and
parse_rational (the --df and --dlambda components, the grammar of a metric
g entry) is one match. The scalar grammar takes any whitespace between
tokens, the '/' of a rational included. A term is taken only when the end
of the text or a sign follows it. Every blank run has one place in the
pattern, so a match takes time linear in the text. _number turns the
literal groups of a match into a value, here and in manifold_format, so
the digit limit and the zero denominator of every pattern path are one
rule.

Scanner's token methods (peek, word, signs, rational, monomial, ...) read
text one token at a time. They run only on text a pattern rejected, read
again from where the pattern started, so nothing half read passes from
one way to the other; there they word and place the error: malformed text
raises ScalarError with the offset of the offending token and the text.
manifold_format's line scanner is a subclass, with its own whitespace and
errors.
"""
from __future__ import annotations

import re
from fractions import Fraction

from .record import Record

# Monomial: sorted tuple of (symbol, exponent) pairs, exponents >= 1.
# The empty tuple is the constant monomial.
Monomial = tuple


class ScalarError(ValueError):
    pass


# Scanner tokens, matched in place at the scan position.
_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_WORD = re.compile(_NAME)
_INTEGER = re.compile(r"\d+")

# One term of the scalar grammar, sign* (coeff [[*] mono] | mono), with any
# whitespace before each token. Groups: 1 the signs, 2 and 3 the numerator
# and denominator, 4 and 5 the first name and its exponent, 6 the other
# factors. Every part after the signs is optional, so it always matches; an
# empty term has neither group 2 nor group 4. Each blank run has one place
# in the pattern, \s* before a '*', '/' or '^' and \s* after it: an
# optional '*' between two \s* would split a run in as many ways as it is
# long, and a match would take time quadratic in the run.
_TERM = re.compile(
    r"((?:\s*[+-])*)\s*"
    r"(?:(\d+)(?:\s*/\s*(\d+))?(?:\s*(?:\*\s*)?(?=[A-Za-z_]))?)?"
    rf"(?:({_NAME})(?:\s*\^\s*(\d+))?((?:\s*\*\s*{_NAME}(?:\s*\^\s*\d+)?)*))?"
).match

_ONE = Fraction(1)

# Longest integer literal accepted in scalars and manifold files, in digits;
# Python reads and prints at most 4300 by default.
MAX_DIGITS = 1000


def _number(signs: str, num: str, den: str):
    """The signed value of the groups a pattern matched for a term or a
    rational, "" for a group that took no part: an int, 1 or -1 without
    num, a Fraction for num/den; None where the token methods must word an
    error: a literal over MAX_DIGITS digits or a zero denominator."""
    if len(num) > MAX_DIGITS:
        return None
    a = -int(num or 1) if signs.count("-") & 1 else int(num or 1)
    if not den:
        return a
    d = int(den) if len(den) <= MAX_DIGITS else 0
    return Fraction(a, d) if d else None


def _monomial(name: str, exp: str | None, rest: str) -> Monomial | None:
    """The canonical monomial of a term's factors: the first name and its
    exponent, and the text of the others, '*' NAME ['^' INT] each; None
    when an exponent is over MAX_DIGITS digits."""
    pairs = [(name, exp or "")]
    for factor in rest.split("*")[1:]:
        sym, _, e = factor.partition("^")
        pairs.append((sym.strip(), e.strip()))
    out = []
    for sym, e in pairs:
        if len(e) > MAX_DIGITS:
            return None
        out.append((sym, int(e) if e else 1))
    return canonical_monomial(out)


def format_rational(q: Fraction) -> str:
    """Render an int or a Fraction as "a/b", omitting the denominator when
    it is 1; both hold their lowest terms, so neither is built again."""
    try:
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"
    except ValueError as exc:  # beyond Python's int-to-string digit limit
        raise ScalarError("a computed value has too many digits to print") from exc


def _mono_degree(mono: Monomial) -> int:
    return sum(e for _, e in mono)


def _mono_str(mono: Monomial) -> str:
    parts = []
    for sym, exp in mono:
        parts.append(sym if exp == 1 else f"{sym}^{exp}")
    return "*".join(parts)


def canonical_monomial(pairs) -> Monomial:
    """The monomial of (symbol, exponent) pairs in canonical form: the
    exponents of a symbol added up, zero sums left out, sorted."""
    exps: dict = {}
    for sym, e in pairs:
        exps[sym] = exps.get(sym, 0) + e
    return tuple(sorted((sym, e) for sym, e in exps.items() if e))


def monomial_product(a: Monomial, b: Monomial) -> Monomial:
    """The canonical monomial a * b."""
    return canonical_monomial(a + b) if a and b else a or b


def as_fraction(x) -> Fraction:
    """x as a Fraction, converted only when it is not one already."""
    return x if type(x) is Fraction else Fraction(x)


def _coerce(value) -> "ParamScalar | None":
    if isinstance(value, ParamScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return ParamScalar.rational(value)
    return None


def _operand(method):
    """method(self, other) on other as a ParamScalar (_coerce), or
    NotImplemented where other is neither a ParamScalar nor a rational."""
    def on_operand(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else method(self, o)
    return on_operand


class ParamScalar:
    """Sparse multivariate polynomial over declared parameters with Fraction
    coefficients, in the canonical form of the module docstring. Immutable;
    arithmetic never loses exactness."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict | None = None):
        """From {monomial: rational} in any form: monomials made canonical,
        the coefficients of equal ones added, zeros dropped."""
        clean: dict = {}
        for mono, coeff in (terms or {}).items():
            mono, c = canonical_monomial(mono), as_fraction(coeff)
            clean[mono] = clean[mono] + c if mono in clean else c
        self._terms = {mono: c for mono, c in clean.items() if c}

    @classmethod
    def _of(cls, terms: dict) -> "ParamScalar":
        """A ParamScalar on terms already in canonical form, taken as given."""
        out = object.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def rational(cls, q) -> "ParamScalar":
        q = as_fraction(q)
        return cls._of({(): q} if q else {})

    @classmethod
    def param(cls, name: str) -> "ParamScalar":
        if not _WORD.fullmatch(name):
            raise ScalarError(f"bad parameter name: {name!r}")
        return cls._of({((name, 1),): Fraction(1)})

    # -- queries ---------------------------------------------------------

    def terms(self) -> dict:
        return dict(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_constant(self) -> bool:
        return all(mono == () for mono in self._terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ScalarError(f"not a constant scalar: {self}")
        return self._terms.get((), Fraction(0))

    def symbols(self) -> frozenset:
        return frozenset(sym for mono in self._terms for sym, _ in mono)

    def affine_in(self, sym: str) -> tuple:
        """Return (a, b) with self == a*sym + b, both Fractions.

        Raises if self has degree > 1 or involves any other symbol.
        """
        a = Fraction(0)
        b = Fraction(0)
        for mono, coeff in self._terms.items():
            if mono == ():
                b = coeff
            elif mono == ((sym, 1),):
                a = coeff
            else:
                raise ScalarError(f"not affine in {sym}: {self}")
        return a, b

    # -- arithmetic ------------------------------------------------------

    @_operand
    def __add__(self, o):
        terms = dict(self._terms)
        for mono, coeff in o._terms.items():
            if mono in terms:
                c = terms[mono] + coeff
                if c:
                    terms[mono] = c
                else:
                    del terms[mono]
            else:
                terms[mono] = coeff
        return ParamScalar._of(terms)

    __radd__ = __add__

    def __neg__(self):
        return ParamScalar._of({m: -c for m, c in self._terms.items()})

    @_operand
    def __sub__(self, o):
        return self + (-o)

    @_operand
    def __rsub__(self, o):
        return o + (-self)

    @_operand
    def __mul__(self, o):
        terms: dict = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in o._terms.items():
                m = monomial_product(m1, m2)
                terms[m] = terms[m] + c1 * c2 if m in terms else c1 * c2
        return ParamScalar._of({m: c for m, c in terms.items() if c})

    __rmul__ = __mul__

    @_operand
    def __truediv__(self, o):
        if not o.is_constant():
            raise ScalarError(f"division by non-constant scalar: {o}")
        q = o.constant_value()
        if q == 0:
            raise ScalarError("division by zero")
        return ParamScalar._of({m: c / q for m, c in self._terms.items()})

    @_operand
    def __eq__(self, o):
        return self._terms == o._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    # -- rendering -------------------------------------------------------

    def render(self) -> str:
        """Canonical text form: terms in degree-then-lexicographic order,
        e.g. "1/2*p + 9/5"; negative coefficients stay inside their term."""
        if not self._terms:
            return "0"
        keyed = sorted(self._terms.items(),
                       key=lambda kv: (-_mono_degree(kv[0]), _mono_str(kv[0])))
        parts = []
        for mono, coeff in keyed:
            if mono == ():
                parts.append(format_rational(coeff))
            elif coeff == 1:
                parts.append(_mono_str(mono))
            elif coeff == -1:
                parts.append("-" + _mono_str(mono))
            else:
                parts.append(format_rational(coeff) + "*" + _mono_str(mono))
        return " + ".join(parts)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"ParamScalar({self.render()!r})"


ZERO = ParamScalar()


def monomial_parts(values: dict) -> dict:
    """{monomial: {key: Fraction}}: a map of ParamScalars or rationals split
    by monomial, so values[key] is the sum over the monomials of coefficient
    times monomial. Zero coefficients are left out."""
    parts: dict = {}
    for key, v in values.items():
        if isinstance(v, ParamScalar):
            for mono, c in v._terms.items():
                parts.setdefault(mono, {})[key] = c
        elif v:
            parts.setdefault((), {})[key] = as_fraction(v)
    return parts


def join_parts(parts: dict) -> dict:
    """{key: ParamScalar} from monomial parts {monomial: {key: Fraction}}
    whose monomials are canonical, as monomial_parts and monomial_product
    give them; one ParamScalar per key, zero coefficients dropped."""
    terms: dict = {}
    for mono, part in parts.items():
        for key, c in part.items():
            if c:
                terms.setdefault(key, {})[mono] = as_fraction(c)
    return {key: ParamScalar._of(t) for key, t in terms.items()}


# -- parsing ---------------------------------------------------------------

class Scanner:
    """Reads text in place, one token at a time after the whitespace before
    it: any whitespace here, a subclass may narrow _ws. scalar reads one
    term per match of _TERM. error raises ScalarError with the offset and
    the text; manifold_format's line scanner raises its ParseError
    instead."""

    _ws = re.compile(r"\s*").match

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str, pos: int | None = None):
        p = self.pos if pos is None else pos
        raise ScalarError(f"{msg} at offset {p} in scalar {self.text!r}")

    def skip_ws(self) -> int:
        self.pos = p = self._ws(self.text, self.pos).end()
        return p

    def eof(self) -> bool:
        return self.skip_ws() >= len(self.text)

    def end(self):
        """Require that nothing but whitespace is left."""
        if not self.eof():
            self.error("trailing text")

    # -- readers by pattern ------------------------------------------------

    def scalar(self) -> ParamScalar:
        """The rest of the text in the scalar grammar:

            expr  := sign* term { sign+ term }
            term  := coeff [ ['*'] mono ] | mono
            coeff := INT [ '/' INT ]
            mono  := NAME [ '^' INT ] { '*' NAME [ '^' INT ] }

        A term is taken when the end of the text or a sign follows it. The
        grammar takes any whitespace, also in a subclass's text. Text the
        pattern rejects is read again from the start by the token methods,
        which word the error."""
        self._ws = ws = Scanner._ws
        text = self.text
        n, p = len(text), self.pos
        terms: dict = {}  # {monomial: Fraction}, summed over the terms
        while True:
            m = _TERM(text, p)
            signs, num, den, name, exp, rest = m.groups("")
            coeff = _number(signs, num, den)
            if not name:
                mono = () if num else None
            elif exp or rest:
                mono = _monomial(name, exp, rest)
            else:
                mono = ((name, 1),)
            if coeff is None or mono is None:
                break
            if (p := m.end()) < n:
                p = ws(text, p).end()
                if p < n and text[p] not in "+-":
                    break
            if type(coeff) is int:
                coeff = Fraction(coeff)
            terms[mono] = terms[mono] + coeff if mono in terms else coeff
            if p == n:
                self.pos = p
                return ParamScalar._of({m: c for m, c in terms.items() if c})
        return self._scalar_by_tokens()

    # -- token methods: they word and place the errors of rejected text ------

    def peek(self) -> str:
        p = self.skip_ws()
        return self.text[p:p + 1]

    def peek_word(self) -> str:
        m = _WORD.match(self.text, self.skip_ws())
        return m.group(0) if m else ""

    def word(self, what: str = "an identifier") -> str:
        m = _WORD.match(self.text, self.skip_ws())
        if not m:
            self.error(f"expected {what}")
        self.pos = m.end()
        return m.group(0)

    def keyword(self, lit: str):
        start = self.pos
        w = self.word()
        if w != lit:
            self.error(f"expected {lit!r}, found {w!r}", start)

    def char(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def signs(self) -> bool:
        """Read a run of + and - signs; True when it negates."""
        negative = False
        while (ch := self.peek()) in ("+", "-"):
            negative ^= ch == "-"
            self.pos += 1
        return negative

    def literal(self, m, group: int) -> int:
        """The integer literal in group of the match m, of at most
        MAX_DIGITS digits."""
        digits = m.group(group)
        if len(digits) > MAX_DIGITS:
            self.error(f"integer literal of {len(digits)} digits exceeds "
                       f"the limit of {MAX_DIGITS}", m.start(group))
        return int(digits)

    def integer(self) -> int:
        m = _INTEGER.match(self.text, self.skip_ws())
        if not m:
            self.error("expected an integer")
        value = self.literal(m, 0)
        self.pos = m.end()
        return value

    def rational(self) -> Fraction:
        """INT [ '/' INT ], with the whitespace of _ws around the '/'."""
        start = self.skip_ws()
        m = _INTEGER.match(self.text, start)
        if not m:
            self.error("expected a rational number")
        num = self.literal(m, 0)
        self.pos = m.end()
        if self.peek() != "/":
            return Fraction(num)
        self.pos += 1
        m = _INTEGER.match(self.text, self.skip_ws())
        if not m:
            self.error("expected an integer denominator")
        den = self.literal(m, 0)
        self.pos = m.end()
        if den == 0:
            self.error("zero denominator", start)
        return Fraction(num, den)

    def signed_rational(self) -> Fraction:
        negative = self.signs()
        q = self.rational()
        return -q if negative else q

    def monomial(self, what: str) -> Monomial:
        """NAME [^INT] {* NAME [^INT]} as a canonical monomial
        (canonical_monomial); what names the token expected first."""
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

    def _scalar_by_tokens(self) -> ParamScalar:
        """scalar, one token at a time from the scan position."""
        terms: dict = {}
        first = True
        while first or not self.eof():
            if not first and self.text[self.pos] not in "+-":
                self.error("expected '+' or '-' between terms")
            first = False
            negative = self.signs()
            mono = ()
            if self.peek().isdigit():
                coeff = self.rational()
                ch = self.peek()
                if ch == "*":
                    self.pos += 1
                if ch == "*" or ch == "_" or ch.isalpha():  # "2*p" or "2p"
                    mono = self.monomial("a parameter name")
            else:
                coeff = _ONE
                mono = self.monomial("a term")
            if negative:
                coeff = -coeff
            terms[mono] = terms[mono] + coeff if mono in terms else coeff
        return ParamScalar._of({m: c for m, c in terms.items() if c})


def parse_scalar(text: str) -> ParamScalar:
    """Parse the scalar grammar, e.g. "1/2*p + 9/5" or "p^2 + -1"."""
    return Scanner(text).scalar()


def parse_rational(text: str) -> Fraction:
    """Parse sign* a [/ b] with unsigned integers a, b != 0, the grammar of
    a metric g entry, e.g. "-9/6" or "--2", as one match of _TERM."""
    m = _TERM(text)
    signs, num, den, name = m.groups("")[:4]
    if num and not name and Scanner._ws(text, m.end()).end() == len(text):
        q = _number(signs, num, den)
        if q is not None:
            return as_fraction(q)
    sc = Scanner(text)
    q = sc.signed_rational()
    sc.end()
    return q


# -- linear forms ------------------------------------------------------------

class LinearForm(Record):
    """coefficient * unknown + remainder == 0; the unknown is implicit."""

    def __init__(self, coefficient: Fraction, remainder: ParamScalar):
        self.coefficient = coefficient
        self.remainder = remainder

    def equation_str(self, unknown: str = "lambda") -> str:
        return f"{format_rational(self.coefficient)}*{unknown} = {(-self.remainder).render()}"
