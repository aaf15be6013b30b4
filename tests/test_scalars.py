"""Exact scalar arithmetic, parsing, rendering, and linear solving."""
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from frames import MALFORMED_SCALARS, scalar_texts
from readers import token_reads
from framecalc.manifold_format import ParseError, parse_manifold
from framecalc.scalars import (MAX_DIGITS, ZERO, EvaluationError,
                               LinearForm, ParamScalar, ScalarError,
                               format_rational, parse_rational, parse_scalar)

P = ParamScalar.param("p")
Q = ParamScalar.param("q")
R = ParamScalar.param("r")

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12)


def scalars():
    const = rationals.map(ParamScalar.rational)
    lin = st.builds(lambda a, b: P * a + Q * b, rationals, rationals)
    return st.builds(lambda c, l, q: c + l + P * Q * q, const, lin, rationals)


# -- rationals ---------------------------------------------------------------

def test_format_rational():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-5, 2)) == "-5/2"
    assert format_rational(Fraction(4, 8)) == "1/2"
    assert format_rational(Fraction(0)) == "0"
    assert format_rational(-7) == "-7" and format_rational(0) == "0"


def test_format_rational_builds_no_fraction(monkeypatch):
    """An int or a Fraction is printed from its own numerator and
    denominator, without building a Fraction again."""
    values, built = [Fraction(-5, 2), Fraction(3), 7, Fraction(1, 10 ** 40)], []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", staticmethod(
        lambda cls, *args, **kw: built.append(args) or new(cls, *args, **kw)))
    assert [format_rational(q) for q in values] == \
        ["-5/2", "3", "7", "1/" + "1" + "0" * 40]
    assert built == []


def metric_entry(text: str) -> Fraction:
    doc = parse_manifold(f"manifold t dim 1\nmetric g 1 1 = {text}\n")
    return doc.manifold.g[0][0]


def test_parse_rational():
    """--df and --dlambda components read as a metric g entry reads them:
    sign runs multiply out, a denominator takes no sign."""
    assert parse_rational("7") == 7
    assert parse_rational("-9/6") == Fraction(-3, 2)
    assert parse_rational(" 5 / 10 ") == Fraction(1, 2)
    with pytest.raises(ScalarError):
        parse_rational("1/0")
    with pytest.raises(ScalarError):
        parse_rational("x")
    with pytest.raises(ScalarError):
        parse_rational("1.5")
    for text, value in (("--2", 2), ("+-1/2", Fraction(-1, 2))):
        assert parse_rational(text) == value == metric_entry(text)
    for text in ("1/-2", "1/+2"):
        with pytest.raises(ScalarError, match="denominator at offset 2 "):
            parse_rational(text)
        with pytest.raises(ParseError, match="col 18: expected an integer "
                                             "denominator"):
            metric_entry(text)


def test_literal_digit_limit():
    edge, over = "7" * MAX_DIGITS, "7" * (MAX_DIGITS + 1)
    assert parse_rational(f"-{edge}/3") == Fraction(-int(edge), 3)
    assert parse_scalar(f"{edge}*p").affine_in("p") == (int(edge), 0)
    for bad in (lambda: parse_rational(over), lambda: parse_rational(f"1/{over}"),
                lambda: parse_scalar(f"p + {over}")):
        with pytest.raises(ScalarError, match="exceeds the limit of 1000"):
            bad()
    with pytest.raises(ScalarError, match="too many digits to print"):
        format_rational(Fraction(1, 10 ** 5000))


# -- construction and queries -------------------------------------------------

def test_constant_queries():
    c = ParamScalar.rational(Fraction(3, 4))
    assert c.is_constant() and not c.is_zero()
    assert c.constant_value() == Fraction(3, 4)
    assert c.symbols() == frozenset()
    assert ParamScalar.rational(0).is_zero()
    assert c and P - P + 1 and not ParamScalar.rational(0) and not P - P


def test_param_queries():
    s = P / 2 + Fraction(9, 5)
    assert not s.is_constant()
    assert s.symbols() == {"p"}
    assert s.degree() == 1
    with pytest.raises(ScalarError):
        s.constant_value()


def test_affine_in():
    assert (P / 2 + Fraction(9, 5)).affine_in("p") == (Fraction(1, 2),
                                                       Fraction(9, 5))
    assert ParamScalar.rational(4).affine_in("p") == (0, 4)
    with pytest.raises(ScalarError):
        (P * P).affine_in("p")
    with pytest.raises(ScalarError):
        (P + Q).affine_in("p")


def test_evaluate():
    s = P / 2 + Fraction(9, 5)
    assert s.evaluate({"p": 2}) == Fraction(14, 5)
    assert (P * Q - 1).evaluate({"p": Fraction(1, 2), "q": 4}) == 1
    with pytest.raises(EvaluationError, match="unbound parameter: p"):
        s.evaluate({})


def test_division_by_scalar_constant_only():
    assert (P / ParamScalar.rational(2)) == P / 2
    with pytest.raises(ScalarError):
        P / Q
    with pytest.raises(ScalarError):
        P / 0


@pytest.mark.parametrize("op", [
    lambda: P + "x", lambda: "x" + P, lambda: P * 1.5, lambda: 1.5 * P,
    lambda: P - None, lambda: None - P, lambda: P / "x", lambda: 2 / P])
def test_a_foreign_operand_is_a_type_error(op):
    with pytest.raises(TypeError):
        op()


def test_rational_operands_on_either_side():
    assert not P == 1.5 and not P == "p"
    assert ParamScalar() == Fraction(0)
    assert [str(x) for x in (1 - P, Fraction(1, 2) - P, Fraction(1, 2) * P,
                             P / 2)] == ["-p + 1", "-p + 1/2", "1/2*p", "1/2*p"]


def test_power():
    assert P ** 0 == ParamScalar.rational(1)
    assert P ** 3 == P * P * P
    assert (P + 1) ** 5 == (P + 1) * (P + 1) * (P + 1) * (P + 1) * (P + 1)
    assert (P ** 5000000).terms() == {(("p", 5000000),): 1}
    assert parse_scalar("p^5000000*q^2").terms() == {(("p", 5000000), ("q", 2)): 1}
    assert parse_scalar("p^0") == ParamScalar.rational(1)


# -- ring axioms (property-based) ----------------------------------------------

@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), scalars())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ParamScalar.rational(0) == a
    assert a * ParamScalar.rational(1) == a
    assert (a - a).is_zero()


@settings(max_examples=60, deadline=None)
@given(scalars(), st.fractions(min_value=-4, max_value=4, max_denominator=6))
def test_evaluation_is_a_homomorphism(a, x):
    env = {"p": x, "q": x + 1}
    b = P * 2 - Q
    assert (a + b).evaluate(env) == a.evaluate(env) + b.evaluate(env)
    assert (a * b).evaluate(env) == a.evaluate(env) * b.evaluate(env)


# -- the canonical form (property-based) -----------------------------------------

def polys():
    """Polynomials in p, q and r, built with ParamScalar arithmetic from up
    to five terms c * p^a * q^b * r^e."""
    powers = st.integers(0, 2)
    term = st.builds(lambda c, a, b, e: c * P ** a * Q ** b * R ** e,
                     rationals, powers, powers, powers)
    return st.lists(term, max_size=5).map(
        lambda ts: sum(ts, ParamScalar.rational(0)))


def assert_canonical(s: ParamScalar) -> None:
    for mono, c in s.terms().items():
        assert type(c) is Fraction and c != 0, (s, mono, c)
        assert type(mono) is tuple and list(mono) == sorted(mono), (s, mono)
        syms = [sym for sym, _ in mono]
        assert len(set(syms)) == len(syms), (s, mono)
        assert all(type(e) is int and e >= 1 for _, e in mono), (s, mono)


@settings(deadline=None)
@given(polys(), polys(), rationals.filter(bool), st.integers(0, 3))
def test_arithmetic_keeps_the_canonical_form(a, b, q, n):
    for s in (a, a + b, a - b, -a, a * b, a / q, a / ParamScalar.rational(q),
              a * q, q * a, a + q, q + a, a - q, q - a, 3 * a, a - 2,
              a ** n):
        assert_canonical(s)


@settings(deadline=None)
@given(polys())
def test_sum_with_negation_is_zero(a):
    z = a + (-a)
    assert z == ZERO and z.is_zero()
    assert hash(z) == hash(ZERO)
    assert a - a == ZERO and hash(a - a) == hash(ZERO)


def test_constructor_brings_terms_into_the_canonical_form():
    """ParamScalar(terms) merges a repeated symbol, drops a zero exponent,
    and adds the coefficients of monomials that coincide once canonical."""
    cases = [
        ({(("p", 1), ("p", 1)): 1}, P * P, {(("p", 2),): Fraction(1)}),
        ({(("p", 0),): 2}, ParamScalar.rational(2), {(): Fraction(2)}),
        ({(("p", 1), ("q", 1)): 1, (("q", 1), ("p", 1)): 2}, 3 * P * Q,
         {(("p", 1), ("q", 1)): Fraction(3)}),
        ({(("q", 1), ("p", 2), ("q", 0)): Fraction(1, 2),
          (("p", 1), ("q", 1), ("p", 1)): Fraction(-1, 2)}, ZERO, {}),
        ({(("p", 0), ("q", 0)): 0, (): 5}, ParamScalar.rational(5),
         {(): Fraction(5)}),
    ]
    for terms, want, canonical in cases:
        s = ParamScalar(terms)
        assert s.terms() == canonical, terms
        assert_canonical(s)
        assert s == want and hash(s) == hash(want), terms
    assert ParamScalar({(("p", 1), ("p", 1)): 1}).render() == "p^2"
    assert ParamScalar({(("p", 1), ("q", 1)): 1,
                        (("q", 1), ("p", 1)): 2}).render() == "3*p*q"
    assert ParamScalar({(("p", 0),): 2}) == 2


@settings(deadline=None)
@given(polys(), st.randoms(use_true_random=False))
def test_constructor_on_shuffled_and_split_terms_equals_the_polynomial(a, rnd):
    """Each term split into two with shuffled, partly duplicated factors
    and a ^0 factor; the constructor restores the polynomial."""
    terms: dict = {}
    for mono, c in a.terms().items():
        for part in (c / 3, c - c / 3):
            pairs = [(sym, 1) for sym, e in mono for _ in range(e)]
            pairs.append((rnd.choice("pqr"), 0))
            rnd.shuffle(pairs)
            key = tuple(pairs)
            terms[key] = terms.get(key, 0) + part
    s = ParamScalar(terms)
    assert_canonical(s)
    assert s == a and hash(s) == hash(a)


@st.composite
def sum_of_terms(draw):
    """(text, value): a text of the scalar grammar and the same terms
    combined with ParamScalar arithmetic."""
    names = {"p": P, "q": Q, "r": R}
    text, value = "", ParamScalar.rational(0)
    for k in range(draw(st.integers(1, 5))):
        sign = draw(st.sampled_from(["", "-", "+"] if k == 0 else
                                    [" + ", " - ", "+", "-", " + -", " - -"]))
        factor = ParamScalar.rational(-1 if sign.count("-") % 2 else 1)
        num = draw(st.integers(0, 40))
        den = draw(st.sampled_from([None, 1, 2, 3, 7, 12]))
        factors = draw(st.lists(st.tuples(st.sampled_from("pqr"),
                                          st.sampled_from([None, 0, 1, 2, 3])),
                                max_size=3))
        coeff = ""
        if not factors or draw(st.booleans()):
            coeff = str(num) if den is None else f"{num}/{den}"
            factor = factor * Fraction(num, den or 1)
        mono = []
        for name, exp in factors:
            mono.append(name if exp is None else f"{name}^{exp}")
            factor = factor * names[name] ** (1 if exp is None else exp)
        if not factors:
            joint = coeff
        elif not coeff:
            joint = "*".join(mono)
        else:
            joint = coeff + draw(st.sampled_from(["*", ""])) + "*".join(mono)
        text += sign + joint
        value = value + factor
    return text, value


@settings(deadline=None)
@given(sum_of_terms())
def test_parse_equals_the_terms_combined_by_arithmetic(case):
    text, value = case
    with token_reads() as calls:
        parsed = parse_scalar(text)
    assert calls == []
    assert parsed == value, text
    assert_canonical(parsed)


# -- rendering and parsing ------------------------------------------------------

def test_render_examples():
    assert (P / 2 + Fraction(-3, 5)).render() == "1/2*p + -3/5"
    assert (P / 2 + Fraction(9, 5)).render() == "1/2*p + 9/5"
    assert (P * P - 1).render() == "p^2 + -1"
    assert ParamScalar.rational(0).render() == "0"
    assert (P * Q * 3 + P - Q).render() == "3*p*q + p + -q"
    assert str(P) == "p"


def test_render_degree_then_lex_order():
    s = Q + P * P + P
    assert s.render() == "p^2 + p + q"


def test_parse_examples():
    assert parse_scalar("1/2*p + 9/5") == P / 2 + Fraction(9, 5)
    assert parse_scalar("p^2 + -1") == P * P - 1
    assert parse_scalar("-p") == -P
    assert parse_scalar("2p") == P * 2
    assert parse_scalar("3 - 2*p") == ParamScalar.rational(3) - P * 2
    assert parse_scalar("0") == ParamScalar.rational(0)
    assert parse_scalar("p*q") == P * Q


def test_parse_gives_the_canonical_form():
    """Scanner.scalar sums its terms into one dict of canonical monomials."""
    cases = {
        "p*q*p": {(("p", 2), ("q", 1)): Fraction(1)},
        "q*p": {(("p", 1), ("q", 1)): Fraction(1)},
        "p^0": {(): Fraction(1)},
        "2*p^0*q": {(("q", 1),): Fraction(2)},
        "p^0*p^0": {(): Fraction(1)},
        "2p - 2p": {},
        "p + q - p": {(("q", 1),): Fraction(1)},
        "q^2*p - 1/2 + p*q^2 + 3/6": {(("p", 1), ("q", 2)): Fraction(2)},
        "1\xa0/\xa02 p": {(("p", 1),): Fraction(1, 2)},
    }
    for text, terms in cases.items():
        parsed = parse_scalar(text)
        assert parsed.terms() == terms, text
        assert_canonical(parsed)
    assert parse_scalar("q*p") == parse_scalar("p*q")
    assert hash(parse_scalar("q*p")) == hash(parse_scalar("p*q")) == hash(P * Q)
    assert parse_scalar("2p - 2p").is_zero()
    assert parse_scalar("p + q - p") == Q
    assert parse_scalar("1\xa0/\xa02 p") == P / 2


@pytest.mark.parametrize("text, offset", MALFORMED_SCALARS,
                         ids=[repr(t[:12]) for t, _ in MALFORMED_SCALARS])
def test_malformed_scalar_names_the_text_and_offset(text, offset):
    with pytest.raises(ScalarError) as e:
        parse_scalar(text)
    assert str(e.value).endswith(f" at offset {offset} in scalar {text!r}")
    if len(text) > 1000:
        assert str(e.value).startswith(
            "integer literal of 1001 digits exceeds the limit of 1000 at offset 4")


@settings(deadline=None)
@given(scalar_texts)
def test_any_text_parses_canonically_or_raises_scalar_error(text):
    """Over the scalar alphabet, a text parses to a canonical ParamScalar
    that round-trips through render, or raises ScalarError; no other
    exception escapes."""
    try:
        parsed = parse_scalar(text)
    except ScalarError:
        return
    assert_canonical(parsed)
    assert parse_scalar(parsed.render()) == parsed


@settings(max_examples=80, deadline=None)
@given(scalars())
def test_parse_render_roundtrip(a):
    assert parse_scalar(a.render()) == a


# Pieces of text for the differential properties: whitespace the scalar
# grammar takes or a line rejects, a Unicode digit \d takes, literals over
# the digit limit, and texts each reader words its own error for.
TEXT_PIECES = (list("0123456789") + ["p", "q", "e1", "_x", "p2"]
               + list("+-*/^$") + [" ", "\t", "\xa0", "\r", "\u0663", "\xb2"]
               + ["7" * 1001, "1/0", "1/-2", "--2", "2*", "p^"])
piece_texts = st.lists(st.sampled_from(TEXT_PIECES), max_size=10).map("".join)


def read(reader, text):
    """(("ok", value) or ("error", message), the token methods that ran)."""
    with token_reads() as calls:
        try:
            return ("ok", reader(text)), calls
        except (ScalarError, oracle.ScalarTextError) as exc:
            return ("error", str(exc)), calls


@settings(deadline=None)
@given(piece_texts)
@example("p + 1/0")  # text that fails after accepted terms
@example("1/2*p + q^")
@example("p - -q + 3*")
def test_scalar_reads_as_the_token_reference(text):
    """parse_scalar gives the token-by-token reference's terms, or its
    error with the same message and offset; on accepted text no token
    method runs."""
    got, calls = read(lambda t: parse_scalar(t).terms(), text)
    want, _ = read(oracle.reference_scalar, text)
    assert got == want
    if got[0] == "ok":
        assert calls == []


@settings(deadline=None)
@given(piece_texts)
def test_rational_reads_as_the_token_reference(text):
    got, calls = read(parse_rational, text)
    want, _ = read(oracle.reference_rational, text)
    assert got == want
    if got[0] == "ok":
        assert calls == []


# -- linear forms ----------------------------------------------------------------

def test_equation_str():
    form = LinearForm(Fraction(10), -(P * 5 + 18))
    assert form.equation_str() == "10*lambda = 5*p + 18"
    assert form.equation_str("mu") == "10*mu = 5*p + 18"

