"""The manifold file grammar: parsing, errors with positions, rendering,
and the parse/render fixpoint."""
import re
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from frames import MALFORMED_SCALARS, scalar_texts
from readers import token_reads
from framecalc.catalog import FIXTURES, builtin_names, load_builtin
from framecalc.cli import main
from framecalc.geometry import FrameVector, vector_of
from framecalc.manifold_format import (MAX_DIM, ParseError, parse_manifold,
                                       parse_vector_text, render_manifold)
from framecalc.scalars import (ParamScalar, ScalarError, parse_rational,
                               parse_scalar)


def err(text: str) -> ParseError:
    with pytest.raises(ParseError) as e:
        parse_manifold(text)
    return e.value


# -- vector expressions ----------------------------------------------------------

def test_parse_vector_text():
    assert parse_vector_text("0", 3) == FrameVector.zero(3)
    assert parse_vector_text("e2", 3) == FrameVector.basis(3, 1)
    assert parse_vector_text("-e2", 3).rational_coeffs() == (0, -1, 0)
    assert parse_vector_text("2*e2 + -e3", 3).rational_coeffs() == (0, 2, -1)
    assert parse_vector_text("2e3", 3).rational_coeffs() == (0, 0, 2)
    assert parse_vector_text("1/2 e1 - 3/4*e2", 2).rational_coeffs() == \
        (Fraction(1, 2), Fraction(-3, 4))
    assert parse_vector_text("e1 + e1", 2).rational_coeffs() == (2, 0)


def test_parse_vector_text_errors():
    with pytest.raises(ParseError):
        parse_vector_text("e9", 3)
    with pytest.raises(ParseError):
        parse_vector_text("e1 +", 3)
    with pytest.raises(ParseError):
        parse_vector_text("e1 e2", 3)
    with pytest.raises(ParseError):
        parse_vector_text("", 3)


# -- whole documents ----------------------------------------------------------------

MINIMAL = """\
manifold t dim 2
metric identity
"""


def test_minimal_document():
    doc = parse_manifold(MINIMAL)
    assert doc.manifold.name == "t"
    assert doc.manifold.dim == 2
    assert doc.manifold.g == tuple(map(tuple, oracle.ident(2)))
    assert doc.contact is None
    assert doc.expected.is_empty()


def test_comments_blanklines_crlf():
    text = "# header\r\nmanifold t dim 2\r\n\r\nmetric identity  # trailing\r\n"
    doc = parse_manifold(text)
    assert doc.manifold.name == "t"


def test_bracket_parsing_and_antisymmetry():
    doc = parse_manifold("""\
manifold w dim 3
bracket e1 e2 = 2*e3
metric identity
""")
    M = doc.manifold
    assert M.c[0][1][2] == 2
    assert M.c[1][0][2] == -2


def test_bracket_declared_with_larger_index_first():
    a = parse_manifold("manifold w dim 3\nbracket e2 e1 = -2*e3\nmetric identity\n")
    b = parse_manifold("manifold w dim 3\nbracket e1 e2 = 2*e3\nmetric identity\n")
    assert a.manifold.c == b.manifold.c


def test_metric_entries():
    doc = parse_manifold("""\
manifold s dim 2
metric g 1 1 = 2
metric g 1 2 = -1/2
metric g 2 2 = 3
""")
    g = doc.manifold.g
    assert g[0][0] == 2 and g[1][1] == 3
    assert g[0][1] == g[1][0] == Fraction(-1, 2)


def test_params_declared():
    doc = parse_manifold("manifold s dim 2\nparam q\nmetric identity\n")
    assert doc.manifold.params == {"p", "q"}


def test_contact_block():
    doc = load_builtin("heisenberg3")
    D = doc.contact
    assert D.xi == (0, 0, 1)
    assert D.phi_column(0).rational_coeffs() == (0, 1, 0)
    assert D.phi_column(1).rational_coeffs() == (-1, 0, 0)
    assert D.phi_column(2).rational_coeffs() == (0, 0, 0)


def test_expect_blocks_heisenberg5():
    doc = load_builtin("heisenberg5")
    e = doc.expected
    assert len(e.nabla) == 9
    assert len(e.riem) == 18
    assert len(e.ricci) == 5
    assert len(e.lam) == 1
    lam, src = e.lam[0]
    assert lam == ParamScalar.param("p") / 2 + Fraction(9, 5)
    assert src == "lambda after Eq (3.34)"
    assert (0, 0, Fraction(-2), "Eq (3.33)") in e.ricci
    assert any(i == 0 and j == 1 and v == {0: 1}
               and "duplicated assignment" in s for i, j, v, s in e.nabla)
    assert all(type(x) in (int, Fraction) for *_, v, _ in e.nabla + e.riem
               for x in v.values())


# -- errors with positions --------------------------------------------------------------

def test_error_rendering():
    e = err("manifold t dim 2\nmetric identity\nbracket e1 e9 = e2\n")
    assert e.lineno == 3
    assert "out of range" in e.message
    assert str(e).startswith("line 3, col ")


def test_unknown_statement():
    e = err("manifold t dim 2\nmetric identity\nfrobnicate\n")
    assert "unknown statement 'frobnicate'" in e.message


def test_manifold_must_come_first():
    e = err("metric identity\nmanifold t dim 2\n")
    assert "must come first" in e.message


def test_missing_manifold_and_metric():
    assert "missing manifold declaration" in err("# nothing\n").message
    assert "missing metric declaration" in err("manifold t dim 2\n").message


def test_self_bracket_rejected():
    e = err("manifold t dim 2\nbracket e1 e1 = e2\nmetric identity\n")
    assert "itself" in e.message


def test_duplicate_bracket_cites_earlier_line():
    e = err("manifold t dim 3\nbracket e1 e2 = e3\n"
            "bracket e2 e1 = -e3\nmetric identity\n")
    assert e.lineno == 3
    assert "already declared on line 2" in e.message


def test_duplicate_metric_entry():
    e = err("manifold t dim 2\nmetric g 1 2 = 1\nmetric g 2 1 = 1\n")
    assert "already declared" in e.message


def test_metric_mode_conflict():
    e = err("manifold t dim 2\nmetric identity\nmetric g 1 1 = 1\n")
    assert "already declared as identity" in e.message


def test_duplicate_phi_column():
    e = err("manifold t dim 3\nmetric identity\ncontact xi = e3\n"
            "contact phi e1 = e2\ncontact phi e1 = -e2\n")
    assert "phi e1 already declared" in e.message


def test_phi_requires_xi():
    e = err("manifold t dim 3\nmetric identity\ncontact phi e1 = e2\n")
    assert "requires contact xi" in e.message


def test_expect_lambda_undeclared_param():
    e = err("manifold t dim 2\nmetric identity\n"
            'expect lambda = q + 1 source "s"\n')
    assert "undeclared parameter 'q'" in e.message


def test_expect_lambda_p_is_implied():
    doc = parse_manifold("manifold t dim 2\nmetric identity\n"
                         'expect lambda = 1/2*p source "s"\n')
    assert doc.expected.lam[0][0] == ParamScalar.param("p") / 2


# lambda_line(text) puts text on line 6, from col 17 on.
LAMBDA_HEAD = "manifold t dim 2\nparam q\nparam r\nparam e1\nmetric identity\n"


def lambda_line(text: str) -> str:
    return LAMBDA_HEAD + f'expect lambda = {text} source "s"\n'


@pytest.mark.parametrize("text, offset", MALFORMED_SCALARS,
                         ids=[repr(t[:12]) for t, _ in MALFORMED_SCALARS])
def test_malformed_expect_lambda_located_at_offending_token(text, offset):
    e = err(lambda_line(text))
    assert e.lineno == 6
    # an empty body ends right after the '='
    assert e.col == (17 + offset if text else 16)
    if len(text) > 1000:
        assert e.message == ("integer literal of 1001 digits exceeds the "
                             "limit of 1000")


def test_expect_lambda_error_column():
    e = err(lambda_line("1/2*p + $"))
    assert str(e) == "line 6, col 25: expected a term"


@settings(deadline=None)
@given(scalar_texts)
def test_expect_lambda_reads_the_scalar_grammar(text):
    """An expect lambda line holds what parse_scalar gives for its text, or
    fails where parse_scalar fails."""
    try:
        want = parse_scalar(text)
    except ScalarError as exc:
        e = err(lambda_line(text))
        assert e.lineno == 6
        if text.strip() == text:  # the line keeps no blanks past the body
            offset = int(re.search(r"at offset (\d+) in scalar", str(exc))[1])
            assert e.col == (17 + offset if text else 16)
        return
    if want.symbols() - {"p", "q", "r", "e1"}:  # a joined name such as p0
        assert "undeclared parameter" in err(lambda_line(text)).message
        return
    assert parse_manifold(lambda_line(text)).expected.lam == ((want, "s"),)


# Each value reads with its own grammar: a vector-expr as parse_vector_text
# reads it, a ricci rational as parse_rational (the --df grammar) reads it.
EXPECT_HEAD = "manifold t dim 3\nmetric identity\n"
vector_texts = st.lists(st.sampled_from(
    ["e1", "e2", "e3", "e4", "0", "1", "2", "/", "*", "+", "-", " ", "\t", "$"]),
    max_size=10).map("".join)
rational_texts = st.lists(st.sampled_from(
    list("0123456789") + ["+", "-", "/", " ", "\t", "$"]),
    max_size=10).map("".join)
blanks = st.text(" \t", max_size=3)


@settings(deadline=None)
@given(st.sampled_from(["nabla e1 e2", "riem e3 e1 e2", "ricci 2 1"]),
       st.data())
def test_expect_value_reads_its_grammar(frame, data):
    """An expect nabla or riem line holds the nonzero coefficients
    {k: value} of what parse_vector_text gives for its value, an expect
    ricci line what parse_rational gives, or the line fails at the same
    token with the same message."""
    ricci = frame.startswith("ricci")
    text = data.draw(rational_texts if ricci else vector_texts)
    prefix = f"expect {frame} ={data.draw(blanks)}"
    doc_text = EXPECT_HEAD + prefix + text + data.draw(blanks) + ' source "s"\n'
    try:
        want = parse_rational(text) if ricci else parse_vector_text(text, 3)
    except ParseError as exc:
        message, offset = exc.message, exc.col - 1
    except ScalarError as exc:
        message, offset = re.fullmatch(r"(.*) at offset (\d+) in scalar .*",
                                       str(exc), re.S).groups()
    else:
        if not ricci:
            want = {k: x for k, x in enumerate(want.rational_coeffs()) if x}
        expected = parse_manifold(doc_text).expected
        entry = (expected.ricci or expected.nabla or expected.riem)[0]
        assert entry[-2:] == (want, "s")
        return
    # a value ends at its last token: the blanks before source are cut
    value_end = len((prefix + text).rstrip(" \t"))
    e = err(doc_text)
    assert (e.lineno, e.message) == (3, message)
    assert e.col == min(len(prefix) + int(offset), value_end) + 1


# Values that are empty, or a substring of "expect <kind>", after blanks or
# tabs: each error names the value's own column.
@pytest.mark.parametrize("line, col, message", [
    ('  expect ricci c source "s"', 16, "expected an integer"),
    ('expect riem ec source "s"', 13, "expected a frame vector e<k>"),
    ('\texpect nabla\tsource  "x y"', 14, "expected a frame vector e<k>"),
    ('expect lambda source "s"', 14, "expected '='"),
    ('expect ricci 1 1 = source "s"', 19, "expected a rational number"),
])
def test_expect_error_columns(line, col, message):
    e = err(EXPECT_HEAD + line + "\n")
    assert (e.lineno, e.col, e.message) == (3, col, message)


# Statement errors pinned with their exact position and message; each also
# ends a validate --file run with exit 3 and one located message.
@pytest.mark.parametrize("text, lineno, col, message", [
    ("manifold t dim 2\nmanifold u dim 2\nmetric identity\n", 2, 9,
     "duplicate manifold declaration"),
    ("manifold t dim 2\nmetric identity\nmetric identity\n", 3, 16,
     "metric already declared"),
    ("manifold t dim 2\nmetric identity x\n", 2, 17, "trailing text"),
    ("manifold t dim 2\nmetric g 1 1 = 1 2\n", 2, 18, "trailing text"),
    ('manifold t dim 2\nmetric identity\nexpect ricci 1 1 = 2 3 source "s"\n',
     3, 22, "trailing text"),
    ("manifold t dim 2\nmetric foo\n", 2, 8, "expected 'identity' or 'g'"),
    ("manifold t dim 2\nmetric identity\ncontact foo\n", 3, 12,
     "expected 'xi' or 'phi'"),
    ("manifold t dim 2\nmetric g 0 1 = 1\n", 2, 10,
     "index 0 out of range 1..2"),
], ids=["second-manifold", "identity-twice", "identity-trailing",
        "metric-g-trailing", "expect-ricci-trailing", "metric-foo",
        "contact-foo", "metric-index-0"])
def test_statement_errors(tmp_path, capsys, text, lineno, col, message):
    e = err(text)
    assert (e.lineno, e.col, e.message) == (lineno, col, message)
    path = tmp_path / "bad.fc"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", "--file", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parse error: line {lineno}, col {col}: {message}\n"


# Texts with a gap, "|", before and after each token: a scalar term, a
# vector term and each statement. A statement ends its line, on a document
# whose other lines parse; where a blank must separate two tokens the gap
# holds one.
RUN = " " * 100_000
LINEAR_CASES = [
    ("scalar", "|-|2|/|3|*|p|^|2|*|q|^|3|+|-|1|"),
    ("scalar-no-star", "|2|q|"),
    ("vector", "|-|2|/|3|*|e1|+|-|e2|"),
    ("manifold", "| manifold | t | dim | 3 |"),
    ("param", "|param | q|"),
    ("bracket", "|bracket | e1|e2|=|e3|"),
    ("identity", "|metric | identity|"),
    ("metric-g", "|metric | g | 1 | 1|=|-|2|/|3|"),
    ("xi", "|contact | xi|=|e3|"),
    ("phi", "|contact | phi | e1|=|e2|"),
    ("ricci", '|expect | ricci | 1 | 1|=|-|2|/|3|source | "s"|'),
    ("nabla", '|expect | nabla | e1|e2|=|e3|source | "s"|'),
    ("riem", '|expect | riem | e1|e2|e1|=|e3|source | "s"|'),
    ("lambda", '|expect | lambda | =|1|/|2|*|p|+|1|source | "s"|'),
    ("comment", "|bracket | e1|e2|=|-|2|*|e3|# c"),
    ("source", '|expect | nabla | e1|e2|=|0|source | "s"|# c'),
]


def linear_case_texts():
    for name, template in LINEAR_CASES:
        parts = template.split("|")
        for gap in range(len(parts) - 1):
            head = "".join(parts[:gap + 1])
            accepted = head + RUN + "".join(parts[gap + 1:])
            yield pytest.param(name, accepted, True, id=f"{name}-{gap}-accepted")
            yield pytest.param(name, head + RUN + "$", False,
                               id=f"{name}-{gap}-rejected")


def linear_document(name, text):
    """A statement case's text on a document whose other lines parse."""
    if name == "manifold":
        return text + "\nmetric identity\n"
    lines = ["manifold t dim 3", text]
    if name == "phi":
        lines.append("contact xi = e3")
    if name not in ("identity", "metric-g"):
        lines.append("metric identity")
    return "\n".join(lines) + "\n"


def linear_case_readers(name):
    """The reader of a case and the token reference's, each from the text
    to a value that compares equal to the other's."""
    if name.startswith("scalar"):
        return lambda t: parse_scalar(t).terms(), oracle.reference_scalar
    if name == "vector":
        return (lambda t: parse_vector_text(t, 3),
                lambda t: vector_of(3, oracle.reference_vector(t, 3)))
    return (lambda t: document_view(parse_manifold(linear_document(name, t))),
            lambda t: reference_view(
                oracle.reference_document(linear_document(name, t))))


def settle(reader, text):
    """("ok", value), or "error" with the line, column and message of a
    ParseError, or the text of a ScalarError."""
    try:
        return ("ok", reader(text))
    except (ParseError, oracle.LineError) as exc:
        return ("error", exc.lineno, exc.col, exc.message)
    except (ScalarError, oracle.ScalarTextError) as exc:
        return ("error", str(exc))


@pytest.mark.parametrize("name, text, accepted", linear_case_texts())
def test_long_blank_runs_read_in_linear_time(name, text, accepted):
    """A 100,000-blank run in any gap of a term or a statement, on a text
    that parses and on one that fails right after the run, is read in well
    under a second: no pattern splits a blank run in more than one way. The
    text reads as the token reference reads it: the same value, or the
    same error message at the same place."""
    reader, reference = linear_case_readers(name)
    t0 = time.perf_counter()
    got = settle(reader, text)
    assert time.perf_counter() - t0 < 1
    assert got[0] == ("ok" if accepted else "error")
    assert got == settle(reference, text)


def test_long_blank_runs_keep_values_and_messages():
    """A run before a '+' in an expect lambda value, and one after expect."""
    doc = parse_manifold(
        EXPECT_HEAD + f'expect lambda = 1{RUN}+ 1 source "s"\n')
    assert doc.expected.lam == ((ParamScalar.rational(2), "s"),)
    assert "malformed expect" in err(EXPECT_HEAD + f"expect {RUN}x\n").message


def test_non_breaking_space():
    """Manifold lines take blanks and tabs between tokens, expect lines
    included, the scalar grammar of an expect lambda value any whitespace."""
    e = err("manifold t dim 3\nmetric identity\nbracket e1\xa0e2 = e3\n")
    assert (e.lineno, e.col) == (3, 11)
    e = err(EXPECT_HEAD + 'expect ricci\xa01 1 = 2 source "s"\n')
    assert (e.lineno, e.col, e.message) == (3, 13, "expected an integer")
    e = err(EXPECT_HEAD + 'expect\xa0lambda = 2 source "s"\n')
    assert (e.lineno, e.col) == (3, 7) and "malformed expect" in e.message
    doc = parse_manifold(lambda_line("1/2*p\xa0+ 1"))
    assert doc.expected.lam[0][0] == ParamScalar.param("p") / 2 + 1


@pytest.mark.parametrize("line, col, message", [
    ("bracket e1 e2 = 1\xa0/ 2 e3", 18, "expected a frame vector e<k>"),
    ("bracket e1 e2 = 1\xa0e3", 18, "expected a frame vector e<k>"),
    ("bracket e1 e2 = 1 /\xa02 e3", 20, "expected an integer denominator"),
    ("metric g 1 1 = 3\xa0/\xa04", 17, "trailing text"),
    ('expect ricci 1 1 = 3\t/\xa04 source "s"', 23,
     "expected an integer denominator"),
])
def test_non_breaking_space_inside_a_rational(line, col, message):
    """The blanks-and-tabs rule holds around and after a rational's /."""
    e = err("manifold t dim 3\n" + line + "\n")
    assert (e.lineno, e.col, e.message) == (2, col, message)
    assert line[col - 1] == "\xa0"


def test_blanks_and_tabs_inside_a_rational():
    doc = parse_manifold("manifold t dim 3\n"
                         "metric g 1 1 = 3 \t/\t 4\n"
                         "metric g 2 2 = 1\nmetric g 3 3 = 1\n"
                         "bracket e1 e2 = 1 / 2 e3 + 5\t*e1\n"
                         'expect lambda = 1\xa0/\xa02 p source "s"\n')
    assert doc.manifold.g[0][0] == Fraction(3, 4)
    assert doc.manifold.brackets[0, 1] == {0: Fraction(5), 2: Fraction(1, 2)}
    assert doc.expected.lam[0][0] == ParamScalar.param("p") / 2


def test_malformed_expect():
    e = err("manifold t dim 2\nmetric identity\nexpect ricci 1 1 = 3\n")
    assert "malformed expect" in e.message
    # The kind of an expect line needs whitespace after it.
    for line in ('expect lambda= 1 source "s"', 'expect ricci1 1 = 2 source "s"'):
        e = err(EXPECT_HEAD + line + "\n")
        assert (e.lineno, e.col) == (3, 7) and "malformed expect" in e.message


def test_zero_denominator():
    e = err("manifold t dim 2\nbracket e1 e2 = 1/0*e1\nmetric identity\n")
    assert "zero denominator" in e.message


def test_trailing_text():
    e = err("manifold t dim 2 junk\nmetric identity\n")
    assert "trailing text" in e.message


def test_dimension_limit():
    assert MAX_DIM == 128
    doc = parse_manifold("manifold big dim 128\nmetric identity\n")
    assert doc.manifold.dim == 128
    for dim in ("129", "100000000"):
        e = err(f"manifold big dim {dim}\nmetric identity\n")
        assert str(e).startswith("line 1, col 18: ")
        assert f"dimension {dim} exceeds the limit 128" in e.message


# -- the token-by-token references ------------------------------------------------

VECTOR_PIECES = (["e1", "e2", "e3", "e4", "e0", "e03", "e٣", "0", "1", "2",
                  "/", "*", "+", "-", " ", "\t", "\xa0", "$"]
                 + ["7" * 1001, "1/0", "1/-2", "--2", "2*"])


def outcome(reader, text):
    """(("ok", value) or ("error", line, col, message), the token methods
    that ran)."""
    with token_reads() as calls:
        try:
            return ("ok", reader(text)), calls
        except (ParseError, oracle.LineError) as exc:
            return ("error", exc.lineno, exc.col, exc.message), calls


@settings(deadline=None)
@given(st.lists(st.sampled_from(VECTOR_PIECES), max_size=10).map("".join))
def test_vector_reads_as_the_token_reference(text):
    """parse_vector_text gives the reference's coefficients, or its error at
    the same column; on accepted text no token method runs."""
    got, calls = outcome(lambda t: parse_vector_text(t, 3), text)
    want, _ = outcome(lambda t: vector_of(3, oracle.reference_vector(t, 3)),
                      text)
    assert got == want
    if got[0] == "ok":
        assert calls == []


# One statement per kind; each word of a template is drawn from PIECES
# (G a gap that needs a blank, g any gap), is e and an index drawn for I,
# or stands for itself.
MANIFOLD_TEMPLATE = "manifold G t G dim G N"
STATEMENT_TEMPLATES = [
    "param G NAME", "bracket G eI g eI g = g V",
    "metric G identity", "metric G g G I G I g = g R", "contact G xi g = g V",
    "contact G phi G eI g = g V", "expect G ricci G I G I g = g R g S",
    "expect G nabla G eI g eI g = g V g S",
    "expect G riem G eI g eI g eI g = g V g S",
    "expect G lambda G = g X g S", "frob", "# note",
]
# Each piece: (text that reads, text that fails or reads in a way of its
# own); a statement draws the first kind nine times in ten.
PIECES = {
    "G": ([" ", "\t", " \t "], ["", "\xa0", "\x0c"]),
    "g": (["", " ", "\t"], ["\xa0", "\x85"]),
    "N": (["3"], ["03", "0", "129", "9" * 1001]),
    "NAME": (["q", "r", "x1"], ["p", "1x", "é"]),
    "I": (["1", "2", "3"], ["0", "4", "01", "9" * 1001, "٣", "x", ""]),
    "V": (["e1", "2*e3", "-1/2 e2 + e1", "0", "e1 - -e2", "3e3", "e2+e2"],
          ["e4", "0 e1", "00", "", "e1 e2", "1/0 e1", "2*", "e1 +",
           "1 /\xa02e1", "7" * 1001 + "e1", "e" + "1" * 1001]),
    "R": (["2", "-1/3", "--2", "+ 4 / 6", "0"],
          ["1/0", "1/-2", "2*", "7" * 1001, "1/" + "7" * 1001, "٣", "2p",
           "", "3\xa0/4", "1 2"]),
    "X": (["1/2*p + 9/5", "p", "q^2*p - 1", "2p", "-3", "1\xa0/\xa02 p"],
          ["p^", "2*", "1/0", "--2", "r", "p q", ""]),
    "S": (['source "s"', 'source\t"a # b"', 'source "x\x0cy"', 'source  ""'],
          ['source "s" junk', 'source "a" source "b"', 'source"s"', "",
           'source "s', "source s"]),
}


@st.composite
def statements(draw, templates=st.sampled_from(STATEMENT_TEMPLATES)):
    def piece(word):
        if word == "eI":
            return "e" + piece("I")
        if word not in PIECES:
            return word
        reads, other = PIECES[word]
        return draw(st.sampled_from(other if draw(st.integers(0, 9)) == 9 else reads))

    line = "".join(piece(w) for w in draw(templates).split(" "))
    return line + draw(st.sampled_from(["", "", "", "  # c", ' # "q', "\t#"]))


@st.composite
def documents(draw):
    lines = [draw(statements(st.just(MANIFOLD_TEMPLATE))), "param q"] + draw(
        st.lists(statements(), max_size=5))
    if draw(st.integers(0, 9)) < 9:
        lines.append("metric identity")
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


def document_view(doc):
    """A ManifoldDocument in the reference's terms."""
    M, e = doc.manifold, doc.expected
    contact = doc.contact and (doc.contact.phi, doc.contact.xi)
    return (M.name, M.dim, M.params,
            {key: row for key, row in M.brackets.items() if key[0] < key[1]},
            M.g, contact, e.nabla, e.riem, e.ricci,
            tuple((lam.terms(), src) for lam, src in e.lam))


def reference_view(ref):
    dim = ref["dim"]
    zero = Fraction(0)
    g = tuple(map(tuple, oracle.ident(dim) if ref["metric"] == "identity"
                  else ref["metric"]))
    contact = None
    if ref["xi"] is not None:
        contact = (tuple(tuple(ref["phi"].get(j, {}).get(a, zero)
                               for j in range(dim)) for a in range(dim)),
                   tuple(ref["xi"].get(a, zero) for a in range(dim)))
    return (ref["name"], dim, frozenset(ref["params"]) | {"p"},
            {key: row for key, row in ref["brackets"].items() if row},
            g, contact,
            tuple(ref["nabla"]), tuple(ref["riem"]),
            tuple(ref["ricci"]), tuple(ref["lam"]))


@settings(deadline=None)
@given(documents())
# line tails: comments, # and " in and around the source, and the
# whitespace that rstrip cuts before the end or the comment
@example('manifold t dim 3  # c\nmetric identity#c\nbracket e1 e2 = e3 # n\n'
         'expect ricci 1 1 = 2 source "a # b"  # c "d\n')
@example('manifold t dim 3\nmetric identity # "q\nbracket e1 e2 = e3 "x # y\n')
@example('manifold t dim 3\nmetric identity\nexpect ricci 1 1 = 2 source "a" "# b\n')
@example('manifold t dim 3\t\nmetric identity\x0c\nbracket e1 e2 = e3\xa0# c\n'
         'contact xi = e3\u2028\ncontact phi e1 = e2 \u2028# c\n'
         'expect nabla e1 e2 = 0\x0csource "s"\xa0\n')
# limits: literals of 1000 and 1001 digits, a zero denominator, indices 0
# and dim + 1, and a duplicate bracket named with its first line
@example("manifold t dim 3\nmetric identity\nbracket e1 e2 = " + "7" * 1000
         + "/" + "9" * 1000 + "e3 + 0" + "1" * 999 + "e1\n")
@example("manifold t dim 3\nmetric g 1 1 = " + "7" * 1001 + "\n")
@example("manifold t dim 3\nmetric identity\nbracket e1 e2 = e" + "1" * 1001 + "\n")
@example("manifold t dim 3\nmetric identity\nbracket e1 e2 = 1/0 e3\n")
@example("manifold t dim 3\nmetric g 1 1 = 2/00\n")
@example("manifold t dim 3\nmetric identity\nbracket e0 e2 = e3\n")
@example("manifold t dim 3\nmetric identity\ncontact phi e4 = e3\n")
@example('manifold t dim 3\nmetric identity\nexpect ricci 1 4 = 1 source "s"\n')
@example("manifold t dim 3\nmetric g 0 1 = 1\n")
@example("manifold t dim 3\nmetric identity\nbracket e1 e2 = e3\n"
         "bracket e2 e1 = e3\n")
@example('manifold t dim 3\nexpect ricci 1 1 = 2 source "s" junk\n')
@example('manifold t dim 3\nexpect ricci 1 1 = 2 source "a" source "b"\n')
@example('manifold t dim 3\nexpect nabla e1 e2 = e3 source "a" b\n')
@example('manifold t dim 3\nexpect lambda = p source "a" source "b"\n')
def test_document_reads_as_the_token_reference(text):
    """parse_manifold holds what the token-by-token statement code reads,
    or fails with its message at the same line and column; on a document
    that parses no token method runs."""
    got, calls = outcome(lambda t: document_view(parse_manifold(t)), text)
    want, _ = outcome(lambda t: reference_view(oracle.reference_document(t)),
                      text)
    assert got == want
    if got[0] == "ok":
        assert calls == []


def test_builtins_read_without_token_methods():
    for name in builtin_names():
        with token_reads() as calls:
            parse_manifold(FIXTURES[name])
        assert calls == [], name


# -- line ends ----------------------------------------------------------------------

# Characters str.splitlines() ends a line at, but open() in text mode does not.
NOT_LINE_ENDS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                 "\u2029"]


@pytest.mark.parametrize("ch", NOT_LINE_ENDS, ids=ascii)
def test_only_lf_crlf_and_cr_end_a_line(ch):
    doc = parse_manifold(f"manifold t dim 2\nmetric identity\n# note{ch} page\n"
                         f'expect ricci 1 1 = 2 source "a{ch}b"  # c{ch}d\n')
    assert doc.expected.ricci == ((0, 0, Fraction(2), f"a{ch}b"),)
    text = f"manifold t dim 2\n# a{ch}b{ch}\nmetric identity{ch}\n\nfrob\n"
    e = err(text)
    assert (e.lineno, e.col) == (text.count("\n"), 1)
    assert "unknown statement 'frob'" in e.message
    e = err(f"manifold t dim 3\nbracket e1{ch}e2 = e3\n")
    assert (e.lineno, e.col) == (2, 11)
    e = err(f"# a{ch}b\n")
    assert (e.lineno, e.message) == (2, "missing manifold declaration")


def test_cr_and_crlf_line_ends():
    e = err("manifold t dim 2\rmetric identity\r\n\rfrob\r")
    assert (e.lineno, e.col) == (4, 1)
    for text in ("manifold t dim 2\r\n", "manifold t dim 2\r",
                 "manifold t dim 2"):
        e = err(text)
        assert (e.lineno, e.message) == (2, "missing metric declaration")
    e = err("manifold t dim 2\n\n")
    assert (e.lineno, e.message) == (3, "missing metric declaration")


# -- rendering ----------------------------------------------------------------------------

def test_render_minimal():
    doc = parse_manifold(MINIMAL)
    assert render_manifold(doc) == "manifold t dim 2\nmetric identity\n"


def test_render_orders_brackets_and_metric():
    doc = parse_manifold("""\
manifold w dim 3
param q
bracket e2 e3 = e1
bracket e1 e2 = 2*e3
metric g 2 2 = 3
metric g 1 1 = 2
""")
    assert render_manifold(doc) == (
        "manifold w dim 3\n"
        "param q\n"
        "bracket e1 e2 = 2*e3\n"
        "bracket e2 e3 = e1\n"
        "metric g 1 1 = 2\n"
        "metric g 2 2 = 3\n"
    )


def test_render_zero_metric_placeholder():
    doc = parse_manifold("manifold z dim 2\nmetric g 1 1 = 0\n")
    out = render_manifold(doc)
    assert "metric g 1 1 = 0" in out


def test_parse_render_fixpoint_builtins():
    for name in builtin_names():
        doc = parse_manifold(FIXTURES[name])
        text = render_manifold(doc)
        doc2 = parse_manifold(text)
        assert doc2.manifold == doc.manifold, name
        assert doc2.contact == doc.contact, name
        assert doc2.expected == doc.expected, name
        assert render_manifold(doc2) == text, name


def test_hash_inside_source_string_roundtrips():
    doc = parse_manifold("manifold t dim 3  # three\nmetric identity\n"
                         'expect ricci 3 3 = 2 source "Eq #3"  # printed\n')
    assert doc.expected.ricci == ((2, 2, Fraction(2), "Eq #3"),)
    text = render_manifold(doc)
    assert 'source "Eq #3"' in text
    doc2 = parse_manifold(text)
    assert doc2 == doc
    assert render_manifold(doc2) == text


def test_builtin_names_and_unknown():
    assert builtin_names() == ["abelian3", "abelian5", "heisenberg3",
                               "heisenberg5", "nonjacobi3"]
    with pytest.raises(KeyError) as e:
        load_builtin("nope")
    assert "abelian3" in str(e.value)
