"""Input fuzzing: the parser and the CLI on random manifold files. A file
either parses to a document that round-trips through render_manifold or
raises ParseError, and a CLI call on any file ends with an exit code from
0 to 3 and no escaped exception."""
import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from framecalc.cli import main
from framecalc.manifold_format import ParseError, parse_manifold, render_manifold

# A document is a header (mostly well formed) and statements. A statement
# is an opening with a value that fits it (mostly) or one that may not, and
# now and then a stray token; whole documents parse often enough, and each
# line can still break in many ways.
HEADERS = [["manifold m dim 3", "metric identity"]] * 20 + [
    ["manifold m dim 3"] + [f"metric g {i} {i} = {i}" for i in (1, 2, 3)],
    ["manifold m dim 3", "metric g 1 2 = 1/2", "metric g 1 1 = 1",
     "metric g 2 2 = 1", "metric g 3 3 = 1"],
    ["manifold m dim 3", "metric g 1 1 = 1"]] * 5 + [
    ["manifold m dim 3"], ["manifold m dim 0"], [], ["metric identity"],
    ["bogus"]]
FITTING = {
    "param q": [""],
    "bracket e1 e2 =": ["2*e3", "e1 - 1/2*e2"], "bracket e2 e3 =": ["-e1", "0"],
    "bracket e3 e1 =": ["e2 + 3 e3"], "contact xi =": ["e3", "e1 + e2"],
    "contact phi e1 =": ["e2"], "contact phi e2 =": ["-e1", "0"],
    "expect nabla e1 e2 =": ["e3", "-1/2*e1"],
    "expect riem e1 e2 e1 =": ["3/4*e2", "0"],
    "expect ricci 1 1 =": ["-1/2", "2"],
    "expect lambda =": ["1/2*p + 1", "p^2 - 3/5", "q"],
}
VALUES = ["2*e3", "1", "1/0", "e4", "2*", "", "e1 e2", "p", "-", "00", "e0"]
STRAYS = [""] * 40 + [" +", " e3", " = 1", ' source "x"', " #", ' "', " *",
                      " 1/2", " ^", "\tx"]


def _line(head: str, value: str, stray: str) -> str:
    source = ' source "eq (1)"' if head.startswith("expect") else ""
    return f"{head} {value}{source}".strip() + stray


lines = st.sampled_from(sorted(FITTING)).flatmap(lambda head: st.builds(
    _line, st.just(head), st.sampled_from(FITTING[head] * 20 + VALUES),
    st.sampled_from(STRAYS)))
documents = st.builds(lambda header, body: "\n".join(header + body) + "\n",
                      st.sampled_from(HEADERS), st.lists(lines, max_size=4))


# Counts scale with the loaded Hypothesis profile: 300 and 150 by default,
# five times as many under "ci" (tests/conftest.py).
EXAMPLES = settings.default.max_examples


@settings(max_examples=3 * EXAMPLES, deadline=None)
@given(documents)
def test_parse_returns_a_round_tripping_document_or_raises_parse_error(text):
    try:
        doc = parse_manifold(text)
    except ParseError:
        return
    assert parse_manifold(render_manifold(doc)) == doc


COMMANDS = [["validate"], ["validate", "--strict"], ["connection"],
            ["curvature"], ["ricci"], ["check-contact"], ["check-sasakian"],
            ["check-normality"], ["solve-lambda", "--field", "xi",
                                  "--flavor", "almost_conformal"],
            ["solve-lambda", "--field", "1,1/2,0", "--flavor", "ricci",
             "--use-expected-ricci"],
            ["check-soliton", "--field", "xi", "--flavor", "conformal",
             "--lambda", "p"],
            ["check-gradient", "--df", "0,0,1", "--dlambda", "0,0,0",
             "--flavor", "ricci", "--lambda", "1"]]


@settings(max_examples=3 * EXAMPLES // 2, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(documents.map(str.encode), st.binary(max_size=64)),
       st.sampled_from(COMMANDS), st.sampled_from(["text", "json"]))
def test_cli_on_random_files_exits_0_to_3(tmp_path, content, command, fmt):
    path = tmp_path / "random.txt"
    path.write_bytes(content)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*command, "--file", str(path), "--format", fmt])
    assert code in (0, 1, 2, 3)
    assert (code == 3) == bool(err.getvalue())
