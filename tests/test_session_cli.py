"""Session parsing and the CLI contract: reports, determinism, exit codes."""

import json
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from flatcert import parse_session
from flatcert.cli import main
from flatcert.errors import DeterminantNotOne, DimensionMismatch, NotIrreducible, ParseError
from flatcert.session import _rational

SESSION = json.dumps(
    {
        "generators": {
            "a": [["2", "0"], ["0", "1/2"]],
            "b": [["3", "0"], ["0", "1/3"]],
            "c": [["4", "0"], ["0", "1/4"]],
            "u": [["1", "1"], ["0", "1"]],
        }
    }
)

def test_parse_session_ok():
    spec = parse_session(SESSION)
    assert set(spec.generators) == {"a", "b", "c", "u"}
    assert spec.places.primes == (2, 3)
    assert spec.field is None


def test_parse_session_field():
    # g = diag(sqrt2, 1/sqrt2) over Q(sqrt2); embeds to a 4x4 rational matrix
    doc = {
        "field": ["-2", "0", "1"],
        "generators": {"g": [[["0", "1"], "0"], ["0", ["0", "1/2"]]]},
    }
    spec = parse_session(json.dumps(doc))
    assert spec.field is not None and spec.field.degree == 2
    assert spec.embedded["g"].n == 4
    assert spec.places.primes == (2,)


def test_parse_session_errors():
    with pytest.raises(DeterminantNotOne) as exc:
        parse_session(json.dumps({"generators": {"g": [["2", "0"], ["0", "1"]]}}))
    assert exc.value.name == "g"
    with pytest.raises(NotIrreducible):
        parse_session(json.dumps({"field": ["-1", "0", "1"], "generators": {"g": [["1"]]}}))
    with pytest.raises(ParseError) as exc:
        parse_session("{not json")
    assert exc.value.line is not None
    with pytest.raises(DimensionMismatch):
        parse_session(
            json.dumps({"generators": {"a": [["1"]], "b": [["1", "0"], ["0", "1"]]}})
        )
    with pytest.raises(ParseError):
        parse_session(json.dumps({"generators": {"Bad": [["1"]]}}))


# signs, ASCII and non-ASCII digits, "/", whitespace, "_", ".", "e"
SCALAR_CHARS = list("-+0123456789/ _.eE\t\n") + ["\u0663", "\u06f7", "\uff10", "\u00a0"]


@settings(max_examples=500, deadline=None)
@given(
    st.text(st.sampled_from(SCALAR_CHARS), max_size=12)
    | st.from_regex(r"-?[0-9]{1,30}(/[0-9]{1,30})?", fullmatch=True)
    | st.from_regex(r"-?[0-9]{1,5}/0{1,3}", fullmatch=True)
)
def test_rational_reads_what_fraction_reads(s):
    """The plain "-p/q" fast path agrees with Fraction(str), and anything
    Fraction refuses, a zero denominator included, is a ParseError."""
    try:
        want = Fraction(s)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ParseError):
            _rational(s)
    else:
        got = _rational(s)
        assert type(got) is Fraction and got == want


def test_parse_session_rejects_field_det_of_norm_one():
    # det = 3 + 2 sqrt2 has norm 1, so the embedded 4x4 matrix has det 1;
    # the generator is still not in SL_2(Q(sqrt2))
    doc = {"field": ["-2", "0", "1"], "generators": {"g": [[["3", "2"], "0"], ["0", "1"]]}}
    with pytest.raises(DeterminantNotOne) as exc:
        parse_session(json.dumps(doc))
    assert exc.value.name == "g"
    assert str(exc.value.det) == "[3, 2]"


def _run(args, session=SESSION, files=None):
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("session.json", "w") as fh:
            fh.write(session)
        if files:
            for name, content in files.items():
                with open(name, "w") as fh:
                    fh.write(content)
        return runner.invoke(main, args, catch_exceptions=False)


def test_cli_classify_unipotent():
    res = _run(["-i", "session.json", "classify", "u"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["tag"] == "Unipotent"


def test_cli_classify_ballistic_report_shape():
    res = _run(["-i", "session.json", "classify", "a"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["tag"] == "Ballistic"
    assert doc["padic"]["2"] == ["1", "-1"]
    assert doc["length2"]["nonarch"] == "2"
    assert isinstance(doc["length2"]["arch"], float)


def test_cli_classify_direction_computes_one_charpoly(monkeypatch):
    # the report, its drift and its direction come from one classify call:
    # one charpoly, one det-1 and one place check, one Newton polygon per
    # prime, one cyclotomic split and one diagonalizability test
    import flatcert.cli as cli
    import flatcert.linalg as linalg
    import flatcert.places as places

    word, calls = [], {}

    def counting(module, name, of_word=lambda *args: True):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            if word and of_word(*args):
                calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    def evaluated(*args):
        word.append(word_eval(*args))
        return word[-1]

    word_eval = cli.word_eval
    monkeypatch.setattr(cli, "word_eval", evaluated)
    counting(linalg, "_berkowitz")
    counting(places, "_check_det_one", lambda m, *_: m is word[0])
    counting(places, "_check_places_complete", lambda m, *_: m is word[0])
    counting(places, "_cyclotomic_split")
    counting(places, "is_diagonalizable", lambda m: m is word[0])
    slopes = []
    newton = places.newton_slopes
    monkeypatch.setattr(places, "newton_slopes", lambda cp, p: slopes.append(p) or newton(cp, p))
    places._charpoly_drift.cache_clear()
    # b only adds the prime 2 to the place set
    session = json.dumps(
        {"generators": {"a": [["2", "1"], ["1", "1"]], "b": [["2", "0"], ["0", "1/2"]]}}
    )
    res = _run(["-i", "session.json", "classify", "--direction", "a"], session=session)
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["tag"] == "Ballistic" and set(doc["direction"]["norms"]) == {"arch", "2"}
    assert calls == {
        "_berkowitz": 1,
        "_check_det_one": 1,
        "_check_places_complete": 1,
        "_cyclotomic_split": 1,
        "is_diagonalizable": 1,
    }
    assert slopes == [2]


def test_in_process_calls_release_their_streams(tmp_path):
    # a caller that captures each call in fresh streams, as a test runner or
    # a request server does, must not have them kept alive by the CLI
    import contextlib
    import gc
    import io
    import weakref

    path = tmp_path / "session.json"
    path.write_text(SESSION)
    refs = []
    for args in (["places"], ["classify", "a**b"]):  # a report, an error
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit):
                main(["-i", str(path), *args])
        assert (out.getvalue() or err.getvalue()).startswith("{")
        refs += [weakref.ref(out), weakref.ref(err)]
        del out, err
    gc.collect()
    assert all(r() is None for r in refs)


def test_cli_places():
    res = _run(["-i", "session.json", "places"])
    assert res.exit_code == 0
    assert json.loads(res.output) == {"archimedean": True, "primes": [2, 3]}


def test_cli_flat_exit_codes():
    res = _run(["-i", "session.json", "flat", "a", "b"])
    assert res.exit_code == 0
    assert json.loads(res.output)["tag"] == "Lattice"
    res = _run(["-i", "session.json", "flat", "a", "c"])
    assert res.exit_code == 2
    doc = json.loads(res.output)
    assert doc["tag"] == "Degenerate"
    assert doc["nullVector"] in ([2, -1], [-2, 1])
    assert doc["witness"] == "a^2*c^-1"


def test_cli_decompose():
    res = _run(["-i", "session.json", "decompose", "a", "b"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert [blk["size"] for blk in doc["blocks"]] == [1, 1]


def test_cli_error_exit_code():
    res = _run(["-i", "session.json", "flat", "a", "u"])
    assert res.exit_code == 1
    doc = json.loads(res.output)
    assert doc["error"]["type"] == "NotCommuting"
    assert doc["error"]["module"] == "flats"

    res = _run(["-i", "session.json", "classify", "a**b"])
    assert res.exit_code == 1
    assert json.loads(res.output)["error"]["type"] == "ParseError"


def test_cli_graph_exit_codes():
    npc = json.dumps(
        {
            "tori": [{"id": "T1", "A": [["2", "0"], ["0", "1/2"]], "B": [["3", "0"], ["0", "1/3"]]}],
            "gluings": [{"torus": "T1", "U": [[0, 1], [1, 0]], "secondBasisWords": ["b", "a"]}],
        }
    )
    res = _run(["graph", "graph.json"], files={"graph.json": npc})
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["tag"] == "NPC"
    assert doc["gluings"][0]["ok"] is True

    obstructed = json.dumps(
        {"tori": [{"id": "T1", "A": [["1", "1"], ["0", "1"]], "B": [["1", "5"], ["0", "1"]]}]}
    )
    res = _run(["graph", "graph.json"], files={"graph.json": obstructed})
    assert res.exit_code == 2
    doc = json.loads(res.output)
    assert doc["tag"] == "Obstruction"
    assert doc["obstruction"]["witnessClass"]["tag"] == "Unipotent"


def test_report_determinism():
    out1 = _run(["-i", "session.json", "classify", "a*b^-1"]).output
    out2 = _run(["-i", "session.json", "classify", "a*b^-1"]).output
    assert out1 == out2
    out3 = _run(["-i", "session.json", "flat", "a", "b"]).output
    out4 = _run(["-i", "session.json", "flat", "a", "b"]).output
    assert out3 == out4


def test_text_mode():
    res = _run(["-i", "session.json", "--text", "places"])
    assert res.exit_code == 0
    assert "primes[0] = 2" in res.output


def test_usage_errors_exit_one():
    # exit code 2 is reserved for obstructions; usage problems must exit 1
    runner = CliRunner()
    res = runner.invoke(main, ["classify"])  # missing WORD argument
    assert res.exit_code == 1
    res = runner.invoke(main, ["classify", "a"])  # missing --input
    assert res.exit_code == 1


GOOD = [["2", "0"], ["0", "1/2"]]

# each of these escaped as a raw traceback (named on the right) before the
# parse layer turned it into a ParseError
MALFORMED = {
    "entry_zero_denominator": (  # ZeroDivisionError
        ["places"], {"generators": {"a": [["1/0", "0"], ["0", "1"]]}}
    ),
    "entry_not_a_number": (  # ValueError
        ["places"], {"generators": {"a": [["abc", "0"], ["0", "1"]]}}
    ),
    "field_not_a_number": (  # ValueError
        ["places"], {"field": ["x"], "generators": {"a": [["1"]]}}
    ),
    "torus_without_b": (["graph"], {"tori": [{"id": "T1", "A": GOOD}]}),  # KeyError
    "field_not_integral": (  # ValueError
        ["places"], {"field": ["1/2", "0", "1"], "generators": {"a": [["1"]]}}
    ),
    "field_coordinates_too_long": (  # ValueError
        ["places"], {"field": ["-2", "0", "1"], "generators": {"a": [[["1", "0", "0"]]]}}
    ),
    "row_not_an_array": (["places"], {"generators": {"a": [1, 2]}}),  # TypeError
    # no traceback, but each row string was read as one entry per character
    "row_is_a_string": (["places"], {"generators": {"a": ["10", "01"]}}),
    "gluing_without_u": (  # KeyError
        ["graph"],
        {
            "tori": [{"id": "T1", "A": GOOD, "B": GOOD}],
            "gluings": [{"torus": "T1", "secondBasisWords": ["a", "b"]}],
        },
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_with_parse_error(case):
    command, doc = MALFORMED[case]
    if command == ["graph"]:
        res = _run(["graph", "doc.json"], files={"doc.json": json.dumps(doc)})
    else:
        res = _run(["-i", "doc.json", *command], files={"doc.json": json.dumps(doc)})
    assert res.exit_code == 1
    error = json.loads(res.output)["error"]
    assert (error["type"], error["module"]) == ("ParseError", "cli")
    assert error["message"].startswith("parse error at position 0: expected ")


def test_tolerance_and_pd_epsilon_flags():
    res = _run(["-i", "session.json", "--tolerance", "1e-10", "--pd-epsilon", "1e-6", "flat", "a", "b"])
    assert res.exit_code == 0
    assert json.loads(res.output)["tag"] == "Lattice"
