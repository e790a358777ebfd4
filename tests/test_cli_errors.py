"""The structured error report: one pinned error per module, and a fuzz test
that no malformed session or graph document escapes it."""

import copy
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr
from pathlib import Path
from fractions import Fraction

import click
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from flatcert import errors
from flatcert.cli import Options, main
from flatcert.manifold import InvalidGraphRep, Violation


def _run(args, doc: str):
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("doc.json", "w") as fh:
            fh.write(doc)
        return runner.invoke(main, args, catch_exceptions=False)


def _error_json(type_, module, message):
    return json.dumps(
        {"error": {"message": message, "module": module, "type": type_}},
        indent=2,
        sort_keys=True,
    ) + "\n"


# -- one pinned error report per module ------------------------------------

SESSION = json.dumps(
    {"generators": {"a": [["2", "0"], ["0", "1/2"]], "u": [["1", "1"], ["0", "1"]]}}
)

PINNED = {
    "exact": (
        ["places"],
        json.dumps({"field": ["-1", "0", "1"], "generators": {"g": [["1"]]}}),
        _error_json(
            "NotIrreducible",
            "exact",
            "polynomial Poly(-1 + x^2) is reducible; factor: Poly(-1 + x)",
        ),
    ),
    "linalg": (
        ["places"],
        json.dumps({"generators": {"g": [["2", "0"], ["0", "1"]]}}),
        _error_json("DeterminantNotOne", "linalg", "generator 'g' has determinant 2, expected 1"),
    ),
    "flats": (
        ["flat", "a", "u"],
        SESSION,
        _error_json("NotCommuting", "flats", "generators 'a' and 'u' do not commute"),
    ),
    "places": (
        ["classify", "--direction", "u"],
        SESSION,
        _error_json(
            "NotBallistic",
            "places",
            "element classifies Unipotent; direction is defined for ballistic elements",
        ),
    ),
    "cli": (
        ["classify", "a**u"],
        SESSION,
        _error_json(
            "ParseError",
            "cli",
            "parse error at position 2: expected a generator name or '(', found '*'",
        ),
    ),
}


@pytest.mark.parametrize("module", sorted(PINNED))
def test_error_report_bytes_per_module(module):
    command, doc, expected = PINNED[module]
    res = _run(["-i", "doc.json", *command], doc)
    assert res.exit_code == 1
    assert res.stderr == expected


def test_field_determinant_error_bytes():
    # a field determinant prints as its exact power-basis coordinates
    doc = json.dumps({"field": ["-2", "0", "1"], "generators": {"g": [[["3", "2"], "0"], ["0", "1"]]}})
    res = _run(["-i", "doc.json", "places"], doc)
    assert res.exit_code == 1
    assert res.stderr == _error_json(
        "DeterminantNotOne", "linalg", "generator 'g' has determinant [3, 2], expected 1"
    )


def test_graph_determinant_error_names_the_torus_basis():
    tori = [
        {"id": "T1", "A": [["1", "0"], ["0", "1"]], "B": [["1", "0"], ["0", "1"]]},
        {"id": "T2", "A": [["1", "0"], ["0", "1"]], "B": [["2", "0"], ["0", "1"]]},
    ]
    res = _run(["graph", "doc.json"], json.dumps({"tori": tori, "gluings": []}))
    assert res.exit_code == 1
    assert res.stderr == _error_json(
        "DeterminantNotOne", "linalg", "torus 'T2' basis image B has determinant 2, expected 1"
    )


def _classify_power_in_subprocess(tmp_path, k: int) -> subprocess.CompletedProcess:
    """classify h^k, h = [[2, 1], [1, 1]], in a fresh CLI process."""
    return _classify_in_subprocess(tmp_path, {"h": [["2", "1"], ["1", "1"]]}, f"h^{k}")


def _classify_in_subprocess(tmp_path, generators: dict, word: str) -> subprocess.CompletedProcess:
    (tmp_path / "doc.json").write_text(json.dumps({"generators": generators}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run(
        [sys.executable, "-m", "flatcert.cli", "-i", "doc.json", "classify", word],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )


def _assert_tolerance_not_reached(out: subprocess.CompletedProcess):
    # the error report goes to stderr, as for every FlatcertError
    assert (out.returncode, out.stdout) == (1, "")
    assert "Traceback" not in out.stderr
    assert json.loads(out.stderr)["error"]["type"] == "ToleranceNotReached"


@pytest.mark.parametrize("k", [1500, 2000])
def test_charpoly_beyond_double_range_is_a_structured_error(tmp_path, k):
    """The charpoly of h^k has a coefficient near 2.6^k, past the largest
    double: the root finder reports ToleranceNotReached instead of escaping
    with OverflowError."""
    _assert_tolerance_not_reached(_classify_power_in_subprocess(tmp_path, k))


@pytest.mark.parametrize("k", [229, 230, 244, 245, 264, 282, 305, 309, 323, 365])
def test_root_lost_to_zero_is_a_structured_error(tmp_path, k):
    """For these k the root 2.6^-k of the charpoly of h^k comes out of the
    root finder as 0.0, where math.log used to raise ValueError.  The
    charpoly of a det-1 matrix has no zero root, so that is a failed
    isolation: ToleranceNotReached."""
    _assert_tolerance_not_reached(_classify_power_in_subprocess(tmp_path, k))


@pytest.mark.parametrize(
    "generators, word, estimate",
    [
        # was still running after 30 s
        ({"h": [["2", "1"], ["1", "1"]]}, "h^10000000", 80000000),
        # ran at full CPU for over 2 minutes
        ({"a": [["2", "0"], ["0", "1/2"]]}, "a^99999999999999999999", 899999999999999999991),
    ],
)
def test_huge_power_is_a_budget_error(tmp_path, generators, word, estimate):
    out = _classify_in_subprocess(tmp_path, generators, word)
    assert (out.returncode, out.stdout) == (1, "")
    assert out.stderr == _error_json(
        "BudgetExceeded",
        "words",
        f"the power {word} needs an estimated {estimate} bits, over the budget of 4194304",
    )


def test_huge_gluing_entry_is_a_budget_error():
    # validate evaluates the U-words a^u0j * b^u1j; with u01 = 10^8 and a
    # hyperbolic a it ran past 20 s
    torus = {"id": "T1", "A": [["2", "1"], ["1", "1"]], "B": [["1", "0"], ["0", "1"]]}
    gluing = {"torus": "T1", "U": [[1, 10**8], [0, 1]], "secondBasisWords": ["a", "b"]}
    res = _run(["graph", "doc.json"], json.dumps({"tori": [torus], "gluings": [gluing]}))
    assert res.exit_code == 1
    assert res.stderr == _error_json(
        "BudgetExceeded",
        "words",
        "the power a^100000000 needs an estimated 800000000 bits, over the budget of 4194304",
    )


@pytest.mark.parametrize(
    "entry",
    ['"1' + "0" * 4999 + '"', "1" + "0" * 4999, "[" * 100000 + "]" * 100000],
    ids=["5000-digit-string", "5000-digit-number", "deep-nesting"],
)
@pytest.mark.parametrize("args", [["-i", "doc.json", "places"], ["graph", "doc.json"]])
def test_oversized_entry_is_a_parse_error(args, entry):
    """Past int()'s digit limit for strings, and past the recursion limit of
    the JSON decoder, an entry is refused with a report, not a traceback,
    and the report does not echo the whole entry."""
    row = f'[[{entry}, "0"], ["0", "1"]]'
    doc = (
        f'{{"generators": {{"a": {row}}}}}'
        if args[0] == "-i"
        else f'{{"tori": [{{"id": "T1", "A": {row}, "B": [["1", "0"], ["0", "1"]]}}]}}'
    )
    res = _run(args, doc)
    assert (res.exit_code, res.stdout) == (1, "")
    assert json.loads(res.stderr)["error"]["type"] == "ParseError"
    assert len(res.stderr.encode()) < 1000


def _nested(depth: int) -> str:
    return "(" * depth + "a" + ")" * depth


@pytest.mark.parametrize("depth, code", [(200, 0), (400, 1)])
def test_deeply_nested_word_is_a_parse_error(depth, code):
    """Parentheses nested past the recursion limit are refused with a
    report, not a RecursionError traceback; a 200-deep word still parses."""
    doc = json.dumps({"generators": {"a": [["2", "1"], ["1", "1"]]}})
    res = _run(["-i", "doc.json", "classify", _nested(depth)], doc)
    assert res.exit_code == code
    if code:
        assert res.stdout == ""
        assert json.loads(res.stderr)["error"]["type"] == "ParseError"
    else:
        assert json.loads(res.stdout)["tag"] == "Ballistic"


def test_deeply_nested_second_basis_word_is_a_parse_error():
    torus = {"id": "T1", "A": [["2", "1"], ["1", "1"]], "B": [["1", "0"], ["0", "1"]]}
    gluing = {"torus": "T1", "U": [[1, 0], [0, 1]], "secondBasisWords": [_nested(400), "b"]}
    res = _run(["graph", "doc.json"], json.dumps({"tori": [torus], "gluings": [gluing]}))
    assert (res.exit_code, res.stdout) == (1, "")
    assert json.loads(res.stderr)["error"]["type"] == "ParseError"


def test_huge_power_is_refused_in_under_a_second():
    # in process, so the time is the request's own and not interpreter start-up
    doc = json.dumps({"generators": {"h": [["2", "1"], ["1", "1"]]}})
    t0 = time.perf_counter()
    res = _run(["-i", "doc.json", "classify", "h^10000000"], doc)
    assert time.perf_counter() - t0 < 1.0
    assert res.exit_code == 1
    assert json.loads(res.stderr)["error"]["type"] == "BudgetExceeded"


def test_usage_error_exit_code_leaves_click_alone():
    # the CLI gives its own usage errors exit 1 without patching click's class
    assert click.exceptions.UsageError.exit_code == 2
    res = CliRunner().invoke(main, ["classify", "a"])
    assert res.exit_code == 1
    assert res.stderr == (
        "Usage: main classify [OPTIONS] WORD\n"
        "Try 'main classify --help' for help.\n"
        "\n"
        "Error: this command needs a session file: --input FILE\n"
    )
    # a usage error of the group's own options exits 1 too
    res = CliRunner().invoke(main, ["--tolerance", "x", "places"])
    assert res.exit_code == 1
    assert res.stderr.endswith("Error: Invalid value for '--tolerance': 'x' is not a valid float.\n")


# -- bad flag values and unreadable inputs -----------------------------------

FLAG_SESSION = json.dumps(
    {
        "generators": {
            "a": [["2", "1"], ["1", "1"]],
            "d": [["2", "0"], ["0", "1/2"]],
            "e": [["1", "0"], ["0", "1"]],
        }
    }
)


@pytest.mark.parametrize(
    "flag, value, command",
    [
        ("--tolerance", "0", ["classify", "a"]),  # was a ValueError traceback
        ("--tolerance", "-1", ["classify", "a"]),  # was a ValueError traceback
        ("--tolerance", "nan", ["classify", "a"]),  # was ToleranceNotReached
        ("--tolerance", "inf", ["classify", "a"]),
        ("--pd-epsilon", "-1", ["flat", "d", "e"]),  # was Lattice of covolume 0
        ("--pd-epsilon", "0", ["flat", "a", "a"]),  # was Lattice of covolume 2.87e-8
        ("--pd-epsilon", "nan", ["flat", "d", "e"]),
        ("--pd-epsilon", "inf", ["flat", "d", "e"]),
    ],
)
def test_tolerance_and_pd_epsilon_must_be_finite_and_positive(flag, value, command):
    res = _run([flag, value, "-i", "doc.json", *command], FLAG_SESSION)
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr.endswith(
        f"Error: Invalid value for '{flag}': {float(value)!r} is not a finite float > 0.\n"
    )


@pytest.mark.parametrize(
    "path, reason", [("missing.json", "does not exist"), ("folder", "is a directory")]
)
def test_unreadable_session_path_is_a_usage_error(path, reason):
    # the same click error that `graph FILE` gives, instead of an OSError traceback
    runner = CliRunner()
    with runner.isolated_filesystem():
        Path("folder").mkdir()
        session = runner.invoke(main, ["-i", path, "places"], catch_exceptions=False)
        graph = runner.invoke(main, ["graph", path], catch_exceptions=False)
    assert (session.exit_code, graph.exit_code) == (1, 1)
    assert session.stderr.endswith(
        f"Error: Invalid value for '--input' / '-i': File '{path}' {reason}.\n"
    )
    assert graph.stderr.endswith(f"Error: Invalid value for 'FILE': File '{path}' {reason}.\n")


@pytest.mark.parametrize("args", [["-i", "doc.json", "places"], ["graph", "doc.json"]])
def test_non_utf8_input_is_a_parse_error(args):
    runner = CliRunner()
    with runner.isolated_filesystem():
        Path("doc.json").write_bytes(b'{"generators": {"a": [["2\xff", "0"]]}}')
        res = runner.invoke(main, args, catch_exceptions=False)
    assert res.exit_code == 1
    assert res.stderr == _error_json(
        "ParseError", "cli", "parse error at position 25: expected UTF-8 text, found b'\\xff'"
    )


def test_input_newlines_read_as_open_reads_them():
    # a JSON error on a file with CR newlines reports the same line as on LF
    for newline in ("\n", "\r\n", "\r"):
        res = _run(["-i", "doc.json", "places"], newline.join(["{", '"generators": ]', "}"]))
        assert res.exit_code == 1
        assert json.loads(res.stderr)["error"]["message"].startswith("parse error at line 2, ")


@pytest.mark.parametrize(
    "exc, expected",
    [
        (
            InvalidGraphRep([Violation("T1", "UnknownTorus")]),
            _error_json(
                "InvalidGraphRep",
                "manifold",
                "graph representation failed validation: UnknownTorus on torus 'T1'",
            ),
        ),
        (errors.FlatcertError("boom"), _error_json("FlatcertError", "internal", "boom")),
    ],
)
def test_error_report_bytes_outside_the_commands(exc, expected):
    # the graph command reports InvalidGraphRep as an Invalid tag, so the
    # manifold and internal modules are pinned through Options.fail itself
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as stop:
        Options(None, 1e-12, 1e-8, True).fail(exc)
    assert stop.value.code == 1
    assert err.getvalue() == expected


ERROR_MODULES = {
    "NotMonic": "exact",
    "NotIrreducible": "exact",
    "ToleranceNotReached": "exact",
    "ZeroConstantTerm": "exact",
    "DeterminantNotOne": "linalg",
    "DimensionMismatch": "linalg",
    "UnknownGenerator": "linalg",
    "NotCommuting": "flats",
    "NumericalInconclusive": "flats",
    "NotBallistic": "places",
    "PlaceSetIncomplete": "places",
    "BudgetExceeded": "words",
    "ParseError": "cli",
    "InvalidGraphRep": "manifold",
}


def test_every_error_class_names_its_module():
    classes = {cls.__name__: cls.module for cls in errors.FlatcertError.__subclasses__()}
    assert classes == ERROR_MODULES
    assert errors.FlatcertError.module == "internal"


# -- fuzz: malformed documents exit 1 with the structured error ------------

M = [["2", "0"], ["0", "1/2"]]
SESSION_Q = {"generators": {"a": M, "b": [["3", "0"], ["0", "1/3"]]}}
SESSION_FIELD = {
    "field": ["-2", "0", "1"],
    "generators": {"g": [[["0", "1"], "0"], ["0", ["0", "1/2"]]]},
}
GRAPH = {
    "tori": [{"id": "T1", "A": M, "B": [["3", "0"], ["0", "1/3"]]}],
    "gluings": [{"torus": "T1", "U": [[0, 1], [1, 0]], "secondBasisWords": ["b", "a"]}],
}

NOT_OBJECT = st.sampled_from([[], [1], "x", 0, 1.5, True, None])
NOT_ARRAY = st.sampled_from([{}, {"a": 1}, "x", "ab", 0, 2, 1.5, True, None])
NOT_STRING = st.sampled_from([[], ["a"], {}, 0, 1, 1.5, True, None])
NOT_NAME = st.sampled_from(["", "A", "Bad", "1a", "_a", "a-b", "a b", "a\n"])


def _not_rational(s: str) -> bool:
    try:
        Fraction(s)
    except (ValueError, ZeroDivisionError):
        return True
    return False


BAD_TEXT = st.one_of(
    st.sampled_from(["", " ", "abc", "1/0", "0/0", "1//2", "1/", "/2", "--1", "nan", "inf"]),
    st.text(max_size=6).filter(_not_rational),
)
# not a scalar in any session: coordinate arrays are checked separately
BAD_SCALAR = st.one_of(BAD_TEXT, st.sampled_from([1.5, -0.0, True, False, None, {}, {"p": 1}]))


def _matrices(doc):
    """(container, key) of every matrix in a session or graph document."""
    if "generators" in doc:
        return [(doc["generators"], name) for name in sorted(doc["generators"])]
    return [(t, k) for t in doc["tori"] for k in ("A", "B")]


@st.composite
def _malformed_matrix(draw, doc):
    """Break one matrix of doc in place: its type, a row's type, an entry,
    its squareness or the length of one row."""
    box, key = draw(st.sampled_from(_matrices(doc)))
    rows = box[key]
    n = len(rows)
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(["matrix", "empty", "row", "entry", "coords", "wide", "tall", "ragged"]))
    if kind == "matrix":
        box[key] = draw(NOT_ARRAY)
    elif kind == "empty":
        box[key] = draw(st.sampled_from([[], [[]], [[], []]]))
    elif kind == "row":
        rows[i] = draw(NOT_ARRAY)
    elif kind == "entry":
        rows[i][j] = draw(BAD_SCALAR)
    elif kind == "coords":
        # no field: any array is bad; Q(sqrt2): too many or bad coordinates
        bad = draw(BAD_SCALAR)
        rows[i][j] = draw(st.sampled_from([[bad], ["1", bad], ["1", "0", "0"], [["1"]]]))
    elif kind == "wide":
        for r in rows:
            r.append("0")
    elif kind == "tall":
        rows.append(["0"] * n)
    else:
        if draw(st.booleans()):
            rows[i].append("0")
        else:
            rows[i].pop()


@st.composite
def malformed_sessions(draw):
    doc = copy.deepcopy(draw(st.sampled_from([SESSION_Q, SESSION_FIELD])))
    kind = draw(st.sampled_from(["top", "generators", "name", "field", "coefficient", "matrix"]))
    if kind == "top":
        return draw(NOT_OBJECT)
    if kind == "generators":
        if draw(st.booleans()):
            del doc["generators"]
        else:
            doc["generators"] = draw(st.one_of(NOT_OBJECT, st.just({})))
    elif kind == "name":
        name = draw(st.sampled_from(sorted(doc["generators"])))
        doc["generators"][draw(NOT_NAME)] = doc["generators"].pop(name)
    elif kind == "field":
        doc["field"] = draw(st.one_of(NOT_ARRAY.filter(lambda v: v is not None), st.just([])))
    elif kind == "coefficient":
        coeffs = doc.setdefault("field", ["-2", "0", "1"])
        coeffs[draw(st.integers(0, len(coeffs) - 1))] = draw(
            st.one_of(BAD_SCALAR, st.sampled_from([["1"], []]))
        )
    else:
        draw(_malformed_matrix(doc))
    return doc


@st.composite
def malformed_graphs(draw):
    doc = copy.deepcopy(GRAPH)
    torus, gluing = doc["tori"][0], doc["gluings"][0]
    kind = draw(
        st.sampled_from(
            ["top", "tori", "torus", "torus_key", "id", "gluings", "gluing", "gluing_key",
             "torus_ref", "u", "u_row", "u_entry", "words", "word", "matrix"]
        )
    )
    if kind == "top":
        return draw(NOT_OBJECT)
    if kind == "tori":
        if draw(st.booleans()):
            del doc["tori"]
        else:
            doc["tori"] = draw(st.one_of(NOT_ARRAY.filter(lambda v: v is not None), st.just([])))
    elif kind == "torus":
        doc["tori"][0] = draw(NOT_OBJECT)
    elif kind == "torus_key":
        del torus[draw(st.sampled_from(["id", "A", "B"]))]
    elif kind == "id":
        torus["id"] = draw(NOT_STRING)
    elif kind == "gluings":
        doc["gluings"] = draw(NOT_ARRAY)
    elif kind == "gluing":
        doc["gluings"][0] = draw(NOT_OBJECT)
    elif kind == "gluing_key":
        del gluing[draw(st.sampled_from(["torus", "U", "secondBasisWords"]))]
    elif kind == "torus_ref":
        gluing["torus"] = draw(NOT_STRING)
    elif kind == "u":
        gluing["U"] = draw(st.one_of(NOT_ARRAY, st.sampled_from([[], [[0, 1]], [[0, 1], [1, 0], [0, 0]]])))
    elif kind == "u_row":
        gluing["U"][draw(st.integers(0, 1))] = draw(
            st.one_of(NOT_ARRAY, st.sampled_from([[], [1], [1, 0, 0]]))
        )
    elif kind == "u_entry":
        gluing["U"][draw(st.integers(0, 1))][draw(st.integers(0, 1))] = draw(
            st.one_of(BAD_SCALAR, st.sampled_from(["1", "0", [1], 1.0]))
        )
    elif kind == "words":
        gluing["secondBasisWords"] = draw(
            st.one_of(NOT_ARRAY, st.sampled_from([[], ["a"], ["b", "a", "a"]]))
        )
    elif kind == "word":
        gluing["secondBasisWords"][draw(st.integers(0, 1))] = draw(NOT_STRING)
    else:
        draw(_malformed_matrix(doc))
    return doc


def _assert_structured_error(res):
    assert res.exit_code == 1, res.output
    assert "Traceback" not in res.output
    report = json.loads(res.stderr)
    assert list(report) == ["error"]
    assert sorted(report["error"]) == ["message", "module", "type"]
    assert res.stdout == ""


@settings(max_examples=150, deadline=None)
@given(malformed_sessions())
def test_malformed_session_exits_with_structured_error(doc):
    _assert_structured_error(_run(["-i", "doc.json", "places"], json.dumps(doc)))


@settings(max_examples=150, deadline=None)
@given(malformed_graphs())
def test_malformed_graph_exits_with_structured_error(doc):
    _assert_structured_error(_run(["graph", "doc.json"], json.dumps(doc)))
