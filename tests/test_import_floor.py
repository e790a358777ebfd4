"""Neither numpy nor sympy is ever loaded: factoring over Q is flatcert's
own, so number-field sessions and `decompose` need no sympy either.

Importing sympy costs about a third of a second and numpy about a tenth,
paid by every CLI call that loads them; each check runs in a fresh
interpreter so that modules loaded by other tests do not leak in.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _loaded_after(module: str, code: str) -> bool:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    probe = f"import sys\n{code}\nprint({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip() == "True"


def test_cli_import_does_not_load_sympy():
    assert not _loaded_after("sympy", "import flatcert.cli")


def test_cli_import_does_not_load_numpy():
    assert not _loaded_after("numpy", "import flatcert.cli")


def test_field_session_does_not_load_sympy():
    doc = {"field": ["-2", "0", "1"], "generators": {"g": [["1", "0"], ["0", "1"]]}}
    code = f"from flatcert import parse_session\nparse_session({json.dumps(json.dumps(doc))})"
    assert not _loaded_after("sympy", code)


def test_no_module_imports_sympy():
    imported = []
    for path in sorted((SRC / "flatcert").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            imported += [path.name for name in names if name.split(".")[0] == "sympy"]
    assert imported == []


def _cli_loads(module: str, argv: list[str], expect: str) -> bool:
    code = (
        "from click.testing import CliRunner\n"
        "from flatcert.cli import main\n"
        f"res = CliRunner().invoke(main, {argv!r})\n"
        f"assert {expect!r} in res.output, res.output"
    )
    return _loaded_after(module, code)


GRAPH = {
        "tori": [
            {"id": "T1", "A": [["2", "0"], ["0", "1/2"]], "B": [["3", "0"], ["0", "1/3"]]},
            {"id": "T2", "A": [["2", "1"], ["1", "1"]], "B": [["5", "3"], ["3", "2"]]},
        ],
        "gluings": [{"torus": "T1", "U": [[0, 1], [1, 0]], "secondBasisWords": ["b", "a"]}],
    }


def test_graph_over_q_does_not_load_sympy(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(GRAPH))
    assert not _cli_loads("sympy", ["graph", str(path)], '"tag"')


@pytest.mark.parametrize(
    "argv, expect",
    [
        (["graph", "graph.json"], '"Obstruction"'),
        (["-i", "session.json", "flat", "d", "f"], '"Lattice"'),
        (["-i", "session.json", "flat", "d", "d"], '"Degenerate"'),
    ],
)
def test_graph_and_flat_do_not_load_numpy(tmp_path, monkeypatch, argv, expect):
    session = {"generators": {"d": [["2", "0"], ["0", "1/2"]], "f": [["3", "0"], ["0", "1/3"]]}}
    (tmp_path / "session.json").write_text(json.dumps(session))
    (tmp_path / "graph.json").write_text(json.dumps(GRAPH))
    monkeypatch.chdir(tmp_path)
    assert not _cli_loads("numpy", argv, expect)


def test_ballistic_classify_over_q_does_not_load_sympy(tmp_path):
    doc = {"generators": {"a": [["2", "1"], ["1", "1"]], "d": [["2", "0"], ["0", "1/2"]]}}
    path = tmp_path / "session.json"
    path.write_text(json.dumps(doc))
    assert not _cli_loads("sympy", ["-i", str(path), "classify", "a*d"], "Ballistic")


# g = diag(1 + sqrt2, sqrt2 - 1) over Q(sqrt2) is ballistic, and the
# charpoly of its 4x4 embedding is (x^2 - 2x - 1)(x^2 + 2x - 1), so making
# the field and decomposing {g, h} both factor over Q
FIELD_SESSION = {
    "field": ["-2", "0", "1"],
    "generators": {
        "g": [[["1", "1"], "0"], ["0", ["-1", "1"]]],
        "h": [[["3", "2"], "0"], ["0", ["3", "-2"]]],
    },
}


@pytest.mark.parametrize(
    "argv, expect",
    [
        (["-i", "field.json", "classify", "--direction", "g"], '"units"'),
        (["-i", "field.json", "decompose", "g", "h"], '"blocks"'),
        (["-i", "session.json", "decompose", "d", "f"], '"blocks"'),
        (["-i", "session.json", "places"], '"primes"'),
        (["-i", "session.json", "flat", "d", "f"], '"Lattice"'),
    ],
)
def test_subcommands_do_not_load_sympy(tmp_path, monkeypatch, argv, expect):
    session = {"generators": {"d": [["2", "0"], ["0", "1/2"]], "f": [["3", "0"], ["0", "1/3"]]}}
    (tmp_path / "session.json").write_text(json.dumps(session))
    (tmp_path / "field.json").write_text(json.dumps(FIELD_SESSION))
    monkeypatch.chdir(tmp_path)
    assert not _cli_loads("sympy", argv, expect)
