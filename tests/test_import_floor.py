"""Neither numpy nor sympy is ever loaded: factoring over Q is flatcert's
own, so number-field sessions and `decompose` need no sympy either.  And
each subcommand loads only the flatcert modules it runs.

Importing sympy costs about a third of a second and numpy about a tenth,
paid by every CLI call that loads them; without a bytecode cache every
flatcert module a call loads is compiled again.  Each check runs in a
fresh interpreter so that modules loaded by other tests do not leak in.
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


# -- the flatcert modules each subcommand loads ------------------------------

# session and report, and what session imports: every command parses a
# document and renders a report
CORE = {
    "flatcert",
    "flatcert.errors",
    "flatcert.exact",
    "flatcert.exact.integers",
    "flatcert.exact.newton",
    "flatcert.exact.numberfield",
    "flatcert.exact.poly",
    "flatcert.exact.roots",
    "flatcert.linalg",
    "flatcert.places",
    "flatcert.report",
    "flatcert.session",
    "flatcert.words",
}
FACTOR = {"flatcert.exact.factor"}
BLOCKS = {"flatcert.blocks"}
FLATS = {"flatcert.blocks", "flatcert.flats"}
GRAPH_MODULES = FLATS | {"flatcert.manifold"}


LOADED_MARK = "flatcert modules loaded: "


def _flatcert_modules(code: str, cwd) -> tuple[int, set[str]]:
    """The exit code of a fresh interpreter that runs code, and the
    flatcert.* modules in its sys.modules when it exits.  The list goes to
    stderr on a marked line of its own, as the code's reports go to stdout
    and a traceback to the end of stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    probe = (
        "import sys\n"
        "try:\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + "finally:\n"
        "    loaded = [k for k in sys.modules if k.split('.')[0] == 'flatcert']\n"
        f"    print({LOADED_MARK!r} + repr(sorted(loaded)), file=sys.stderr, flush=True)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], cwd=cwd, env=env, capture_output=True, text=True
    )
    print(out.stderr, file=sys.stderr)  # pytest shows it when the test fails
    marked = [ln for ln in out.stderr.splitlines() if ln.startswith(LOADED_MARK)]
    assert marked, f"the probe printed no module list (exit {out.returncode}):\n{out.stderr}"
    return out.returncode, set(ast.literal_eval(marked[-1][len(LOADED_MARK):]))


@pytest.mark.parametrize(
    "argv, code, loaded",
    [
        (["-i", "session.json", "places"], 0, CORE),
        (["-i", "session.json", "classify", "a*d"], 0, CORE),
        (["-i", "session.json", "classify", "--direction", "d"], 0, CORE),
        (["-i", "field.json", "classify", "--direction", "g"], 0, CORE | FACTOR),
        (["-i", "session.json", "decompose", "d", "f"], 0, CORE | FACTOR | BLOCKS),
        (["-i", "session.json", "flat", "d", "f"], 0, CORE | FLATS),
        (["graph", "graph.json"], 2, CORE | GRAPH_MODULES),
    ],
)
def test_each_subcommand_loads_only_what_it_runs(tmp_path, argv, code, loaded):
    """A fresh `python -m flatcert.cli` per subcommand: places and classify
    over Q load none of blocks, flats, manifold, parallel or the
    factorizer, flat loads no manifold, and only a request that factors
    loads exact.factor."""
    session = {
        "generators": {
            "a": [["2", "1"], ["1", "1"]],
            "d": [["2", "0"], ["0", "1/2"]],
            "f": [["3", "0"], ["0", "1/3"]],
        }
    }
    (tmp_path / "session.json").write_text(json.dumps(session))
    (tmp_path / "field.json").write_text(json.dumps(FIELD_SESSION))
    (tmp_path / "graph.json").write_text(json.dumps(GRAPH))
    run = (
        "import runpy\n"
        f"sys.argv = ['flatcert', *{argv!r}]\n"
        "runpy.run_module('flatcert.cli', run_name='__main__', alter_sys=True)"
    )
    assert _flatcert_modules(run, tmp_path) == (code, loaded)


def test_import_flatcert_loads_no_submodule(tmp_path):
    assert _flatcert_modules("import flatcert", tmp_path) == (0, {"flatcert"})


def test_import_cli_loads_only_the_core(tmp_path):
    assert _flatcert_modules("import flatcert.cli", tmp_path) == (0, CORE | {"flatcert.cli"})


def test_lazy_exports_resolve(tmp_path):
    # every public name and every submodule resolves on first access, and
    # the names that no command runs are gone
    code = (
        "import flatcert\n"
        "for name in flatcert.__all__:\n"
        "    getattr(flatcert, name)\n"
        "assert flatcert.exact.factor_q is flatcert.factor_q\n"
        "assert flatcert.linalg.block_decompose is flatcert.block_decompose\n"
        "assert callable(flatcert.parallel.pmap)\n"
        "for home, names in ((flatcert, ('tits_angle', 'finite_order', 'is_unipotent',\n"
        "                                'NewtonSlopes', 'PlaceSet', 'NumberField')),\n"
        "                    (flatcert.exact, ('NumberField',)),\n"
        "                    (flatcert.linalg, ('verify_commuting', 'CommutationWitness',\n"
        "                                       'BlockDecomposition'))):\n"
        "    for name in names:\n"
        "        assert not hasattr(home, name), name"
    )
    # report and cli hold no public name, and nothing asked for the factorizer
    loaded = CORE - {"flatcert.report"} | GRAPH_MODULES | {"flatcert.parallel"}
    assert _flatcert_modules(code, tmp_path) == (0, loaded)
