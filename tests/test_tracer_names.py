"""Every function the benchmark tracer rebinds must exist in the program.

bench/tracer.py resolves each name in its LAYERS table on the flatcert
package after importing flatcert.cli; a renamed or deleted function would
crash the traced benchmark run, so this fails first.  flatcert exports
lazily, so the names are resolved in a fresh interpreter, as the traced
cold run does, and not in this one, where other tests have already loaded
every module.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


def _layers() -> dict:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no LAYERS table in bench/tracer.py")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def test_traced_names_resolve():
    layers = _layers()
    assert layers
    probe = f"""
import flatcert
import flatcert.cli  # the tracer loads the CLI's modules through it

missing = []
for layer, fns in {layers!r}.items():
    home = flatcert.exact if layer == "exact" else getattr(flatcert, layer)
    missing += [f"{{layer}}.{{fn}}" for fn in fns if not callable(getattr(home, fn, None))]
print(missing)
"""
    out = subprocess.run(
        [sys.executable, "-c", probe], env=_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_traced_cold_cli_call_writes_its_spans(tmp_path):
    # the traced half of the benchmark runs each cli-cold request through
    # bench/cold_cli.py, which installs the tracer before the command runs;
    # it is run read-only, with no bytecode written under bench/
    session = {"generators": {"d": [["2", "0"], ["0", "1/2"]], "f": [["3", "0"], ["0", "1/3"]]}}
    (tmp_path / "session.json").write_text(json.dumps(session))
    spans = tmp_path / "spans.json"
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "cold_cli.py"), str(spans),
         "-i", str(tmp_path / "session.json"), "flat", "d", "f"],
        cwd=tmp_path, env=dict(_env(), PYTHONDONTWRITEBYTECODE="1"), capture_output=True,
        text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["tag"] == "Lattice"
    layers = json.loads(spans.read_text(encoding="utf-8"))["layers"]
    assert layers["session.parse_session"][0] == 1
    assert layers["report.render_json"][0] >= 1
