"""sympy is loaded only by the commands that factor over Q at parse time.

Importing sympy costs about a third of a second, paid by every CLI call if
any module imports it at top level; each check runs in a fresh interpreter
so that modules loaded by other tests do not leak in.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _sympy_loaded_after(code: str) -> bool:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    probe = f"import sys\n{code}\nprint('sympy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip() == "True"


def test_cli_import_does_not_load_sympy():
    assert not _sympy_loaded_after("import flatcert.cli")


def test_field_session_loads_sympy():
    doc = {"field": ["-2", "0", "1"], "generators": {"g": [["1", "0"], ["0", "1"]]}}
    code = f"from flatcert import parse_session\nparse_session({json.dumps(json.dumps(doc))})"
    assert _sympy_loaded_after(code)
