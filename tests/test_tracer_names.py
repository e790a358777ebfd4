"""Every function the benchmark tracer rebinds must exist in the program.

bench/tracer.py resolves each name in its LAYERS table on the flatcert
package after importing flatcert.cli; a renamed or deleted function would
crash the traced benchmark run, so this fails first.
"""

import ast
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _layers() -> dict:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no LAYERS table in bench/tracer.py")


def test_traced_names_resolve():
    import flatcert
    import flatcert.cli  # noqa: F401  (the tracer loads every module through it)

    layers = _layers()
    assert layers
    missing = []
    for layer, fns in layers.items():
        home = flatcert.exact if layer == "exact" else getattr(flatcert, layer)
        missing += [f"{layer}.{fn}" for fn in fns if not callable(getattr(home, fn, None))]
    assert missing == []
