"""Construction-oracle sweep of `decompose`: seeded commuting families from
bench/gen.py, whose blocks are known from their construction, are checked
by bench/oracle.py against the report the CLI prints.

The bench modules are imported read-only: no bytecode is written under
bench/.
"""

import json
import random
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from flatcert.cli import main

BENCH = str(Path(__file__).resolve().parents[1] / "bench")

_write_bytecode = sys.dont_write_bytecode
sys.dont_write_bytecode = True
sys.path.insert(0, BENCH)
try:
    import gen
    import oracle
finally:
    sys.path.remove(BENCH)
    sys.dont_write_bytecode = _write_bytecode

# (field degree, n) with n * d from 2 to 16
CASES = [(d, n) for d in (1, 2, 4) for n in range(2, 16 // d + 1)]


@pytest.mark.parametrize("d, n", CASES, ids=[f"d{d}-nd{n * d}" for d, n in CASES])
def test_decompose_matches_construction(tmp_path, d, n):
    fld = gen.FIELDS[d]
    for seed in range(3):
        rng = random.Random(f"decompose/{d}/{n}/{seed}")
        # with repeat two slots agree in every member and share a block;
        # it draws n - 1 slots in inverse pairs, so it needs n >= 3
        models = gen.family(rng, n, d, 2, dependent=False, repeat=n >= 3)
        doc, _ = gen.build_doc(rng, fld, dict(zip("ab", models)), "generators")
        path = tmp_path / f"s{seed}.json"
        path.write_text(json.dumps(doc))
        res = CliRunner().invoke(main, ["-i", str(path), "decompose", "a", "b"])
        oracle.check(oracle.expect_blocks(models, fld), res.exit_code, res.stdout)
