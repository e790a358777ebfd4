"""Report bytes of number-field requests, compared byte for byte with the
exit code, stdout and stderr recorded in field_reports.json.

The cases cover Q(sqrt2), Q(2^(1/4)) and a degree-1 field: every report
subcommand, one graph document with a "field" key, one text report, and
the determinant errors of a generic, a singular and a rational grid.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from flatcert.cli import main
from test_import_floor import FIELD_SESSION

# Q(alpha), alpha^4 = 2: u = 1 + alpha is a unit with
# u^-1 = -1 + alpha - alpha^2 + alpha^3, and alpha^-1 = alpha^3 / 2
U4, U4_INV = ["1", "1", "0", "0"], ["-1", "1", "-1", "1"]
ALPHA4, ALPHA4_INV = ["0", "1", "0", "0"], ["0", "0", "0", "1/2"]
ROOT4 = ["-2", "0", "0", "0", "1"]

SESSIONS = {
    "sqrt2.json": FIELD_SESSION,
    "root4.json": {
        "field": ROOT4,
        "generators": {
            "g": [[U4, "0"], ["0", U4_INV]],
            "h": [[ALPHA4, "0"], ["0", ALPHA4_INV]],
            # det = 0 * u + 1 = 1, with a zero pivot in the first column
            "k": [["0", "-1"], ["1", U4]],
        },
    },
    "root4_det.json": {"field": ROOT4, "generators": {"g": [[ALPHA4, "1"], ["1", ALPHA4]]}},
    "root4_singular.json": {"field": ROOT4, "generators": {"g": [[ALPHA4, ALPHA4], [ALPHA4, ALPHA4]]}},
    "degree1_det.json": {"field": ["-3", "1"], "generators": {"g": [["2", "0"], ["0", ["1"]]]}},
    "graph.json": {
        "field": ["-2", "0", "1"],
        "tori": [
            {
                "id": "T1",
                "A": [[["1", "1"], "0"], ["0", ["-1", "1"]]],
                "B": [[["0", "1"], "0"], ["0", ["0", "1/2"]]],
            },
            {"id": "T2", "A": [["2", "1"], ["1", "1"]], "B": [["5", "3"], ["3", "2"]]},
        ],
        "gluings": [{"torus": "T1", "U": [[0, 1], [1, 0]], "secondBasisWords": ["b", "a"]}],
    },
}

CASES = {
    "sqrt2-places": ["-i", "sqrt2.json", "places"],
    "sqrt2-classify-direction": ["-i", "sqrt2.json", "classify", "--direction", "g"],
    "sqrt2-flat-degenerate": ["-i", "sqrt2.json", "flat", "g", "h"],
    "sqrt2-decompose": ["-i", "sqrt2.json", "decompose", "g", "h"],
    "sqrt2-text-classify": ["--text", "-i", "sqrt2.json", "classify", "--direction", "g"],
    "root4-classify": ["-i", "root4.json", "classify", "k*g^2"],
    "root4-flat": ["-i", "root4.json", "flat", "g", "h"],
    "root4-det": ["-i", "root4_det.json", "places"],
    "root4-singular": ["-i", "root4_singular.json", "places"],
    "degree1-det": ["-i", "degree1_det.json", "places"],
    "graph-field": ["graph", "graph.json"],
}

EXPECTED = json.loads(Path(__file__).with_name("field_reports.json").read_text(encoding="utf-8"))


def run_case(argv: list[str]) -> list:
    """[exit code, stdout, stderr] of one CLI call with every session file
    written to a scratch directory."""
    runner = CliRunner()
    with runner.isolated_filesystem():
        for name, doc in SESSIONS.items():
            Path(name).write_text(json.dumps(doc), encoding="utf-8")
        res = runner.invoke(main, argv, catch_exceptions=False)
    return [res.exit_code, res.stdout, res.stderr]


@pytest.mark.parametrize("case", sorted(CASES))
def test_field_report_bytes(case):
    assert run_case(CASES[case]) == EXPECTED[case]
