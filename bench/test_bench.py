"""Self-tests of the benchmark: seeded generators are deterministic, and the
oracle accepts the program's real reports but rejects corrupted ones."""

import copy
import json
import random

import pytest

import oracle
from workloads import WORKLOADS


def _round(name, seed, rdir):
    rdir.mkdir()
    reqs = WORKLOADS[name](random.Random(f"{name}/{seed}/0"), rdir, True)
    files = {p.name: p.read_bytes() for p in sorted(rdir.iterdir())}
    argv = [[a.replace(str(rdir), "") for a in r.argv] for r in reqs]
    return argv, [r.expect for r in reqs], files


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic(name, tmp_path):
    first = _round(name, 7, tmp_path / "a")
    assert first == _round(name, 7, tmp_path / "b")
    assert first[2] != _round(name, 8, tmp_path / "c")[2]


def _cli(argv):
    from click.testing import CliRunner

    from flatcert.cli import main

    res = CliRunner().invoke(main, argv)
    return res.exit_code, res.stdout


def _real_reports(tmp_path):
    """Real reports for the cli-cold round, whose inputs are small."""
    rng = random.Random("oracle-test")
    out = []
    for req in WORKLOADS["cli-cold"](rng, tmp_path, False):
        code, stdout = _cli(req.argv)
        if code in (0, 2):
            oracle.check(req.expect, code, stdout)
            out.append((req, code, json.loads(stdout)))
    return out


def _corruptions(kind, report):
    """Yield copies of a correct report with one answer changed."""
    if kind == "classify":
        bad = copy.deepcopy(report)
        bad["tag"] = "Ballistic" if report["tag"] != "Ballistic" else "Unipotent"
        yield bad
        for p, vals in report["padic"].items():
            if vals:
                bad = copy.deepcopy(report)
                bad["padic"][p][0] = str(int(vals[0].split("/")[0]) + 1)
                yield bad
        nonzero = [i for i, x in enumerate(report["arch"]) if x]
        if nonzero:
            bad = copy.deepcopy(report)
            bad["arch"][nonzero[0]] *= 1 + 1e-6
            yield bad
    elif kind == "flat" and report["tag"] == "Lattice":
        bad = copy.deepcopy(report)
        bad["covolume"] *= 1 + 1e-6
        yield bad
    elif kind == "decompose" and len(report["blocks"]) > 0:
        bad = copy.deepcopy(report)
        bad["blocks"] = bad["blocks"][1:]
        yield bad
    elif kind == "places":
        bad = copy.deepcopy(report)
        bad["primes"] = bad["primes"] + [5]
        yield bad
    elif kind == "graph":
        bad = copy.deepcopy(report)
        bad["tag"] = "Obstruction" if report["tag"] == "NPC" else "NPC"
        yield bad


def test_oracle_rejects_corrupted_reports(tmp_path):
    rejected = set()
    for req, code, report in _real_reports(tmp_path):
        kind = req.expect["type"]
        for bad in _corruptions(kind, report):
            with pytest.raises(oracle.WrongAnswer):
                oracle.check(req.expect, code, json.dumps(bad))
            rejected.add(kind)
    assert rejected >= {"classify", "decompose", "places", "graph"}


def test_oracle_rejects_ballistic_witness(tmp_path):
    rng = random.Random("witness")
    from gen import FIELDS, family
    from workloads import _Files

    models = family(rng, 3, 1, 3, dependent=True)
    path, _ = _Files(tmp_path).session(rng, 1, dict(zip("abc", models)))
    req_expect = oracle.expect_flat(models, FIELDS[1])
    code, stdout = _cli(["-i", path, "flat", "a", "b", "c"])
    oracle.check(req_expect, code, stdout)
    bad = json.loads(stdout)
    bad["witnessClass"] = {"tag": "Ballistic"}
    with pytest.raises(oracle.WrongAnswer):
        oracle.check(req_expect, code, json.dumps(bad))
