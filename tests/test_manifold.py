"""Graph-manifold checker: validation, NPC/obstruction, gluing covariance."""

import json
import random
import sys
from fractions import Fraction as F

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from flatcert import (
    CommutingFamily,
    GluingSpec,
    GraphRep,
    SqMatrix,
    TorusRep,
    discover_places,
    factor_q,
    gluing_covariance,
    npc_certificate,
    validate,
    word_eval,
)
from flatcert import linalg
from flatcert.cli import main
from flatcert.flats import gram, verify_commuting
from flatcert.manifold import InvalidGraphRep, Violation, graph_certificate
from flatcert.places import _charpoly_drift, _cyclotomic_split
from flatcert.session import parse_graph

from conftest import (
    congruence,
    gram_close,
    is_unipotent,
    random_diag_23,
    unimodular,
    unimodular_2x2,
)

D2 = SqMatrix.diagonal([2, F(1, 2)])
D3 = SqMatrix.diagonal([3, F(1, 3)])
U1 = SqMatrix([[1, 1], [0, 1]])
U5 = SqMatrix([[1, 5], [0, 1]])
SWAP = ((0, 1), (1, 0))


def _rep(a, b, gluings=()):
    return GraphRep.build([TorusRep(id="T1", a=a, b=b)], list(gluings))


def test_validate_examples():
    ok = _rep(D2, D3, [GluingSpec(torus="T1", u=SWAP, second_basis_words=("b", "a"))])
    assert validate(ok) == []

    bad = _rep(D2, D3, [GluingSpec(torus="T1", u=SWAP, second_basis_words=("a", "a"))])
    kinds = {v.kind for v in validate(bad)}
    assert "BasisMismatch" in kinds

    noncomm = _rep(U1, SqMatrix([[1, 0], [1, 1]]))
    kinds = {v.kind for v in validate(noncomm)}
    assert "NotCommuting" in kinds

    unknown = _rep(D2, D3, [GluingSpec(torus="T9", u=SWAP, second_basis_words=("b", "a"))])
    assert {v.kind for v in validate(unknown)} == {"UnknownTorus"}

    det2 = _rep(D2, D3, [GluingSpec(torus="T1", u=((2, 0), (0, 1)), second_basis_words=("a^2", "b"))])
    assert {v.kind for v in validate(det2)} == {"BadGluingMatrix"}

    # a gluing on a repeated id checks the first torus with that id; there
    # a = I, so the word a*a gives the U-word a although its exponent sums
    # differ from U's column
    dup = GraphRep.build(
        [TorusRep(id="T1", a=SqMatrix.identity(2), b=D2), TorusRep(id="T1", a=D2, b=D3)],
        [GluingSpec(torus="T1", u=((1, 0), (0, 1)), second_basis_words=("a*a", "b"))],
    )
    assert [v.kind for v in validate(dup)] == ["DuplicateTorus"]


def test_npc_certificate_positive():
    result = npc_certificate(_rep(D2, D3))
    assert result.tag == "NPC"
    assert [cert.tag for _, cert in result.tori] == ["Lattice"]
    assert result.tori[0][1].rank == 2


def test_npc_obstruction_unipotent_torus():
    result = npc_certificate(_rep(U1, U5))
    assert result.tag == "Obstruction"
    assert result.obstruction_torus == "T1"
    cert = dict(result.tori)["T1"]
    assert cert.witness_word == "a"
    assert cert.witness_class.tag == "Unipotent"


def test_npc_obstruction_dependent_directions():
    result = npc_certificate(_rep(D2, SqMatrix.diagonal([4, F(1, 4)])))
    assert result.tag == "Obstruction"
    cert = dict(result.tori)[result.obstruction_torus]
    assert cert.witness_word == "a^2*b^-1"
    assert cert.witness_class.tag == "Identity"


def test_obstruction_witness_power_is_unipotent():
    # a witness tagged VirtuallyUnipotent(k) must become exactly unipotent at power k
    a = SqMatrix([[-1, 1], [0, -1]])
    b = SqMatrix([[-1, 0], [0, -1]])
    assert a.commutes_with(b)
    result = npc_certificate(_rep(a, b))
    assert result.tag == "Obstruction"
    cert = dict(result.tori)[result.obstruction_torus]
    cls = cert.witness_class
    assert cls.tag in {"Unipotent", "VirtuallyUnipotent", "FiniteOrder", "Identity"}
    if cls.tag == "VirtuallyUnipotent":
        w = word_eval(cert.witness_word, {"a": a, "b": b})
        assert is_unipotent(w**cls.order)


def test_gluing_covariance_swap():
    rep = _rep(D2, D3, [GluingSpec(torus="T1", u=SWAP, second_basis_words=("b", "a"))])
    reports = gluing_covariance(rep)
    assert len(reports) == 1
    assert reports[0].ok and reports[0].nonarch_exact
    assert reports[0].arch_max_rel_err <= 1e-8


def test_gluing_covariance_identity_and_shear():
    ident = GluingSpec(torus="T1", u=((1, 0), (0, 1)), second_basis_words=("a", "b"))
    shear = GluingSpec(torus="T1", u=((1, 1), (0, 1)), second_basis_words=("a", "a*b"))
    rep = _rep(D2, D3, [ident, shear])
    for report in gluing_covariance(rep):
        assert report.ok and report.nonarch_exact


@st.composite
def _commuting_pairs(draw):
    """A commuting det-1 pair: two 2^a 3^b diagonals conjugated by one
    unimodular matrix, or two 2x2 unipotents with a common fixed line."""
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        n = draw(st.integers(2, 3))
        p = unimodular(rng, n)
        return tuple(p * random_diag_23(rng, n) * p.inverse() for _ in range(2))
    s, t = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
    return SqMatrix([[1, s], [0, 1]]), SqMatrix([[1, t], [0, 1]])


@settings(max_examples=80, deadline=None)
@given(_commuting_pairs(), st.randoms(use_true_random=False))
def test_second_basis_gram_is_the_congruence(pair, rng):
    # the oracle behind gluing_covariance: gram of the U-words is U^T G U
    a, b = pair
    u = unimodular_2x2(rng)
    places = discover_places([a, b])
    first = gram(CommutingFamily.build([("a", a), ("b", b)], places=places))
    second_basis = [
        ("x", a ** u[0][0] * b ** u[1][0]),
        ("y", a ** u[0][1] * b ** u[1][1]),
    ]
    second = gram(CommutingFamily.build(second_basis, places=places))
    exact, worst = gram_close(second, congruence(first.nonarch, u), congruence(first.arch, u))
    assert exact
    assert worst <= 1e-8


def test_rebasing_preserves_npc_tag():
    rng = random.Random(149)
    cases = [(D2, D3, "NPC"), (U1, U5, "Obstruction"), (D2, SqMatrix.diagonal([4, F(1, 4)]), "Obstruction")]
    for a, b, expected in cases:
        for _ in range(6):
            u = unimodular_2x2(rng)
            a2 = a ** u[0][0] * b ** u[1][0]
            b2 = a ** u[0][1] * b ** u[1][1]
            result = npc_certificate(_rep(a2, b2))
            assert result.tag == expected


GRAPH_DOC = json.dumps(
    {
        "tori": [
            {"id": "T1", "A": [["2", "0"], ["0", "1/2"]], "B": [["3", "0"], ["0", "1/3"]]},
            {"id": "T2", "A": [["2", "0"], ["0", "1/2"]], "B": [["5", "0"], ["0", "1/5"]]},
            {"id": "T3", "A": [["1", "1"], ["0", "1"]], "B": [["1", "5"], ["0", "1"]]},
        ],
        "gluings": [
            {"torus": "T1", "U": [[0, 1], [1, 0]], "secondBasisWords": ["b", "a"]},
            {"torus": "T2", "U": [[1, 1], [0, 1]], "secondBasisWords": ["a", "a*b"]},
        ],
    }
)


def _count_calls(monkeypatch, fn) -> list:
    """Rebind fn under every name any flatcert module holds it by; the
    returned list grows by one entry per call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "flatcert" or name.startswith("flatcert."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_cli_graph_validates_once_and_reuses_base_grams(monkeypatch, tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(GRAPH_DOC)
    validations = _count_calls(monkeypatch, validate)
    grams = _count_calls(monkeypatch, gram)
    res = CliRunner().invoke(main, ["graph", str(path)])
    assert res.exit_code == 2, res.output
    assert json.loads(res.output)["obstruction"]["torus"] == "T3"
    assert len(validations) == 1
    assert len(grams) == 3  # one per torus; the gluings follow from validation


def test_cli_graph_builds_torus_families_without_rechecks(monkeypatch, tmp_path):
    """validate proves det 1 and commutation for every torus, so the flat
    certificates take the torus families as they are."""
    path = tmp_path / "graph.json"
    path.write_text(GRAPH_DOC)
    rechecks = _count_calls(monkeypatch, verify_commuting)
    res = CliRunner().invoke(main, ["graph", str(path)])
    assert res.exit_code == 2, res.output
    assert rechecks == []


def test_cli_graph_evaluates_each_second_basis_word_once(monkeypatch, tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(GRAPH_DOC)
    evaluated = _count_calls(monkeypatch, word_eval)
    res = CliRunner().invoke(main, ["graph", str(path)])
    assert res.exit_code == 2, res.output
    second_basis_words = [w for g in json.loads(GRAPH_DOC)["gluings"] for w in g["secondBasisWords"]]
    assert sorted(args[0] for args in evaluated) == sorted(second_basis_words)


def test_cli_graph_drifts_each_charpoly_once_without_factoring(monkeypatch, tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(GRAPH_DOC)
    factored = _count_calls(monkeypatch, factor_q)
    # one cyclotomic split per cold analysis, so one per distinct charpoly
    drifts = _count_calls(monkeypatch, _cyclotomic_split)
    _charpoly_drift.cache_clear()
    cold = CliRunner().invoke(main, ["graph", str(path)])
    warm = CliRunner().invoke(main, ["graph", str(path)])
    assert cold.exit_code == warm.exit_code == 2
    assert cold.stdout_bytes == warm.stdout_bytes
    assert factored == []
    charpolys = [args[0] for args in drifts]
    assert charpolys and len(charpolys) == len(set(charpolys))


def test_cli_graph_proves_det_one_once_per_input_matrix(monkeypatch, tmp_path):
    """Each matrix keeps its determinant, and the Gram products g_i g_j and
    g_i g_j^-1 inherit det 1 from their factors, so parsing, place
    discovery, validation and the Gram share one Bareiss run per matrix."""
    doc = {
        "tori": [{"id": "T1", "A": [["2", "0"], ["0", "1/2"]], "B": [["3", "0"], ["0", "1/3"]]}],
        "gluings": [{"torus": "T1", "U": [[0, 1], [1, 0]], "secondBasisWords": ["b", "a"]}],
    }
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    dets = _count_calls(monkeypatch, linalg._det_bareiss)
    res = CliRunner().invoke(main, ["graph", str(path)])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["tag"] == "NPC"
    assert len(dets) == 2


def test_validate_reports_det_with_explicit_places():
    """With explicit places, GraphRep.build runs no discover_places, so the
    det check is validate's own."""
    a, b = SqMatrix.diagonal([2, 1]), SqMatrix.identity(2)
    rep = GraphRep.build([TorusRep(id="T1", a=a, b=b)], [], places=())
    assert validate(rep) == [Violation("T1", "DeterminantNotOne", "a has det 2")]


def test_graph_certificate_matches_standalone_checks():
    rep = parse_graph(GRAPH_DOC)
    result, reports = graph_certificate(rep)
    assert reports == gluing_covariance(rep)
    assert [r.ok for r in reports] == [True, True]
    assert result == npc_certificate(rep)


def test_invalid_rep_raises_on_every_entry_point():
    rep = _rep(U1, SqMatrix([[1, 0], [1, 1]]))
    for check in (npc_certificate, gluing_covariance, graph_certificate):
        with pytest.raises(InvalidGraphRep) as info:
            check(rep)
        assert {v.kind for v in info.value.violations} == {"NotCommuting"}


def test_cli_graph_reports_invalid_rep(tmp_path):
    path = tmp_path / "graph.json"
    doc = json.loads(GRAPH_DOC)
    doc["gluings"][0]["secondBasisWords"] = ["a", "a"]
    path.write_text(json.dumps(doc))
    res = CliRunner().invoke(main, ["graph", str(path)])
    assert res.exit_code == 1
    assert json.loads(res.output) == {
        "tag": "Invalid",
        "violations": [
            {
                "torus": "T1",
                "kind": "BasisMismatch",
                "detail": "second basis word 'a' does not equal the U-word",
            }
        ],
    }


GRAPH_REPORT = """\
{
  "gluings": [
    {
      "archMaxRelErr": 0,
      "nonarchExact": true,
      "ok": true,
      "torus": "T1"
    },
    {
      "archMaxRelErr": 0,
      "nonarchExact": true,
      "ok": true,
      "torus": "T2"
    }
  ],
  "obstruction": {
    "torus": "T3",
    "witness": "a",
    "witnessClass": {
      "tag": "Unipotent"
    }
  },
  "tag": "Obstruction",
  "tori": {
    "T1": {
      "covolume": 3.27865946675,
      "rank": 2,
      "tag": "Lattice"
    },
    "T2": {
      "covolume": 4.03521667716,
      "rank": 2,
      "tag": "Lattice"
    },
    "T3": {
      "latticeRank": 0,
      "nullVector": [
        1,
        0
      ],
      "nullVectors": [
        [
          1,
          0
        ],
        [
          0,
          1
        ]
      ],
      "tag": "Degenerate",
      "witness": "a",
      "witnessClass": {
        "tag": "Unipotent"
      }
    }
  }
}
"""


def test_cli_graph_report_bytes(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(GRAPH_DOC)
    res = CliRunner().invoke(main, ["graph", str(path)])
    assert res.exit_code == 2
    assert res.stdout_bytes == GRAPH_REPORT.encode()


DUPLICATE_ID_DOC = json.dumps(
    {
        "tori": [
            {"id": "T1", "A": [["1", "1"], ["0", "1"]], "B": [["1", "5"], ["0", "1"]]},
            {"id": "T1", "A": [["2", "0"], ["0", "1/2"]], "B": [["3", "0"], ["0", "1/3"]]},
        ],
        "gluings": [{"torus": "T1", "U": [[0, 1], [1, 0]], "secondBasisWords": ["b", "a"]}],
    }
)


def test_duplicate_torus_ids_are_invalid(tmp_path):
    rep = parse_graph(DUPLICATE_ID_DOC)
    assert [v.kind for v in validate(rep)] == ["DuplicateTorus"]
    for check in (npc_certificate, gluing_covariance, graph_certificate):
        with pytest.raises(InvalidGraphRep):
            check(rep)
    path = tmp_path / "graph.json"
    path.write_text(DUPLICATE_ID_DOC)
    res = CliRunner().invoke(main, ["graph", str(path)])
    assert res.exit_code == 1
    assert json.loads(res.output) == {
        "tag": "Invalid",
        "violations": [
            {"torus": "T1", "kind": "DuplicateTorus", "detail": "another torus has the same id"}
        ],
    }
