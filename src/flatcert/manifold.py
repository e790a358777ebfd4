"""NPC certificates and unipotent obstructions for graph-manifold
representations, restricted to what the JSJ tori see.

A representation is supplied as the pair of images (A, B) of a Z^2 basis
of each JSJ torus group, plus unimodular change-of-basis data relating the
two sides of each matched torus.  If every torus image acts as a rank-2
lattice of translations (flat certificate Lattice(2)), the manifold
carries an NPC metric; otherwise some nontrivial torus element has
unipotent / virtually unipotent / trivial image, and that witness is the
obstruction.  No Seifert block topology is consumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FlatcertError
from .flats import PD_EPSILON, CommutingFamily, FlatCertificate, flat_certificate
from .linalg import SqMatrix
from .places import discover_places
from .words import Name, eval_power, word_eval

__all__ = [
    "TorusRep",
    "GluingSpec",
    "GraphRep",
    "Violation",
    "validate",
    "npc_certificate",
    "NpcResult",
    "gluing_covariance",
    "GluingReport",
    "graph_certificate",
    "InvalidGraphRep",
]

class InvalidGraphRep(FlatcertError):
    module = "manifold"

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__(
            "graph representation failed validation: "
            + "; ".join(str(v) for v in self.violations)
        )


@dataclass(frozen=True)
class TorusRep:
    """Images (A, B) of a Z^2 basis of one JSJ torus subgroup."""

    id: str
    a: SqMatrix
    b: SqMatrix


@dataclass(frozen=True)
class GluingSpec:
    """Unimodular 2x2 integer matrix U whose columns express the second
    side's preferred basis of a matched torus in the first side's basis,
    together with the second basis spelled out as words in (a, b)."""

    torus: str
    u: tuple[tuple[int, int], tuple[int, int]]
    second_basis_words: tuple[str, str]


@dataclass(frozen=True)
class GraphRep:
    tori: tuple[TorusRep, ...]
    gluings: tuple[GluingSpec, ...]
    places: tuple[int, ...]

    @classmethod
    def build(cls, tori, gluings, places: tuple[int, ...] | None = None) -> "GraphRep":
        tori = tuple(tori)
        gluings = tuple(gluings)
        if places is None:
            mats = [m for t in tori for m in (t.a, t.b)]
            places = discover_places(mats)
        return cls(tori=tori, gluings=gluings, places=places)


@dataclass(frozen=True)
class Violation:
    torus: str
    # NotCommuting | DeterminantNotOne | DuplicateTorus | BasisMismatch | BadGluingMatrix
    # | UnknownTorus
    kind: str
    detail: str = ""

    def __str__(self):
        suffix = f" ({self.detail})" if self.detail else ""
        return f"{self.kind} on torus {self.torus!r}{suffix}"


def validate(rep: GraphRep) -> list[Violation]:
    """Commutativity per torus and exact basis/U consistency per gluing;
    violations are data, not exceptions."""
    out: list[Violation] = []
    by_id: dict[str, TorusRep] = {}
    a_name, b_name = Name("a"), Name("b")
    for t in rep.tori:
        if t.id in by_id:
            out.append(Violation(t.id, "DuplicateTorus", "another torus has the same id"))
        by_id.setdefault(t.id, t)  # a gluing on a repeated id checks its first torus
        for name, m in (("a", t.a), ("b", t.b)):
            d = m.det()
            if d != 1:
                out.append(Violation(t.id, "DeterminantNotOne", f"{name} has det {d}"))
        if not t.a.commutes_with(t.b):
            out.append(Violation(t.id, "NotCommuting", "basis images do not commute"))
    for g in rep.gluings:
        if g.torus not in by_id:
            out.append(Violation(g.torus, "UnknownTorus"))
            continue
        u = g.u
        det_u = u[0][0] * u[1][1] - u[0][1] * u[1][0]
        if abs(det_u) != 1:
            out.append(Violation(g.torus, "BadGluingMatrix", f"det U = {det_u}"))
            continue
        t = by_id[g.torus]
        # the U-words a^u0j * b^u1j, under the word power budget: U comes from
        # the input, and a huge entry would otherwise never finish
        expected = tuple(
            eval_power(t.a, a_name, u[0][j]) * eval_power(t.b, b_name, u[1][j]) for j in (0, 1)
        )
        gens = {"a": t.a, "b": t.b}
        for word, want in zip(g.second_basis_words, expected):
            if word_eval(word, gens) != want:
                out.append(
                    Violation(
                        g.torus,
                        "BasisMismatch",
                        f"second basis word {word!r} does not equal the U-word",
                    )
                )
    return out


@dataclass(frozen=True)
class NpcResult:
    """NPC(per-torus lattice certificates) or Obstruction(torus), whose
    witness is the Degenerate certificate of that torus in tori."""

    tag: str
    tori: tuple[tuple[str, FlatCertificate], ...]
    obstruction_torus: str | None = None


def _require_valid(rep: GraphRep) -> None:
    violations = validate(rep)
    if violations:
        raise InvalidGraphRep(violations)


def npc_certificate(
    rep: GraphRep, pd_epsilon: float = PD_EPSILON, *, tol: float = 1e-12
) -> NpcResult:
    """Run the thick-flat certificate on every torus.

    All Lattice(2) => the representation satisfies the lattice-of-
    translations hypothesis on every JSJ torus, which upgrades to an NPC
    metric; any degenerate torus yields a nontrivial basis word with
    unipotent / virtually unipotent / trivial image, the obstruction.
    """
    _require_valid(rep)
    return _npc_certificate(rep, pd_epsilon, tol)


def _npc_certificate(rep: GraphRep, pd_epsilon: float, tol: float) -> NpcResult:
    def per_torus(t: TorusRep) -> tuple[str, FlatCertificate]:
        # every caller ran _require_valid, which proved det 1 and commutation
        family = CommutingFamily(names=("a", "b"), gens=(t.a, t.b), places=rep.places)
        return t.id, flat_certificate(family, pd_epsilon, tol=tol)

    certs = tuple(per_torus(t) for t in rep.tori)
    for torus_id, cert in certs:
        if cert.tag == "Degenerate":
            return NpcResult(tag="Obstruction", tori=certs, obstruction_torus=torus_id)
    return NpcResult(tag="NPC", tori=certs)


@dataclass(frozen=True)
class GluingReport:
    torus: str
    ok: bool
    nonarch_exact: bool
    arch_max_rel_err: float


def gluing_covariance(rep: GraphRep) -> list[GluingReport]:
    """The Gram transport gram(second basis) = U^T gram(first basis) U
    per gluing.

    validate proves exactly that each second basis is the U-words
    a^u00*b^u10, a^u01*b^u11 of its torus basis, and drift is a
    homomorphism Z^2 -> R^N on a commuting pair, so the transport holds
    exactly on every valid representation: each report is ok, with an
    exact non-archimedean part and an archimedean error of 0; nothing is
    computed.
    """
    _require_valid(rep)
    return _gluing_reports(rep)


def _gluing_reports(rep: GraphRep) -> list[GluingReport]:
    return [
        GluingReport(torus=g.torus, ok=True, nonarch_exact=True, arch_max_rel_err=0.0)
        for g in rep.gluings
    ]


def graph_certificate(
    rep: GraphRep, pd_epsilon: float = PD_EPSILON, *, tol: float = 1e-12
) -> tuple[NpcResult, list[GluingReport]]:
    """npc_certificate and gluing_covariance on one validation."""
    _require_valid(rep)
    return _npc_certificate(rep, pd_epsilon, tol), _gluing_reports(rep)
