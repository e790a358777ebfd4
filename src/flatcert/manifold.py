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

from dataclasses import dataclass, field

from .errors import FlatcertError
from .flats import (
    PD_EPSILON,
    CommutingFamily,
    FlatCertificate,
    GramData,
    flat_certificate,
    gram,
)
from .linalg import SqMatrix
from .parallel import pmap
from .places import Classification, PlaceSet, discover_places
from .words import word_eval

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

ARCH_REL_TOL = 1e-8


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

    def named_gens(self) -> list[tuple[str, SqMatrix]]:
        return [("a", self.a), ("b", self.b)]


@dataclass(frozen=True)
class GluingSpec:
    """Unimodular 2x2 integer matrix U whose columns express the second
    side's preferred basis of a matched torus in the first side's basis,
    together with the second basis spelled out as words in (a, b)."""

    torus: str
    u: tuple[tuple[int, int], tuple[int, int]]
    second_basis_words: tuple[str, str]

    def det(self) -> int:
        return self.u[0][0] * self.u[1][1] - self.u[0][1] * self.u[1][0]


@dataclass(frozen=True)
class GraphRep:
    tori: tuple[TorusRep, ...]
    gluings: tuple[GluingSpec, ...]
    places: PlaceSet
    _second_bases: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def build(cls, tori, gluings, places: PlaceSet | None = None) -> "GraphRep":
        tori = tuple(tori)
        gluings = tuple(gluings)
        if places is None:
            mats = [m for t in tori for m in (t.a, t.b)]
            places = discover_places(mats)
        return cls(tori=tori, gluings=gluings, places=places)

    def torus(self, torus_id: str) -> TorusRep:
        for t in self.tori:
            if t.id == torus_id:
                return t
        raise KeyError(torus_id)

    def second_basis(self, g: GluingSpec) -> tuple[SqMatrix, ...]:
        """The second-basis words of gluing g evaluated in its torus; each
        gluing's words are evaluated once per representation, so validation
        and the covariance check share the matrices."""
        if g not in self._second_bases:
            t = self.torus(g.torus)
            gens = {"a": t.a, "b": t.b}
            self._second_bases[g] = tuple(word_eval(w, gens) for w in g.second_basis_words)
        return self._second_bases[g]


@dataclass(frozen=True)
class Violation:
    torus: str
    kind: str  # NotCommuting | DeterminantNotOne | BasisMismatch | BadGluingMatrix | UnknownTorus
    detail: str = ""

    def __str__(self):
        suffix = f" ({self.detail})" if self.detail else ""
        return f"{self.kind} on torus {self.torus!r}{suffix}"


def validate(rep: GraphRep) -> list[Violation]:
    """Commutativity per torus and exact basis/U consistency per gluing;
    violations are data, not exceptions."""
    out: list[Violation] = []
    for t in rep.tori:
        for name, m in t.named_gens():
            d = m.det()
            if d != 1:
                out.append(Violation(t.id, "DeterminantNotOne", f"{name} has det {d}"))
        if not t.a.commutes_with(t.b):
            out.append(Violation(t.id, "NotCommuting", "basis images do not commute"))
    seen_ids = {t.id for t in rep.tori}
    for g in rep.gluings:
        if g.torus not in seen_ids:
            out.append(Violation(g.torus, "UnknownTorus"))
            continue
        if abs(g.det()) != 1:
            out.append(Violation(g.torus, "BadGluingMatrix", f"det U = {g.det()}"))
            continue
        t = rep.torus(g.torus)
        u = g.u
        expected = (
            t.a ** u[0][0] * t.b ** u[1][0],
            t.a ** u[0][1] * t.b ** u[1][1],
        )
        second = rep.second_basis(g)
        for k, word in enumerate(g.second_basis_words):
            if second[k] != expected[k]:
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
    """NPC(per-torus lattice certificates) or Obstruction(torus, witness)."""

    tag: str
    tori: tuple[tuple[str, FlatCertificate], ...]
    obstruction_torus: str | None = None
    witness_word: str | None = None
    witness_class: Classification | None = None


def _require_valid(rep: GraphRep) -> None:
    violations = validate(rep)
    if violations:
        raise InvalidGraphRep(violations)


def npc_certificate(
    rep: GraphRep, pd_epsilon: float | None = None, *, tol: float = 1e-12
) -> NpcResult:
    """Run the thick-flat certificate on every torus.

    All Lattice(2) => the representation satisfies the lattice-of-
    translations hypothesis on every JSJ torus, which upgrades to an NPC
    metric; any degenerate torus yields a nontrivial basis word with
    unipotent / virtually unipotent / trivial image, the obstruction.
    """
    _require_valid(rep)
    return _npc_certificate(rep, pd_epsilon, tol)


def _npc_certificate(rep: GraphRep, pd_epsilon: float | None, tol: float) -> NpcResult:
    eps = PD_EPSILON if pd_epsilon is None else pd_epsilon

    def per_torus(t: TorusRep) -> tuple[str, FlatCertificate]:
        family = CommutingFamily.build(t.named_gens(), places=rep.places)
        return t.id, flat_certificate(family, eps, tol=tol)

    certs = tuple(pmap(per_torus, rep.tori))
    for torus_id, cert in certs:
        if cert.tag == "Degenerate":
            return NpcResult(
                tag="Obstruction",
                tori=certs,
                obstruction_torus=torus_id,
                witness_word=cert.witness_word,
                witness_class=cert.witness_class,
            )
    return NpcResult(tag="NPC", tori=certs)


@dataclass(frozen=True)
class GluingReport:
    torus: str
    ok: bool
    nonarch_exact: bool
    arch_max_rel_err: float


def _gram_close(second: GramData, transported_nonarch, transported_arch) -> tuple[bool, float]:
    r = second.rank
    exact = all(
        second.nonarch[i][j] == transported_nonarch[i][j] for i in range(r) for j in range(r)
    )
    worst = 0.0
    for i in range(r):
        for j in range(r):
            a, b = second.arch[i][j], transported_arch[i][j]
            scale = max(1.0, abs(a), abs(b))
            worst = max(worst, abs(a - b) / scale)
    return exact, worst


def gluing_covariance(rep: GraphRep, *, tol: float = 1e-12) -> list[GluingReport]:
    """Check gram(second basis) = U^T gram(first basis) U per gluing.

    This is an internal-consistency invariant of the drift pairing: a
    failure indicates numerical breakdown (or a bug), never a property of
    the manifold.
    """
    _require_valid(rep)
    glued = {g.torus for g in rep.gluings}
    base = {
        t.id: gram(CommutingFamily.build(t.named_gens(), places=rep.places), tol=tol)
        for t in rep.tori
        if t.id in glued
    }
    return _gluing_covariance(rep, base, tol)


def _gluing_covariance(
    rep: GraphRep, base: dict[str, GramData], tol: float
) -> list[GluingReport]:
    """The covariance check against given first-basis Grams; only the
    second-basis Gram of each gluing is computed here."""

    def per_gluing(g: GluingSpec) -> GluingReport:
        second_named = list(zip(g.second_basis_words, rep.second_basis(g)))
        second = gram(CommutingFamily.build(second_named, places=rep.places), tol=tol)
        u, first = g.u, base[g.torus]
        transported_nonarch = _congruence(first.nonarch, u)
        transported_arch = _congruence(first.arch, u)
        exact, worst = _gram_close(second, transported_nonarch, transported_arch)
        return GluingReport(
            torus=g.torus,
            ok=exact and worst <= ARCH_REL_TOL,
            nonarch_exact=exact,
            arch_max_rel_err=worst,
        )

    return pmap(per_gluing, rep.gluings)


def graph_certificate(
    rep: GraphRep, pd_epsilon: float | None = None, *, tol: float = 1e-12
) -> tuple[NpcResult, list[GluingReport]]:
    """npc_certificate and gluing_covariance on one validation, with the
    gluing check reusing the torus Grams of the flat certificates."""
    _require_valid(rep)
    result = _npc_certificate(rep, pd_epsilon, tol)
    base = {torus_id: cert.gram for torus_id, cert in result.tori}
    return result, _gluing_covariance(rep, base, tol)


def _congruence(g, u):
    """U^T G U for a 2x2 integer U; entries may be Fraction or float."""
    out = [[0, 0], [0, 0]]
    for i in range(2):
        for j in range(2):
            acc = 0
            for k in range(2):
                for l in range(2):
                    acc = acc + u[k][i] * g[k][l] * u[l][j]
            out[i][j] = acc
    return out
