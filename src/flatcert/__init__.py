"""flatcert: exact-arithmetic certificates for finitely generated matrix
groups over number fields.

Element classification (unipotent / finite order / virtually unipotent /
ballistic), per-place drift vectors, thick-flat lattice certificates for
commuting families, and NPC certificates or unipotent obstructions for
graph-manifold representations restricted to their JSJ tori.

Names are exported lazily (PEP 562): ``import flatcert`` loads no
submodule, and each public name or submodule is imported on first access,
so a CLI call compiles only the modules its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> submodule that defines it, in the order of __all__
_EXPORTS = {
    "Poly": "exact", "make_field": "exact", "factor_q": "exact",
    "squarefree_part": "exact", "complex_roots": "exact", "newton_slopes": "exact",
    "prime_factors": "exact", "cyclotomic": "exact",
    "SqMatrix": "linalg", "BlockDecomposition": "blocks", "charpoly": "linalg",
    "embed_regular": "linalg", "kernel_basis": "blocks", "is_diagonalizable": "linalg",
    "block_decompose": "blocks",
    "DriftProfile": "places", "Classification": "places",
    "discover_places": "places", "drift_profile": "places", "classify": "places",
    "direction_profile": "places",
    "CommutingFamily": "flats", "GramData": "flats", "FlatCertificate": "flats",
    "verify_commuting": "blocks", "length_sq": "flats", "gram": "flats",
    "flat_certificate": "flats",
    "TorusRep": "manifold", "GluingSpec": "manifold", "GraphRep": "manifold",
    "NpcResult": "manifold", "validate": "manifold", "npc_certificate": "manifold",
    "gluing_covariance": "manifold",
    "parse_session": "session", "parse_graph": "session",
    "parse_word": "words", "render_word": "words", "word_eval": "words",
}

_SUBMODULES = frozenset(
    ("blocks", "cli", "errors", "exact", "flats", "linalg", "manifold", "parallel", "places",
     "report", "session", "words")
)

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
