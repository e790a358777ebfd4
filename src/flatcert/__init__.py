"""flatcert: exact-arithmetic certificates for finitely generated matrix
groups over number fields.

Element classification (unipotent / finite order / virtually unipotent /
ballistic), per-place drift vectors, thick-flat lattice certificates for
commuting families, and NPC certificates or unipotent obstructions for
graph-manifold representations restricted to their JSJ tori.
"""

from .exact import (
    NewtonSlopes,
    NumberField,
    Poly,
    complex_roots,
    cyclotomic,
    factor_q,
    make_field,
    newton_slopes,
    prime_factors,
    squarefree_part,
)
from .flats import (
    CommutingFamily,
    FlatCertificate,
    GramData,
    flat_certificate,
    gram,
    length_sq,
    tits_angle,
)
from .linalg import (
    BlockDecomposition,
    SqMatrix,
    block_decompose,
    charpoly,
    embed_regular,
    finite_order,
    is_diagonalizable,
    is_unipotent,
    kernel_basis,
    verify_commuting,
)
from .manifold import (
    GluingSpec,
    GraphRep,
    NpcResult,
    TorusRep,
    gluing_covariance,
    npc_certificate,
    validate,
)
from .places import (
    Classification,
    DriftProfile,
    PlaceSet,
    classify,
    direction_profile,
    discover_places,
    drift_profile,
)
from .session import parse_graph, parse_session
from .words import parse_word, render_word, word_eval

__version__ = "0.1.0"

__all__ = [
    "Poly",
    "NumberField",
    "NewtonSlopes",
    "make_field",
    "factor_q",
    "squarefree_part",
    "complex_roots",
    "newton_slopes",
    "prime_factors",
    "cyclotomic",
    "SqMatrix",
    "BlockDecomposition",
    "charpoly",
    "embed_regular",
    "kernel_basis",
    "is_unipotent",
    "is_diagonalizable",
    "finite_order",
    "block_decompose",
    "PlaceSet",
    "DriftProfile",
    "Classification",
    "discover_places",
    "drift_profile",
    "classify",
    "direction_profile",
    "CommutingFamily",
    "GramData",
    "FlatCertificate",
    "verify_commuting",
    "length_sq",
    "gram",
    "flat_certificate",
    "tits_angle",
    "TorusRep",
    "GluingSpec",
    "GraphRep",
    "NpcResult",
    "validate",
    "npc_certificate",
    "gluing_covariance",
    "parse_session",
    "parse_graph",
    "parse_word",
    "render_word",
    "word_eval",
    "__version__",
]
