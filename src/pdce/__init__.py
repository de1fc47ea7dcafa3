"""Planar direction-consistent embeddings of labeled paths on convex point sets.

A path whose edges carry U/D/L/R labels is embedded on a point set in
convex position so that the straight-line drawing is crossing-free and
every edge points strictly the way its label says. The package provides
constructive embedders for the always-solvable regimes, a quadratic
decision procedure for the general four-label case, exhaustive oracles
for ground truth at small sizes, and a command line interface.
"""

from .errors import (
    BoundExceeded,
    CollinearTriple,
    CoordinateRange,
    DuplicateX,
    DuplicateY,
    FourDirectional,
    GenerationFailed,
    InternalCaseError,
    InvalidEmbedding,
    NotConvexPosition,
    NotFoundWithinBudget,
    PdceError,
    PreconditionViolated,
    SizeMismatch,
)
from .geometry import (
    COORD_LIMIT,
    ConvexPointSet,
    GENERATOR_MODES,
    SetTag,
    SplitDescriptor,
    classify,
    format_points_text,
    generate_random_convex,
    orientation,
    parse_points_json,
    parse_points_text,
    segments_intersect,
    split_by_bt_line,
    validate,
)
from .paths import (
    DirPath,
    Embedding,
    mirror_embedding,
    mirror_path,
    mirror_set,
    reverse_embedding,
    reverse_path,
    rotate_embedding,
    rotate_path,
    rotate_set,
)
from .validator import (
    ValidationReport,
    check_direction_consistency,
    check_planarity_prefix,
    check_planarity_segments,
    edge_ok,
    validate_embedding,
)
from .embedder import (
    backward_embedding,
    embed_quarter_convex,
    embed_three_directional,
    embed_udr_convex,
    embed_udr_left_sided,
    embed_udr_right_sided,
    embed_ur_strip,
    plan_udr_case,
)
from .decider import DPTable, decide_pdce, dp_table
from .oracle import (
    brute_force_pdce,
    certificate,
    count_plane_spanning_paths,
    enumerate_planar_embeddings,
    load_counterexample,
    search_counterexample,
)
from .render import render_svg

__version__ = "0.1.0"

__all__ = [
    "BoundExceeded",
    "CollinearTriple",
    "ConvexPointSet",
    "CoordinateRange",
    "COORD_LIMIT",
    "DPTable",
    "DirPath",
    "DuplicateX",
    "DuplicateY",
    "Embedding",
    "FourDirectional",
    "GENERATOR_MODES",
    "GenerationFailed",
    "InternalCaseError",
    "InvalidEmbedding",
    "NotConvexPosition",
    "NotFoundWithinBudget",
    "PdceError",
    "PreconditionViolated",
    "SetTag",
    "SizeMismatch",
    "SplitDescriptor",
    "ValidationReport",
    "backward_embedding",
    "brute_force_pdce",
    "certificate",
    "check_direction_consistency",
    "check_planarity_prefix",
    "check_planarity_segments",
    "classify",
    "count_plane_spanning_paths",
    "decide_pdce",
    "dp_table",
    "edge_ok",
    "embed_quarter_convex",
    "embed_three_directional",
    "embed_udr_convex",
    "embed_udr_left_sided",
    "embed_udr_right_sided",
    "embed_ur_strip",
    "enumerate_planar_embeddings",
    "format_points_text",
    "generate_random_convex",
    "load_counterexample",
    "mirror_embedding",
    "mirror_path",
    "mirror_set",
    "orientation",
    "parse_points_json",
    "parse_points_text",
    "plan_udr_case",
    "render_svg",
    "reverse_embedding",
    "reverse_path",
    "rotate_embedding",
    "rotate_path",
    "rotate_set",
    "search_counterexample",
    "segments_intersect",
    "split_by_bt_line",
    "validate",
    "validate_embedding",
]
