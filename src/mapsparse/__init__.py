"""Min-cost max-flow sparsification of feature-based SLAM maps."""

from .baselines import select_grid_bucketed, select_radius_suppressed, select_top_m
from .flow_graph import (
    FlowEdge,
    FlowGraph,
    GraphConfig,
    GraphError,
    baseline_cost,
    build_graph,
    connectivity_cost,
    point_capacity,
    spatial_cost,
    to_dimacs,
)
from .map_model import (
    CameraIntrinsics,
    Keyframe,
    MapFormatError,
    MapIntegrityError,
    MapPoint,
    Observation,
    Pose,
    SlamMap,
    ValidationReport,
    load_map,
    maps_equal,
    save_map,
    validate,
)
from .mcmf import FlowResult, solve, verify_optimality
from .metrics import (
    AlignmentError,
    MetricsError,
    MetricsReport,
    Trajectory,
    associate,
    ate,
    ate_rot,
    attribute_C,
    attribute_F,
    attribute_S,
    load_trajectory,
    map_report,
    save_trajectory,
    transform_trajectory,
)
from .sparsifier import (
    SelectionResult,
    SparsifyConfig,
    apply_selection,
    cull_keyframes,
    sparsify,
)
from .synth import GenerationError, SynthConfig, generate, perturb_trajectory

__version__ = "0.1.0"
