"""Directed vessel-tree reconstruction from oriented 3D centerline samples.

Builds directed graphs of flow-extrapolating circular arcs over sampled
centerline points, solves minimum arborescence (or the undirected geodesic
MST baseline), generates synthetic ground-truth corpora, and evaluates
reconstructions with centerline/bifurcation ROC, angular-error, and
connectivity metrics.
"""

from .geometry import (
    FlowArc,
    OrientedSample,
    SampleCloud,
    arc_end_tangent,
    arc_points,
    arc_weight,
    confluence_angle,
    fit_arc,
)
from .graphs import (
    NeighborSystem,
    TubularGraph,
    anisotropic_knn,
    build_confluent_graph,
    build_geodesic_graph,
    knn_neighbors,
)
from .metrics import (
    MatchTolerance,
    RocPoint,
    bifurcation_angle,
    bifurcation_roc,
    centerline_roc,
    connectivity_roc,
    median_angular_error,
    resample_tree,
    roc_sweep,
)
from .pipeline import PipelineConfig, reconstruct_cloud, resolve_root
from .solvers import VesselTree, minimum_arborescence, minimum_spanning_tree
from .synth import GroundTruthTree, SamplerConfig, generate_tree, \
    sample_centerline

__version__ = "0.1.0"

__all__ = [
    "FlowArc", "OrientedSample", "SampleCloud", "arc_end_tangent",
    "arc_points", "arc_weight", "confluence_angle", "fit_arc",
    "NeighborSystem", "TubularGraph", "anisotropic_knn",
    "build_confluent_graph", "build_geodesic_graph", "knn_neighbors",
    "MatchTolerance", "RocPoint", "bifurcation_angle", "bifurcation_roc",
    "centerline_roc", "connectivity_roc", "median_angular_error",
    "resample_tree", "roc_sweep", "PipelineConfig", "reconstruct_cloud",
    "resolve_root", "VesselTree", "minimum_arborescence",
    "minimum_spanning_tree", "GroundTruthTree", "SamplerConfig",
    "generate_tree", "sample_centerline",
]
