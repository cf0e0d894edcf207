"""Stable placements of rigid meshes on a support plane: enumeration,
verification, clustering, evaluation, differentiable rotation losses,
and regrasp planning."""

from .clustering import TypeModel, assign_type, mean_shift_orientations
from .losses import (
    DisplacementField,
    RefineLossWeights,
    chamfer_geodesic_loss,
    predicted_plane_vector,
    refine_loss,
)
from .mesh import (
    TriMesh,
    apply_refinement_transform,
    convex_hull,
    load_mesh,
    merge_coplanar_facets,
    plane_align_rotation,
    plane_from_contacts,
    sample_point_cloud,
    save_obj,
)
from .metrics import (
    AccuracyThresholds,
    EvalReport,
    diversity_score,
    evaluate_run,
    placement_accuracy,
)
from .placements import (
    Placement,
    PlacementRecord,
    enumerate_stable,
    generate_dataset,
    settle,
    settle_batch,
    stability_check,
)
from .regrasp import (
    GraspConfig,
    GraspSet,
    GripperSpec,
    ManipulationGraph,
    Plan,
    build_manipulation_graph,
    feasibility_matrix,
    grasp_feasible_in_placement,
    plan_regrasp,
    sample_antipodal_grasps,
    shared_grasps,
)
from .rotations import (
    PolyCoeffs,
    fit_geodesic_polynomial,
    geodesic_distance,
    poly_geodesic_distance,
    rotation_from_axis_angle,
    rotation_from_sixd,
    sixd_from_rotation,
    z_quotient_distance,
)

__version__ = "0.1.0"
