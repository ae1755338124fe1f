"""Camera geometry: poses, projection, minimal solvers, robust estimation."""

from .pose import (
    CameraIntrinsics,
    Pose,
    camera_points,
    project_points,
    quaternion_from_rotation,
    reprojection_errors,
    rotation_from_axis_angle,
    rotation_from_quaternion,
    skew,
)
from .metrics import rotation_error_deg, translation_heading_error_deg
from .triangulate import triangulate_two_view
from .p3p import p3p_solve
from .five_point import five_point_essential
from .epipolar import (
    RelativePose,
    decompose_essential,
    essential_from_pose,
    relative_motion,
    sampson_error,
)
from .ransac import RansacParams, RansacResult, ransac_essential, ransac_pnp, ransac_pnp_batch
from .refine import RefineResult, refine_pose, refine_poses

__all__ = [
    "CameraIntrinsics",
    "Pose",
    "RansacParams",
    "RansacResult",
    "RefineResult",
    "RelativePose",
    "camera_points",
    "decompose_essential",
    "essential_from_pose",
    "five_point_essential",
    "p3p_solve",
    "project_points",
    "quaternion_from_rotation",
    "ransac_essential",
    "ransac_pnp",
    "ransac_pnp_batch",
    "refine_pose",
    "refine_poses",
    "relative_motion",
    "reprojection_errors",
    "rotation_error_deg",
    "rotation_from_axis_angle",
    "rotation_from_quaternion",
    "sampson_error",
    "skew",
    "triangulate_two_view",
]
