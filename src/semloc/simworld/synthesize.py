"""Noisy synthetic observations: project world landmarks into a camera."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry.pose import (
    CameraIntrinsics,
    Pose,
    camera_points,
    project_points,
    quaternion_from_rotation,
)
from ..semantics.boxes import BoundingBox, DetectionSet
from .world import World

_NEAR_PLANE = 0.05  # meters
DEFAULT_BOX_MARGIN_PX = 2.0
DEFAULT_SIGMA_PX = 0.5
DEFAULT_SIGMA_DESC = 0.05


@dataclass
class SyntheticFrame:
    frame_id: int
    timestamp: float
    pose: Pose  # ground truth, world->camera
    # (4,) [qw, qx, qy, qz] of pose.rotation as the dataset stores it: a read
    # frame keeps the quaternion it was read with, so a split writes back to
    # the same bytes (matrix -> quaternion does not invert quaternion -> matrix
    # to the last bit)
    quaternion: np.ndarray
    keypoints: np.ndarray  # (n, 2) noisy pixel positions
    descriptors: np.ndarray  # (n, d) noisy unit descriptors
    landmark_ids: np.ndarray  # (n,) ground-truth world landmark ids
    boxes: DetectionSet  # ground-truth detections (registered classes only)


def _clip_polygon_to_near_plane(camera_points: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of a polygon against z >= near plane."""
    clipped = []
    n = len(camera_points)
    for i in range(n):
        a = camera_points[i]
        b = camera_points[(i + 1) % n]
        a_in = a[2] >= _NEAR_PLANE
        b_in = b[2] >= _NEAR_PLANE
        if a_in:
            clipped.append(a)
        if a_in != b_in:
            s = (_NEAR_PLANE - a[2]) / (b[2] - a[2])
            clipped.append(a + s * (b - a))
    return np.array(clipped).reshape(-1, 3)


def _ground_truth_boxes(
    world: World,
    pose: Pose,
    intrinsics: CameraIntrinsics,
    margin_px: float,
    frame_id: int,
) -> DetectionSet:
    """Axis-aligned hulls of the projected object footprints, inflated by the
    margin and clamped to the image; objects without a registered class (the
    movable clutter) produce no boxes — the detector does not know them."""
    # camera_points is row-stable: each object's corners get the bits they
    # get alone
    cameras = camera_points(pose.rotation, pose.translation, world.footprints)
    boxes = []
    for obj, camera in zip(world.objects, cameras):
        if obj.class_id is None:
            continue
        polygon = _clip_polygon_to_near_plane(camera)
        if len(polygon) < 3:
            continue
        pixels = intrinsics.pixels(polygon)
        x0 = max(0.0, float(pixels[:, 0].min()) - margin_px)
        y0 = max(0.0, float(pixels[:, 1].min()) - margin_px)
        x1 = min(float(intrinsics.width - 1), float(pixels[:, 0].max()) + margin_px)
        y1 = min(float(intrinsics.height - 1), float(pixels[:, 1].max()) + margin_px)
        if x1 <= x0 or y1 <= y0:
            continue
        boxes.append(
            BoundingBox(world.registry.by_id(obj.class_id), x0, y0, x1, y1, confidence=1.0)
        )
    return DetectionSet(frame_id, boxes)


def synthesize_frame(
    world: World,
    pose: Pose,
    intrinsics: CameraIntrinsics,
    noise: tuple[float, float] = (DEFAULT_SIGMA_PX, DEFAULT_SIGMA_DESC),
    rng: np.random.Generator | None = None,
    frame_id: int = 0,
    timestamp: float = 0.0,
    box_margin_px: float = DEFAULT_BOX_MARGIN_PX,
) -> SyntheticFrame:
    """Observe the world from a camera pose.

    Landmarks with positive depth projecting in-bounds become keypoints with
    Gaussian pixel noise (clamped back into the image) and descriptor noise
    (re-normalized); ground-truth landmark ids ride along for oracle
    evaluation.  A frame seeing no landmarks is valid and simply empty.
    """
    sigma_px, sigma_desc = noise
    if sigma_px < 0 or sigma_desc < 0:
        raise ValueError("noise standard deviations must be non-negative")
    rng = rng if rng is not None else np.random.default_rng(0)

    pixels, valid = project_points(pose, intrinsics, world.positions)
    in_bounds = valid.copy()
    in_bounds[valid] &= (
        (pixels[valid, 0] >= 0.0)
        & (pixels[valid, 0] <= intrinsics.width - 1)
        & (pixels[valid, 1] >= 0.0)
        & (pixels[valid, 1] <= intrinsics.height - 1)
    )
    index = np.flatnonzero(in_bounds)

    keypoints = pixels[index]
    if sigma_px > 0 and len(index):
        keypoints = keypoints + rng.normal(scale=sigma_px, size=keypoints.shape)
        keypoints[:, 0] = np.clip(keypoints[:, 0], 0.0, intrinsics.width - 1)
        keypoints[:, 1] = np.clip(keypoints[:, 1], 0.0, intrinsics.height - 1)

    descriptors = world.descriptors[index]
    if sigma_desc > 0 and len(index):
        descriptors = descriptors + rng.normal(scale=sigma_desc, size=descriptors.shape)
        descriptors = descriptors / np.linalg.norm(descriptors, axis=1, keepdims=True)

    return SyntheticFrame(
        frame_id=frame_id,
        timestamp=timestamp,
        pose=pose,
        quaternion=quaternion_from_rotation(pose.rotation),
        keypoints=keypoints.reshape(-1, 2),
        descriptors=descriptors,
        landmark_ids=world.landmark_ids[index],
        boxes=_ground_truth_boxes(world, pose, intrinsics, box_margin_px, frame_id),
    )
