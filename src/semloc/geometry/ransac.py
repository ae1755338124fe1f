"""Seeded RANSAC loops around the minimal pose and essential solvers."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..errors import EstimationFailedError, InsufficientDataError, SemlocError
from .five_point import five_point_essential
from .p3p import p3p_solve
from .pose import CameraIntrinsics, Pose
from .epipolar import sampson_error

_CONFIDENCE = 0.999
_FIRST_CHUNK = 4
_MIN_DEPTH = 1e-9


@dataclass
class RansacParams:
    """Knobs shared by the robust estimators; rng_seed fixes the sample stream."""

    max_iterations: int = 500
    inlier_threshold: float = 3.0
    min_inliers: int = 12
    rng_seed: int = 0


def _iterations_needed(inlier_ratio: float, sample_size: int) -> float:
    if inlier_ratio <= 0.0:
        return np.inf
    if inlier_ratio >= 1.0:
        return 1.0
    denom = np.log1p(-(inlier_ratio**sample_size))
    if denom >= 0.0:
        return np.inf
    return np.log(1.0 - _CONFIDENCE) / denom


def _bearings(pixels: np.ndarray, intrinsics: CameraIntrinsics) -> np.ndarray:
    norm = intrinsics.normalize(pixels)
    hom = np.hstack([norm, np.ones((norm.shape[0], 1))])
    return hom / np.linalg.norm(hom, axis=1, keepdims=True)


def _stacked_reprojection_errors(
    rotations: np.ndarray,
    translations: np.ndarray,
    intrinsics: CameraIntrinsics,
    points: np.ndarray,
    pixels: np.ndarray,
) -> np.ndarray:
    """Pixel distance per match under each of a stack of poses; inf for points
    behind the camera.

    rotations (..., 3, 3) and translations (..., 3) broadcast against points
    (..., n, 3) and pixels (..., n, 2).  Each pose's row is bitwise equal to
    projecting its points through Pose.transform and project_points.
    """
    cam = points @ np.swapaxes(rotations, -1, -2) + translations[..., None, :]
    front = cam[..., 2] > _MIN_DEPTH
    with np.errstate(divide="ignore", invalid="ignore"):
        u = intrinsics.fx * cam[..., 0] / cam[..., 2] + intrinsics.cx
        v = intrinsics.fy * cam[..., 1] / cam[..., 2] + intrinsics.cy
        errors = np.hypot(u - pixels[..., 0], v - pixels[..., 1])
    return np.where(front, errors, np.inf)


def _reprojection_errors(
    pose: Pose, intrinsics: CameraIntrinsics, points: np.ndarray, pixels: np.ndarray
) -> np.ndarray:
    """Pixel distance per match; inf for points behind the camera."""
    return _stacked_reprojection_errors(
        pose.rotation, pose.translation, intrinsics, points, pixels
    )


def _score_chunk(
    owner: np.ndarray,
    rotations: np.ndarray,
    translations: np.ndarray,
    probes: np.ndarray,
    intrinsics: CameraIntrinsics,
    points: np.ndarray,
    pixels: np.ndarray,
    threshold: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each sample of a chunk that owns candidate poses: the candidate
    with the least reprojection error at the sample's fourth match (the first
    on a tie) and its inlier count.  owner, rotations and translations are
    p3p_solve's output; returns (sample positions, candidate rows, counts)."""
    solved, starts, sizes = np.unique(owner, return_index=True, return_counts=True)
    if not solved.size:
        return solved, starts, sizes
    probe = probes[owner]
    probe_err = _stacked_reprojection_errors(
        rotations, translations, intrinsics, points[probe][:, None], pixels[probe][:, None]
    )[:, 0]
    # one row per sample, padded with inf: argmin keeps the first minimum
    rank = np.repeat(np.arange(len(solved)), sizes)
    grid = np.full((len(solved), sizes.max()), np.inf)
    grid[rank, np.arange(len(owner)) - starts[rank]] = probe_err
    chosen = starts + np.argmin(grid, axis=1)
    errors = _stacked_reprojection_errors(
        rotations[chosen], translations[chosen], intrinsics, points, pixels
    )
    return solved, chosen, np.sum(errors < threshold, axis=1)


@dataclass
class _PnpFrame:
    """One problem of a lockstep RANSAC batch: its data, sample stream and
    best model so far."""

    pixels: np.ndarray
    points: np.ndarray
    bearings: np.ndarray
    params: RansacParams
    rng: np.random.Generator
    best: tuple | None = None  # (rotation, translation)
    best_count: int = 0
    start: int = 0  # samples drawn so far
    chunk: int = _FIRST_CHUNK
    converged: bool = False

    @property
    def live(self) -> bool:
        return self.start < self.params.max_iterations and not self.converged

    def draw(self) -> np.ndarray:
        """The next chunk of 4-match samples, (size, 4), from the frame's own rng."""
        n = len(self.pixels)
        size = min(self.chunk, self.params.max_iterations - self.start)
        return np.array([self.rng.choice(n, size=4, replace=False) for _ in range(size)])

    def walk(self, samples, owner, rotations, translations, intrinsics) -> None:
        """Score a solved chunk and walk it in draw order with the adaptive
        stop, which is tested only when the best inlier count rises."""
        solved, chosen, counts = _score_chunk(
            owner, rotations, translations, samples[:, 3],
            intrinsics, self.points, self.pixels, self.params.inlier_threshold,
        )
        n = len(self.pixels)
        for i, c, count in zip(solved.tolist(), chosen.tolist(), counts.tolist()):
            if count > self.best_count:
                self.best_count = count
                self.best = rotations[c], translations[c]
                if self.start + i + 1 >= _iterations_needed(count / n, 4):
                    self.converged = True
                    break
        self.start += len(samples)
        self.chunk += self.chunk // 2


def ransac_pnp_batch(
    problems: Sequence[tuple[np.ndarray, np.ndarray, RansacParams]],
    intrinsics: CameraIntrinsics,
) -> list[tuple[Pose, np.ndarray] | None]:
    """Robust absolute pose for each (pixels, points, params) problem, all
    advanced in lockstep.

    Each iteration samples four matches: the minimal solver runs on three and
    the fourth disambiguates among its candidate poses by reprojection error.
    Returns per problem (pose, sorted inlier index array), or None where no
    model reaches params.min_inliers; the reported inliers all reproject
    below params.inlier_threshold px under the returned pose.

    A problem draws its samples from its own rng in chunks of 4, 6, 9, 13,
    ... (each half again the last, up to params.max_iterations).  Every round
    stacks the chunks of all problems still running into one p3p_solve call,
    whose rows do not depend on what is stacked with them; each chunk is then
    walked in draw order.  So the chosen pose and the stopping iteration are
    those of a loop that solves one sample at a time, and no problem's result
    depends on the batch it is in.  A winner becomes a Pose at the end.

    Raises InsufficientDataError when a problem has fewer than 4 matches.
    """
    frames = []
    for pixels, points, params in problems:
        pixels = np.asarray(pixels, dtype=float).reshape(-1, 2)
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        if pixels.shape[0] < 4:
            raise InsufficientDataError("PnP needs at least 4 matches")
        frames.append(
            _PnpFrame(
                pixels, points, _bearings(pixels, intrinsics), params,
                np.random.default_rng(params.rng_seed),
            )
        )

    live = [frame for frame in frames if frame.live]
    while live:
        chunks = [frame.draw() for frame in live]
        owner, rotations, translations = p3p_solve(
            np.concatenate([f.bearings[s[:, :3]] for f, s in zip(live, chunks)]),
            np.concatenate([f.points[s[:, :3]] for f, s in zip(live, chunks)]),
        )
        offsets = np.cumsum([0] + [len(s) for s in chunks])
        bounds = np.searchsorted(owner, offsets)
        for j, (frame, samples) in enumerate(zip(live, chunks)):
            rows = slice(bounds[j], bounds[j + 1])
            frame.walk(
                samples, owner[rows] - offsets[j], rotations[rows], translations[rows],
                intrinsics,
            )
        live = [frame for frame in live if frame.live]

    results = []
    for frame in frames:
        if frame.best is None or frame.best_count < frame.params.min_inliers:
            results.append(None)
            continue
        pose = Pose(*frame.best)
        errors = _reprojection_errors(pose, intrinsics, frame.points, frame.pixels)
        results.append((pose, np.flatnonzero(errors < frame.params.inlier_threshold)))
    return results


def ransac_pnp(
    pixels: np.ndarray,
    points: np.ndarray,
    intrinsics: CameraIntrinsics,
    params: RansacParams | None = None,
) -> tuple[Pose, np.ndarray]:
    """Robust absolute pose from 2d-3d matches: ransac_pnp_batch on one problem.

    Returns (pose, sorted inlier index array).  Raises InsufficientDataError
    for fewer than 4 matches and EstimationFailedError ("localization
    failed") when no model reaches params.min_inliers.
    """
    (result,) = ransac_pnp_batch([(pixels, points, params or RansacParams())], intrinsics)
    if result is None:
        raise EstimationFailedError("localization failed")
    return result


def ransac_essential(
    x_a: np.ndarray,
    x_b: np.ndarray,
    params: RansacParams | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Robust essential matrix from normalized correspondences.

    Samples five pairs per iteration, scores candidates by their Sampson
    inlier count at params.inlier_threshold, and returns (E, inlier indices)
    for the best model found.

    Raises InsufficientDataError for fewer than 5 pairs and
    EstimationFailedError ("estimation failed") when no model reaches
    params.min_inliers.
    """
    params = params or RansacParams(max_iterations=1000, inlier_threshold=5e-4, min_inliers=15)
    xa = np.asarray(x_a, dtype=float).reshape(-1, 2)
    xb = np.asarray(x_b, dtype=float).reshape(-1, 2)
    n = xa.shape[0]
    if n < 5:
        raise InsufficientDataError("essential estimation needs at least 5 pairs")

    rng = np.random.default_rng(params.rng_seed)
    best_e: np.ndarray | None = None
    best_count = 0

    for iteration in range(params.max_iterations):
        idx = rng.choice(n, size=5, replace=False)
        try:
            candidates = five_point_essential(xa[idx], xb[idx])
        except SemlocError:
            continue
        for e in candidates:
            count = int(np.sum(sampson_error(e, xa, xb) < params.inlier_threshold))
            if count > best_count:
                best_count = count
                best_e = e
        if best_e is not None and iteration + 1 >= _iterations_needed(best_count / n, 5):
            break

    if best_e is None or best_count < params.min_inliers:
        raise EstimationFailedError("estimation failed")
    inliers = np.flatnonzero(sampson_error(best_e, xa, xb) < params.inlier_threshold)
    return best_e, inliers
