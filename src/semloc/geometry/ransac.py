"""One seeded, chunked RANSAC driver around the minimal pose and essential
solvers."""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import SemlocError
from .five_point import five_point_essential
from .p3p import p3p_solve
from .pose import CameraIntrinsics, Pose
from .epipolar import sampson_error

_CONFIDENCE = 0.999
_FIRST_CHUNK = 4
_MIN_DEPTH = 1e-9
_NO_INLIERS = np.empty(0, dtype=np.intp)


@dataclass(frozen=True)
class RansacParams:
    """Settings of one robust estimation; rng_seed fixes the sample stream."""

    max_iterations: int = 500
    inlier_threshold: float = 3.0
    min_inliers: int = 12
    rng_seed: int = 0


class RansacResult(NamedTuple):
    """An estimator's outcome: the model and its sorted inlier indices, or no
    model, no inliers and the reason ("insufficient matches", "localization
    failed" or "estimation failed")."""

    model: "Pose | np.ndarray | None"
    inliers: np.ndarray
    failure_reason: "str | None" = None


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


class _Search:
    """One problem of a lockstep RANSAC batch: its sample stream, its best
    model so far and its adaptive stop.  A kind of problem sets its sample
    size, stop rule and failure reason, and supplies solve(searches, chunks),
    each chunk's scored samples (position, inlier count, model) in draw
    order, and finish(best), the final model and its per-match errors."""

    sample_size: int
    stop_every_sample: bool  # else the stop is tested only when the best count rises
    failure: str

    def __init__(self, n: int, params: RansacParams):
        self.n = n
        self.params = params
        self.rng = np.random.default_rng(params.rng_seed)
        self.best = None
        self.best_count = 0
        self.start = 0  # samples drawn so far
        self.chunk = _FIRST_CHUNK
        self.stopped = n < self.sample_size  # too few matches for one sample

    @property
    def live(self) -> bool:
        return self.start < self.params.max_iterations and not self.stopped

    def draw(self) -> np.ndarray:
        """The next chunk of samples, (size, sample_size), from the problem's own rng."""
        size = min(self.chunk, self.params.max_iterations - self.start)
        return np.array(
            [self.rng.choice(self.n, size=self.sample_size, replace=False) for _ in range(size)]
        )

    def walk(self, drawn: int, scored: Iterable[tuple[int, int, object]]) -> None:
        """Walk a chunk of `drawn` samples in draw order, keeping the first
        model of the highest count, until the adaptive stop holds."""
        for i, count, model in scored:
            rose = count > self.best_count
            if rose:
                self.best_count, self.best = count, model
            elif not self.stop_every_sample or self.best is None:
                continue
            needed = _iterations_needed(self.best_count / self.n, self.sample_size)
            if self.start + i + 1 >= needed:
                self.stopped = True
                break
        self.start += drawn
        self.chunk += self.chunk // 2

    def result(self) -> RansacResult:
        if self.n < self.sample_size:
            return RansacResult(None, _NO_INLIERS, "insufficient matches")
        if self.best is None or self.best_count < self.params.min_inliers:
            return RansacResult(None, _NO_INLIERS, self.failure)
        model, errors = self.finish(self.best)
        return RansacResult(model, np.flatnonzero(errors < self.params.inlier_threshold))


def _lockstep(searches: Sequence[_Search]) -> list[RansacResult]:
    """Run searches of one kind in lockstep until each converges or reaches
    its cap: every round draws a chunk for each live search, solves the
    round and walks each chunk."""
    live = [search for search in searches if search.live]
    while live:
        chunks = [search.draw() for search in live]
        for search, samples, scored in zip(live, chunks, type(live[0]).solve(live, chunks)):
            search.walk(len(samples), scored)
        live = [search for search in live if search.live]
    return [search.result() for search in searches]


class _PnpSearch(_Search):
    """Absolute pose from 2d-3d matches.  A sample is four matches: the
    minimal solver runs on three and the fourth picks among its candidate
    poses by reprojection error."""

    sample_size = 4
    stop_every_sample = False
    failure = "localization failed"

    def __init__(self, pixels, points, params: RansacParams, intrinsics: CameraIntrinsics):
        self.pixels = np.asarray(pixels, dtype=float).reshape(-1, 2)
        self.points = np.asarray(points, dtype=float).reshape(-1, 3)
        self.bearings = _bearings(self.pixels, intrinsics)
        self.intrinsics = intrinsics
        super().__init__(len(self.pixels), params)

    @staticmethod
    def solve(searches, chunks) -> Iterator[Iterable[tuple[int, int, tuple]]]:
        """The whole round in one p3p_solve call, whose rows do not depend on
        what is stacked with them; a degenerate sample owns no rows."""
        owner, rotations, translations = p3p_solve(
            np.concatenate([s.bearings[c[:, :3]] for s, c in zip(searches, chunks)]),
            np.concatenate([s.points[c[:, :3]] for s, c in zip(searches, chunks)]),
        )
        offsets = np.cumsum([0] + [len(c) for c in chunks])
        bounds = np.searchsorted(owner, offsets)
        for j, (search, samples) in enumerate(zip(searches, chunks)):
            rows = slice(bounds[j], bounds[j + 1])
            chunk_r, chunk_t = rotations[rows], translations[rows]
            solved, chosen, counts = _score_chunk(
                owner[rows] - offsets[j], chunk_r, chunk_t, samples[:, 3],
                search.intrinsics, search.points, search.pixels,
                search.params.inlier_threshold,
            )
            yield [
                (i, count, (chunk_r[c], chunk_t[c]))
                for i, c, count in zip(solved.tolist(), chosen.tolist(), counts.tolist())
            ]

    def finish(self, best: tuple) -> tuple[Pose, np.ndarray]:
        pose = Pose(*best)
        return pose, _reprojection_errors(pose, self.intrinsics, self.points, self.pixels)


class _EssentialSearch(_Search):
    """Essential matrix from normalized correspondences.  A sample is five
    pairs; its candidates are scored by their Sampson inlier counts."""

    sample_size = 5
    stop_every_sample = True
    failure = "estimation failed"

    def __init__(self, x_a, x_b, params: RansacParams):
        self.xa = np.asarray(x_a, dtype=float).reshape(-1, 2)
        self.xb = np.asarray(x_b, dtype=float).reshape(-1, 2)
        super().__init__(len(self.xa), params)

    @staticmethod
    def solve(searches, chunks) -> list[Iterator[tuple[int, int, np.ndarray | None]]]:
        return [search.scored(samples) for search, samples in zip(searches, chunks)]

    def scored(self, samples: np.ndarray) -> Iterator[tuple[int, int, np.ndarray | None]]:
        """Solve each sample only when the walk reaches it, so no sample past
        the stop is solved.  A sample whose solver raised is left out."""
        for i, idx in enumerate(samples):
            try:
                candidates = five_point_essential(self.xa[idx], self.xb[idx])
            except SemlocError:
                continue
            counts = [
                int(np.sum(sampson_error(e, self.xa, self.xb) < self.params.inlier_threshold))
                for e in candidates
            ]
            if not counts:
                yield i, 0, None
                continue
            k = int(np.argmax(counts))  # the first of the highest
            yield i, counts[k], candidates[k]

    def finish(self, best: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return best, sampson_error(best, self.xa, self.xb)


def ransac_pnp_batch(
    problems: Sequence[tuple[np.ndarray, np.ndarray, RansacParams]],
    intrinsics: CameraIntrinsics,
) -> list[RansacResult]:
    """Robust absolute pose for each (pixels, points, params) problem, all
    advanced in lockstep.

    Returns a RansacResult per problem: the Pose and its sorted inliers,
    which all reproject below params.inlier_threshold px, or the reason:
    "insufficient matches" below 4 matches, "localization failed" where no
    model reaches params.min_inliers.

    A problem draws its samples from its own rng in chunks of 4, 6, 9, 13,
    ... (each half again the last, up to params.max_iterations).  Every round
    stacks the chunks of all problems still running into one p3p_solve call,
    whose rows do not depend on what is stacked with them; each chunk is then
    walked in draw order, testing the adaptive stop when the best count
    rises.  So the chosen pose and the stopping iteration are those of a
    loop that solves one sample at a time, and no problem's result depends
    on the batch it is in.  A winner becomes a Pose at the end.
    """
    return _lockstep(
        [_PnpSearch(pixels, points, params, intrinsics) for pixels, points, params in problems]
    )


def ransac_pnp(
    pixels: np.ndarray, points: np.ndarray, intrinsics: CameraIntrinsics, params: RansacParams
) -> RansacResult:
    """Robust absolute pose from 2d-3d matches: ransac_pnp_batch on one problem."""
    (result,) = ransac_pnp_batch([(pixels, points, params)], intrinsics)
    return result


def ransac_essential(x_a: np.ndarray, x_b: np.ndarray, params: RansacParams) -> RansacResult:
    """Robust essential matrix from normalized correspondences.

    Samples five pairs at a time, in chunks as ransac_pnp_batch does, and
    keeps the candidate with the highest Sampson inlier count at
    params.inlier_threshold, the first on a tie.  The adaptive stop is tested
    after every sample but one whose five-point solve raised.  Returns a
    RansacResult: E and its sorted inliers, or the reason: "insufficient
    matches" below 5 pairs, "estimation failed" where no model reaches
    params.min_inliers.
    """
    (result,) = _lockstep([_EssentialSearch(x_a, x_b, params)])
    return result
