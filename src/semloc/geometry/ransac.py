"""One seeded, chunked RANSAC driver around the minimal pose and essential
solvers."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .five_point import coincident, five_point_essential
from .p3p import p3p_solve
from .pose import CameraIntrinsics, Pose, reprojection_errors
from .epipolar import sampson_error

_CONFIDENCE = 0.999
_FIRST_CHUNK = 4
_NO_INLIERS = np.empty(0, dtype=np.intp)


@dataclass(frozen=True)
class RansacParams:
    """Settings of one robust estimation; rng_seed fixes the sample stream."""

    max_iterations: int
    inlier_threshold: float
    min_inliers: int
    rng_seed: int = 0


class RansacResult(NamedTuple):
    """An estimator's outcome: the model and its sorted inlier indices, or no
    model, no inliers and the reason ("insufficient matches", "localization
    failed" or "estimation failed"); then how hard it searched: the samples
    drawn and solved, the samples walked (the iterations of a loop that
    solves one sample at a time) and why it stopped: "converged" (the
    adaptive stop held), "cap" (params.max_iterations drawn) or "no_model"
    (too few matches for any model to be returned, so nothing was drawn)."""

    model: "Pose | np.ndarray | None"
    inliers: np.ndarray
    failure_reason: "str | None"
    samples_drawn: int
    samples_walked: int
    stop_reason: str


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


def _first_min(owner: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each sample that owns rows of a chunk, its row of least value, the
    first on a tie; returns (sample positions, rows)."""
    order = np.lexsort((values, owner))  # stable, so a tie keeps row order
    first = order[np.unique(owner[order], return_index=True)[1]]
    return owner[first], first


class _Search:
    """One problem of a lockstep RANSAC batch: its sample stream, its best
    model so far and its adaptive stop.  The stop is tested when the best
    count rises, and after every other walked sample once the best count
    reaches test_every_from: params.min_inliers where the kind of problem
    sets every_sample_once_returnable, else 1.  A kind of problem also sets
    its sample size and failure reason, and supplies solve, its stacked
    minimal solver (returning owner, *candidates); inputs(samples), a
    chunk's solver input; score(samples, owner, *candidates), the chunk's
    scored samples (position, inlier count, model) in draw order; and
    finish(best), the final model and its per-match errors."""

    sample_size: int
    every_sample_once_returnable: bool
    failure: str

    def __init__(self, n: int, params: RansacParams):
        self.n = n
        self.params = params
        self.rng = np.random.default_rng(params.rng_seed)
        self.best = None
        self.best_count = 0
        self.test_every_from = (
            max(1, params.min_inliers) if self.every_sample_once_returnable else 1
        )
        self.start = 0  # samples drawn so far
        self.walked = 0  # samples walked so far
        self.chunk = _FIRST_CHUNK
        # too few matches for one sample, or for a model to reach min_inliers
        self.stop = "no_model" if n < max(self.sample_size, params.min_inliers) else None

    @property
    def live(self) -> bool:
        return self.start < self.params.max_iterations and self.stop is None

    def draw(self) -> np.ndarray:
        """The next chunk of samples, (size, sample_size), from the problem's own rng."""
        size = min(self.chunk, self.params.max_iterations - self.start)
        return np.array(
            [self.rng.choice(self.n, size=self.sample_size, replace=False) for _ in range(size)]
        )

    def walk(self, drawn: int, scored: Iterable[tuple[int, int, object]]) -> None:
        """Walk a chunk of `drawn` samples in draw order, keeping the first
        model of the highest count, until the adaptive stop holds."""
        walked = drawn
        for i, count, model in scored:
            if count > self.best_count:
                self.best_count, self.best = count, model
            elif self.best_count < self.test_every_from:
                continue
            needed = _iterations_needed(self.best_count / self.n, self.sample_size)
            if self.start + i + 1 >= needed:
                self.stop, walked = "converged", i + 1
                break
        self.walked = self.start + walked
        self.start += drawn
        self.chunk += self.chunk // 2

    def result(self) -> RansacResult:
        counters = (self.start, self.walked, self.stop or "cap")
        if self.n < self.sample_size:
            return RansacResult(None, _NO_INLIERS, "insufficient matches", *counters)
        if self.best is None or self.best_count < self.params.min_inliers:
            return RansacResult(None, _NO_INLIERS, self.failure, *counters)
        model, errors = self.finish(self.best)
        inliers = np.flatnonzero(errors < self.params.inlier_threshold)
        return RansacResult(model, inliers, None, *counters)


def _lockstep(searches: Sequence[_Search]) -> list[RansacResult]:
    """Run searches of one kind in lockstep until each converges or reaches
    its cap: every round draws a chunk for each live search, solves all the
    chunks in one call of the kind's solver, whose rows do not depend on
    what is stacked with them, and walks each chunk's scored samples."""
    live = [search for search in searches if search.live]
    while live:
        chunks = [search.draw() for search in live]
        inputs = zip(*(search.inputs(samples) for search, samples in zip(live, chunks)))
        owner, *candidates = type(live[0]).solve(*map(np.concatenate, inputs))
        offsets = np.cumsum([0] + [len(samples) for samples in chunks])
        bounds = np.searchsorted(owner, offsets)
        for j, (search, samples) in enumerate(zip(live, chunks)):
            rows = slice(bounds[j], bounds[j + 1])
            scored = search.score(samples, owner[rows] - offsets[j], *(c[rows] for c in candidates))
            search.walk(len(samples), scored)
        live = [search for search in live if search.live]
    return [search.result() for search in searches]


class _PnpSearch(_Search):
    """Absolute pose from 2d-3d matches.  A sample is four matches: the
    minimal solver runs on three and the fourth picks among its candidate
    poses by reprojection error."""

    sample_size = 4
    every_sample_once_returnable = True
    failure = "localization failed"

    def __init__(self, pixels, points, params: RansacParams, intrinsics: CameraIntrinsics):
        self.pixels = np.asarray(pixels, dtype=float).reshape(-1, 2)
        self.points = np.asarray(points, dtype=float).reshape(-1, 3)
        self.bearings = _bearings(self.pixels, intrinsics)
        self.intrinsics = intrinsics
        super().__init__(len(self.pixels), params)

    @staticmethod
    def solve(bearings, points):
        return p3p_solve(bearings, points)

    def inputs(self, samples):
        return self.bearings[samples[:, :3]], self.points[samples[:, :3]]

    def score(self, samples, owner, rotations, translations) -> list[tuple[int, int, tuple]]:
        """Each solved sample's candidate with the least reprojection error at
        the sample's fourth match (the first on a tie) and its inlier count."""
        probe = samples[owner, 3]
        probe_err = reprojection_errors(
            rotations, translations, self.intrinsics,
            self.points[probe][:, None], self.pixels[probe][:, None],
        )[:, 0]
        solved, chosen = _first_min(owner, probe_err)
        errors = reprojection_errors(
            rotations[chosen], translations[chosen], self.intrinsics, self.points, self.pixels
        )
        counts = np.sum(errors < self.params.inlier_threshold, axis=1)
        return [
            (i, count, (rotations[c], translations[c]))
            for i, c, count in zip(solved.tolist(), chosen.tolist(), counts.tolist())
        ]

    def finish(self, best: tuple) -> tuple[Pose, np.ndarray]:
        return Pose(*best), reprojection_errors(*best, self.intrinsics, self.points, self.pixels)


class _EssentialSearch(_Search):
    """Essential matrix from normalized correspondences.  A sample is five
    pairs; its candidates are scored by their Sampson inlier counts."""

    sample_size = 5
    every_sample_once_returnable = False
    failure = "estimation failed"

    def __init__(self, x_a, x_b, params: RansacParams):
        self.xa = np.asarray(x_a, dtype=float).reshape(-1, 2)
        self.xb = np.asarray(x_b, dtype=float).reshape(-1, 2)
        super().__init__(len(self.xa), params)

    @staticmethod
    def solve(x_a, x_b):
        return five_point_essential(x_a, x_b)

    def inputs(self, samples):
        return self.xa[samples], self.xb[samples]

    def score(self, samples, owner, essentials) -> list[tuple[int, int, np.ndarray | None]]:
        """Each sample's candidate with the highest Sampson inlier count, the
        first on a tie, and that count, all counted in one stacked call.  A
        coincident sample is left out; a sample with no candidate counts 0."""
        errors = sampson_error(essentials, self.xa, self.xb)
        counts = np.sum(errors < self.params.inlier_threshold, axis=1)
        best = dict(zip(*(a.tolist() for a in _first_min(owner, -counts))))
        return [
            (i, int(counts[best[i]]), essentials[best[i]]) if i in best else (i, 0, None)
            for i in np.flatnonzero(~coincident(*self.inputs(samples))).tolist()
        ]

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
    model reaches params.min_inliers; a problem with fewer matches than that
    draws nothing.

    A problem draws its samples from its own rng in chunks of 4, 6, 9, 13,
    ... (each half again the last, up to params.max_iterations).  Every round
    stacks the chunks of all problems still running into one p3p_solve call,
    whose rows do not depend on what is stacked with them; each chunk is then
    walked in draw order, testing the adaptive stop when the best count
    rises and, once it reaches params.min_inliers, after every sample, so a
    problem that fails stops where testing only on a rise would.  The chosen
    pose and the stopping iteration are those of a loop that solves one
    sample at a time, and no problem's result depends on the batch it is
    in.  A winner becomes a Pose at the end.
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

    Samples five pairs at a time, in chunks as ransac_pnp_batch does, solves
    each chunk in one five_point_essential call and keeps the candidate with
    the highest Sampson inlier count at params.inlier_threshold, the first on
    a tie.  The adaptive stop is tested after every sample but a coincident
    one, which five-point cannot solve.  Returns a RansacResult: E and its
    sorted inliers, or the reason: "insufficient matches" below 5 pairs,
    "estimation failed" where no model reaches params.min_inliers; with
    fewer pairs than that it draws nothing.
    """
    (result,) = _lockstep([_EssentialSearch(x_a, x_b, params)])
    return result
