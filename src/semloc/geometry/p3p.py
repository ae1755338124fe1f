"""Perspective-three-point absolute pose solver: Lambda Twist.

Persson and Nordberg, "Lambda Twist: An Accurate Fast Robust Perspective
Three Point (P3P) Solver", ECCV 2018.  The unknowns are the distances
lambda_i along the unit bearings y_i.  The three constraints
|lambda_i y_i - lambda_j y_j|^2 = |x_i - x_j|^2 give two homogeneous
quadrics in lambda; one real root of a cubic makes a combination of them
degenerate, and its eigen-decomposition splits it into two planes
lambda_1 = w0 lambda_2 + w1 lambda_3.  Each plane and one constraint give a
quadratic in lambda_3 / lambda_2, so an instance has at most four lambda
triples.  Each is refined by Gauss-Newton on the three constraints, and its
pose is the Kabsch fit of the world points to the camera points
lambda_i y_i.

p3p_solve takes a (K, 3, 3) stack of instances and returns its candidate
poses as arrays, each tagged with the instance that owns it.  Every step is
an elementwise or a stacked numpy operation (one eigh, one SVD), and each
iterative loop stops row by row, so an instance's candidates are bitwise
the same whatever it is stacked with.
"""

from __future__ import annotations

import numpy as np

from .pose import camera_points, repeated, rotation_defects

_COLLINEAR_AREA = 1e-9
_ALIGN_TOL = 1e-6
_NEXT, _LAST = [1, 2, 0], [2, 0, 1]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross of (..., 3) vectors with its operation order, without its
    per-call axis handling."""
    return a[..., _NEXT] * b[..., _LAST] - a[..., _LAST] * b[..., _NEXT]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis of length 3, added left to right."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _cubic_root(b, c, d):
    """A real root of x^3 + b x^2 + c x + d, elementwise.

    The start is Lambda Twist's: where the cubic has two stationary points,
    the root beyond the one on its sign-changing side, from a second-order
    expansion there; otherwise the inflection point.  Newton steps follow;
    a root stops after its seventh step once |f| <= 1e-13, or after 50.
    Where b^2 = 3c the stationary points coincide at t = -b/3, the cubic is
    (x - t)^3 + f(t), and its root t + cbrt(-f(t)) is returned as it is.
    """
    v = np.sqrt(b * b - 3.0 * c)
    t1, t2 = (-b - v) / 3.0, (-b + v) / 3.0
    k1 = ((t1 + b) * t1 + c) * t1 + d
    k2 = ((t2 + b) * t2 + c) * t2 + d
    root = np.where(
        k1 > 0.0, t1 - np.sqrt(-k1 / (3.0 * t1 + b)), t2 + np.sqrt(-k2 / (3.0 * t2 + b))
    )
    flat = -b / 3.0
    flat = np.where(np.abs((3.0 * flat + 2.0 * b) * flat + c) < 1e-4, flat + 1.0, flat)
    root = np.where(b * b >= 3.0 * c, root, flat)
    for _ in range(7):
        f = ((root + b) * root + c) * root + d
        root = root - f / ((3.0 * root + 2.0 * b) * root + c)
    # later steps run only on the roots still live, r with its coefficients.  A
    # root stays where |f| <= 1e-13 or where its step leaves it; one whose step
    # returns it to its last value alternates between the two up to the cap,
    # so it stops at the one that the last of the 50 - taken steps left reaches
    live, r, last, lb, lc, ld = np.arange(len(root)), root, root, b, c, d
    for taken in range(7, 50):
        f = ((r + lb) * r + lc) * r + ld
        step = r - f / ((3.0 * r + 2.0 * lb) * r + lc)
        settled = ~(np.abs(f) > 1e-13) | (step == r)
        cycling = step == last
        if settled.any() or cycling.any():
            root[live] = r if (50 - taken) % 2 == 0 else np.where(settled, r, step)
            kept = ~(settled | cycling)
            live, lb, lc, ld, step, r = (a[kept] for a in (live, lb, lc, ld, step, r))
        last, r = r, step
        if not len(live):
            break
    root[live] = r
    # the start above divides by 3t + b = 0 there, and Newton by f'(t) = 0
    # at a triple root
    t = -b / 3.0
    return np.where(v == 0.0, t + np.cbrt(-(((t + b) * t + c) * t + d)), root)


def _residuals(lam, a, b):
    """lambda_i^2 + lambda_j^2 + b_ij lambda_i lambda_j - a_ij for the pairs
    (1, 2), (1, 3), (2, 3); lam, a and b are (..., 3)."""
    l1, l2, l3 = lam[..., 0], lam[..., 1], lam[..., 2]
    return np.stack(
        [
            l1 * l1 + l2 * l2 + b[..., 0] * l1 * l2 - a[..., 0],
            l1 * l1 + l3 * l3 + b[..., 1] * l1 * l3 - a[..., 1],
            l2 * l2 + l3 * l3 + b[..., 2] * l2 * l3 - a[..., 2],
        ],
        axis=-1,
    )


def _abs_sum(r):
    return np.abs(r[:, 0]) + np.abs(r[:, 1]) + np.abs(r[:, 2])


def _refine(lam, a, b, steps: int = 5):
    """Gauss-Newton on the three constraints, (M, 3) rows at a time.  A row
    stops once its absolute residuals sum below 1e-10, or before a step that
    would not lower that sum."""
    live = np.ones(len(lam), dtype=bool)
    for _ in range(steps):
        r = _residuals(lam, a, b)
        size = _abs_sum(r)
        live &= ~(size < 1e-10)
        if not live.any():
            break
        l1, l2, l3 = lam[:, 0], lam[:, 1], lam[:, 2]
        # the Jacobian [[j0, j1, 0], [j3, 0, j5], [0, j7, j8]] by its adjugate
        j0, j1 = 2.0 * l1 + b[:, 0] * l2, 2.0 * l2 + b[:, 0] * l1
        j3, j5 = 2.0 * l1 + b[:, 1] * l3, 2.0 * l3 + b[:, 1] * l1
        j7, j8 = 2.0 * l2 + b[:, 2] * l3, 2.0 * l3 + b[:, 2] * l2
        inv_det = 1.0 / (-j0 * j5 * j7 - j1 * j3 * j8)
        r1, r2, r3 = r[:, 0], r[:, 1], r[:, 2]
        step = np.stack(
            [
                -j5 * j7 * r1 - j1 * j8 * r2 + j1 * j5 * r3,
                -j3 * j8 * r1 + j0 * j8 * r2 - j0 * j5 * r3,
                j3 * j7 * r1 - j0 * j7 * r2 - j1 * j3 * r3,
            ],
            axis=1,
        )
        moved = lam - inv_det[:, None] * step
        live &= _abs_sum(_residuals(moved, a, b)) <= size
        lam = np.where(live[:, None], moved, lam)
    return lam


def _lambdas(y: np.ndarray, x: np.ndarray):
    """Distances along the (K, 3, 3) unit bearings y to the points x.

    Returns (K, 4, 3) lambda triples, ordered by plane and then by quadratic
    root, (K, 4) which of them are valid, and the (K, 3) coefficients a and
    b of the constraints on the pairs (1, 2), (1, 3) and (2, 3)."""
    y1, y2, y3 = y[:, 0], y[:, 1], y[:, 2]
    d12, d13, d23 = x[:, 0] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 2]
    b12, b13, b23 = -2.0 * _dot(y1, y2), -2.0 * _dot(y1, y3), -2.0 * _dot(y2, y3)
    a12, a13, a23 = _dot(d12, d12), _dot(d13, d13), _dot(d23, d23)

    # the cubic det(D1 - g D2) = 0 of the two homogeneous quadrics
    c12, c13, c23 = -0.5 * b12, -0.5 * b13, -0.5 * b23
    blob = c12 * c23 * c13 - 1.0
    s12, s13, s23 = 1.0 - c12 * c12, 1.0 - c13 * c13, 1.0 - c23 * c23
    p3 = a13 * (a23 * s13 - a13 * s23)
    p2 = 2.0 * blob * a23 * a13 + a13 * (2.0 * a12 + a13) * s23 + a23 * (a23 - a12) * s13
    p1 = a23 * (a13 - a23) * s12 - a12 * a12 * s23 - 2.0 * a12 * (blob * a23 + a13 * s23)
    p0 = a12 * (a12 * s23 - a23 * s12)
    g = _cubic_root(p2 / p3, p1 / p3, p0 / p3)

    # D1 - g D2 has a zero eigenvalue; the other two, largest magnitude
    # first, give the two planes through the origin that make it up
    m01, m02 = 0.5 * a23 * b12, -0.5 * a23 * b13 * g
    m12 = 0.5 * b23 * (a13 * g - a12)
    conic = np.stack(
        [
            np.stack([a23 * (1.0 - g), m01, m02], axis=-1),
            np.stack([m01, a23 - a12 + a13 * g, m12], axis=-1),
            np.stack([m02, m12, g * (a13 - a23) - a12], axis=-1),
        ],
        axis=1,
    )
    finite = np.isfinite(conic).all(axis=(1, 2))
    conic[~finite] = 0.0
    values, vectors = np.linalg.eigh(conic)
    order = np.argsort(-np.abs(values), axis=1, kind="stable")[:, :2]
    values = np.take_along_axis(values, order, axis=1)
    vectors = np.take_along_axis(vectors, order[:, None, :], axis=2)
    v = np.sqrt(np.maximum(0.0, -values[:, 1] / values[:, 0]))

    # lambda_1 = w0 lambda_2 + w1 lambda_3 for s = +v and s = -v, then the
    # (1, 2) and (1, 3) constraints give a quadratic in tau = lambda_3 / lambda_2
    s = np.stack([v, -v], axis=1)
    col = vectors[:, :, None, :]
    w2 = 1.0 / (s * col[:, 0, :, 1] - col[:, 0, :, 0])
    w0 = (col[:, 1, :, 0] - s * col[:, 1, :, 1]) * w2
    w1 = (col[:, 2, :, 0] - s * col[:, 2, :, 1]) * w2
    a12, a13, a23 = a12[:, None], a13[:, None], a23[:, None]
    b12, b13, b23 = b12[:, None], b13[:, None], b23[:, None]
    inv = 1.0 / ((a13 - a12) * w1 * w1 - a12 * b13 * w1 - a12)
    qb = (a13 * b12 * w1 - a12 * b13 * w0 - 2.0 * w0 * w1 * (a12 - a13)) * inv
    qc = ((a13 - a12) * w0 * w0 + a13 * b12 * w0 + a13) * inv
    disc = qb * qb - 4.0 * qc
    real = (disc >= 0.0) & finite[:, None]
    q = -0.5 * (qb + np.copysign(np.sqrt(disc), qb))
    tau = np.stack([q, qc / q], axis=2)  # (K, 2 signs, 2 roots)
    # the (2, 3) constraint sets the scale
    d = a23[:, :, None] / (tau * (b23[:, :, None] + tau) + 1.0)
    l2 = np.sqrt(d)
    l3 = tau * l2
    l1 = w0[:, :, None] * l2 + w1[:, :, None] * l3
    lam = np.stack([l1, l2, l3], axis=-1).reshape(-1, 4, 3)
    valid = (real[:, :, None] & (tau > 0.0) & (d > 0.0) & (l1 >= 0.0)).reshape(-1, 4)
    valid &= np.isfinite(lam).all(axis=2)
    return lam, valid, np.hstack([a12, a13, a23]), np.hstack([b12, b13, b23])


def _kabsch(world: np.ndarray, camera: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rigid transforms with camera_i ~= R @ world_i + t, one per (3, 3) pair
    of the (M, 3, 3) stacks (rows are points); returns (R, t)."""
    wc = world.mean(axis=1)
    cc = camera.mean(axis=1)
    h = np.swapaxes(world - wc[:, None], 1, 2) @ (camera - cc[:, None])
    u, _, vt = np.linalg.svd(h)
    v, ut = np.swapaxes(vt, 1, 2), np.swapaxes(u, 1, 2)
    reflect = np.zeros_like(h)
    reflect[:, 0, 0] = reflect[:, 1, 1] = 1.0
    reflect[:, 2, 2] = np.sign(np.linalg.det(v @ ut))
    r = v @ reflect @ ut
    return r, cc - (r @ wc[..., None])[..., 0]


def _misaligned(rotations, translations, bearings, points) -> np.ndarray:
    """Whether each candidate misses a bearing by more than 1e-6 rad (or puts
    a point behind the camera)."""
    cam = camera_points(rotations, translations, points)
    unit = cam / np.linalg.norm(cam, axis=2)[..., None]
    behind = (np.einsum("kij,kij->ki", bearings, unit) <= 0.0).any(axis=1)
    sines = np.linalg.norm(_cross(bearings, unit), axis=2)
    angle = np.arcsin(np.clip(sines, 0.0, 1.0)).max(axis=1)
    return behind | (angle > _ALIGN_TOL)


def _same_pose(rotations, translations, later, earlier) -> np.ndarray:
    """Whether the candidates at later and earlier agree to within 1e-6
    (translation relative to the earlier one's size)."""
    return (np.abs(rotations[later] - rotations[earlier]).max(axis=(1, 2)) < 1e-6) & (
        np.abs(translations[later] - translations[earlier]).max(axis=1)
        < 1e-6 * (1.0 + np.abs(translations[earlier]).max(axis=1))
    )


def p3p_solve(bearings: np.ndarray, points: np.ndarray) -> tuple:
    """All camera poses placing three world points on three bearing rays,
    for each of K instances.

    bearings: (K, 3, 3) direction vectors in the camera frame.
    points:   (K, 3, 3) world points, one row per bearing.

    Returns (owner (M,), rotations (M, 3, 3), translations (M, 3)): candidate
    m is the pose x_cam = rotations[m] @ x_world + translations[m] of
    instance owner[m].  Candidates are ordered by instance, then by plane
    and quadratic root.  An instance has up to four poses, each aligning
    every world point with its ray to within 1e-6 rad and passing Pose's
    orthonormality test.  A degenerate instance owns no rows: collinear or
    duplicate world points, or any candidate whose rotation Pose would
    reject.  An instance's rows do not depend on what else is stacked with
    it.
    """
    bearings = np.asarray(bearings, dtype=float)
    points = np.asarray(points, dtype=float)
    if bearings.ndim != 3 or bearings.shape[1:] != (3, 3) or points.shape != bearings.shape:
        raise ValueError("p3p_solve takes (K, 3, 3) bearing and point stacks")
    p1, p2, p3 = points[:, 0], points[:, 1], points[:, 2]
    normal = _cross(p2 - p1, p3 - p1)
    collinear = 0.5 * np.sqrt(_dot(normal, normal)) <= _COLLINEAR_AREA
    solvable = np.flatnonzero(~collinear & ~(_dot(p1 - p3, p1 - p3) < 1e-18))

    points = points[solvable]
    f = bearings[solvable]
    f = f / np.sqrt(_dot(f, f))[..., None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lam, valid, a, b = _lambdas(f, points)
        owner, slot = np.nonzero(valid)
        # a refinement step is taken only where it lowers the residuals, so
        # every refined triple stays finite
        lam = _refine(lam[owner, slot], a[owner], b[owner])
    f, points = f[owner], points[owner]
    rotations, translations = _kabsch(points, lam[:, :, None] * f)
    # a rotation Pose rejects aborts its whole instance
    rejected = rotation_defects(rotations)[1]
    kept = np.flatnonzero(~np.isin(owner, owner[rejected]))
    kept = kept[~_misaligned(rotations[kept], translations[kept], f[kept], points[kept])]
    r, t = rotations[kept], translations[kept]
    kept = kept[~repeated(owner[kept], lambda later, earlier: _same_pose(r, t, later, earlier))]
    return solvable[owner[kept]], rotations[kept], translations[kept]
