"""Perspective-three-point absolute pose solver.

Reduces the three distance equations to a quartic in the ratio of two
camera-to-point distances (Grunert's substitution).  The quartic
coefficients are composed from products of the ratio polynomials, term by
term as numpy's polynomial module rounds them, the roots are Newton-polished
(and, where they still miss the two distance-ratio equations, polished again
by Newton on both equations at once), and each candidate pose is tightened
with two Gauss-Newton steps on the bearing alignment before being accepted.

p3p_solve takes a (K, 3, 3) stack of instances and returns its candidate
poses as arrays, each tagged with the instance that owns it.  Every step is
an elementwise or a stacked numpy operation whose result for one instance
does not depend on how many are stacked, so an instance's candidates are
bitwise the same whatever it is stacked with.  Only the least-squares step
and the rare Newton polish in (u, v) run once per candidate.
"""

from __future__ import annotations

import numpy as np

from .pose import rotation_defects, rotation_from_axis_angle, rowdot, skew

_COLLINEAR_AREA = 1e-9
_ALIGN_TOL = 1e-6
_EYE = np.eye(3)
_NEXT, _LAST = [1, 2, 0], [2, 0, 1]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross of (..., 3) vectors with its operation order, without its
    per-call axis handling."""
    return a[..., _NEXT] * b[..., _LAST] - a[..., _LAST] * b[..., _NEXT]


def _polyval(coeffs, x):
    """Ascending coefficients evaluated at x in npoly.polyval's Horner order;
    each coefficient broadcasts against x."""
    value = coeffs[-1] + x * 0
    for c in coeffs[-2::-1]:
        value = c + value * x
    return value


def _grunert_quartic(cos_a, cos_b, cos_c, a_r, c_r, d_r):
    """Ascending quartic coefficients in v (K, 5), and the q, n, d
    coefficient tuples, from (K, 1) columns.

    q(v) = 1 - 2 cos_b v + v^2 ; u(v) = n(v) / d(v) from the difference of
    the two distance-ratio equations; substituting u back yields the quartic
        d^2 + n^2 - 2 cos_c n d - c_r q d^2.
    The products are npoly.polymul's, i.e. np.convolve's, term by term: a
    full overlap is a plain left-to-right sum, a partial overlap a BLAS dot
    product added onto 0.0 (the two-term ones go through one rowdot).  The
    sums are npoly.polyadd's, which adds a shorter series onto the head of
    a longer one.
    """
    ones = np.ones_like(cos_b)
    q0, q1, q2 = q = (ones, -2.0 * cos_b, ones)
    n0, n1, n2 = n = (d_r + 1.0, -2.0 * d_r * cos_b, d_r - 1.0)
    d0, d1 = d = (2.0 * cos_c, -2.0 * cos_a)
    dd0, dd1, dd2 = 0.0 + d0 * d0, d0 * d1 + d1 * d0, 0.0 + d1 * d1
    ends = rowdot(
        np.stack([n0, n1, n1, n2, q0, q1, q1, q2], -1).reshape(-1, 4, 2),
        np.stack([n1, n0, n2, n1, dd1, dd0, dd2, dd1], -1).reshape(-1, 4, 2),
    )
    nn1, nn3, qdd1, qdd3 = (ends[:, i : i + 1] for i in range(4))
    nn = (0.0 + n0 * n0, nn1, (n0 * n2 + n1 * n1) + n2 * n0, nn3, 0.0 + n2 * n2)
    nd = (0.0 + n0 * d0, n0 * d1 + n1 * d0, n1 * d1 + n2 * d0, 0.0 + n2 * d1)
    qdd = (0.0 + q0 * dd0, qdd1, (q0 * dd2 + q1 * dd1) + q2 * dd0, qdd3, 0.0 + q2 * dd2)
    nd_weight, qdd_weight = -2.0 * cos_c, -c_r
    quartic = np.hstack(
        [
            ((nn[0] + dd0) + nd_weight * nd[0]) + qdd_weight * qdd[0],
            ((nn[1] + dd1) + nd_weight * nd[1]) + qdd_weight * qdd[1],
            ((nn[2] + dd2) + nd_weight * nd[2]) + qdd_weight * qdd[2],
            (nn[3] + nd_weight * nd[3]) + qdd_weight * qdd[3],
            nn[4] + qdd_weight * qdd[4],
        ]
    )
    return quartic, q, n, d


def _real_roots(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real roots of each row of (K, w) ascending coefficients, Newton-polished.

    Returns (roots, kept), both (K, w - 1): per row the roots in the order of
    npoly.polyroots, and which of them are real and not within 1e-10
    (relative) of an earlier kept root.  A row is normalized by its largest
    coefficient and its leading coefficients below 1e-13 are dropped, so the
    companion matrices differ in size; each size is one stacked eigvals call.
    """
    rows, width = coeffs.shape
    scale = np.abs(coeffs).max(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = coeffs / scale
    significant = ~(np.abs(c) < 1e-13)
    significant[:, 0] = True
    length = width - np.argmax(significant[:, ::-1], axis=1)
    length[~np.isfinite(c).all(axis=1)] = 0  # includes an all-zero row, 0 / 0
    c = np.where(np.arange(width) < length[:, None], c, 0.0)

    roots = np.zeros((rows, width - 1), dtype=complex)
    for size in sorted(set(length.tolist()) - {0, 1}):
        degree = size - 1
        group = np.flatnonzero(length == size)
        if degree == 1:
            roots[group, 0] = -c[group, 0] / c[group, 1]
            continue
        companion = np.zeros((group.size, degree, degree))
        companion[:, np.arange(1, degree), np.arange(degree - 1)] = 1.0
        companion[:, :, -1] = 0.0 - c[group, :degree] / c[group, degree : degree + 1]
        roots[group, :degree] = np.sort(np.linalg.eigvals(companion), axis=1)

    present = np.arange(width - 1) < (length - 1)[:, None]
    v = roots.real
    real = present & ~(np.abs(roots.imag) > 1e-6 * np.fmax(1.0, np.abs(v)))
    # the polynomial and its derivative, zero-padded at the top: leading
    # zeros leave Horner's bits unchanged, so one padded row serves every degree
    stacked = np.stack([c, np.zeros_like(c)])
    stacked[1, :, :-1] = c[:, 1:] * np.arange(1, width)
    stacked = [stacked[:, :, i : i + 1] for i in range(width)]
    polishing = real.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(3):
            value, slope = _polyval(stacked, v)
            polishing &= ~(np.abs(slope) < 1e-14)
            v = np.where(polishing, v - value / slope, v)

    # a root within 1e-10 of an earlier kept one is dropped; such pairs are rare
    near = np.abs(v[:, :, None] - v[:, None, :]) < 1e-10 * np.fmax(1.0, np.abs(v))[:, :, None]
    kept = real.copy()
    for r, j, i in zip(*np.nonzero(np.tril(near, -1) & real[:, :, None] & real[:, None, :])):
        if kept[r, i]:
            kept[r, j] = False
    return v, kept


def _ratio_residuals(u, v, qv, cos_a, cos_c, a_r, c_r):
    return (
        u * u + v * v - 2.0 * u * v * cos_a - a_r * qv,
        1.0 + u * u - 2.0 * u * cos_c - c_r * qv,
    )


def _ratios_violated(u, v, qv, cos_a, cos_c, a_r, c_r):
    """Whether (u, v) misses either original distance-ratio equation."""
    res1, res2 = _ratio_residuals(u, v, qv, cos_a, cos_c, a_r, c_r)
    return (abs(res1) > 1e-6 * (1.0 + a_r)) | (abs(res2) > 1e-6 * (1.0 + c_r))


def _newton_ratios(u, v, cos_b, cos_a, cos_c, a_r, c_r, steps: int = 3):
    """Newton steps in (u, v) on both ratio equations at once (one candidate)."""
    for _ in range(steps):
        dq = 2.0 * v - 2.0 * cos_b
        jac = np.array(
            [
                [2.0 * u - 2.0 * v * cos_a, 2.0 * v - 2.0 * u * cos_a - a_r * dq],
                [2.0 * u - 2.0 * cos_c, -c_r * dq],
            ]
        )
        qv = float(_polyval((1.0, -2.0 * cos_b, 1.0), v))
        residuals = _ratio_residuals(u, v, qv, cos_a, cos_c, a_r, c_r)
        try:
            du, dv = np.linalg.solve(jac, -np.array(residuals))
        except np.linalg.LinAlgError:
            break
        u, v = u + float(du), v + float(dv)
    return u, v


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


def _unit_camera_rays(rotations, translations, points):
    cam = points @ np.swapaxes(rotations, 1, 2) + translations[:, None]
    norms = np.linalg.norm(cam, axis=2)
    return cam, norms, cam / norms[..., None]


def _polish(rotations, translations, bearings, points, steps: int = 2) -> np.ndarray:
    """Gauss-Newton on the cross-product bearing residuals (6 dof, 9
    residuals), in place.  A candidate stops when its step is not finite or
    below 1e-14.  Returns whether Pose would reject the candidate's rotation
    after Kabsch or after any step."""
    rejected = rotation_defects(rotations)[1]
    live = np.ones(len(rotations), dtype=bool)
    bearing_skew = skew(bearings)
    for _ in range(steps):
        idx = np.flatnonzero(live)
        if not idx.size:
            break
        cam, norms, unit = _unit_camera_rays(rotations[idx], translations[idx], points[idx])
        residual = _cross(bearings[idx], unit).reshape(-1, 9)
        d_unit = (_EYE - unit[..., :, None] * unit[..., None, :]) / norms[..., None, None]
        d_cam = np.empty(cam.shape + (6,))
        d_cam[..., :3] = -skew(cam)
        d_cam[..., 3:] = _EYE
        jac = (bearing_skew[idx] @ d_unit @ d_cam).reshape(-1, 9, 6)
        # numpy has no stacked least squares
        delta = np.array([np.linalg.lstsq(j, -r, rcond=None)[0] for j, r in zip(jac, residual)])
        finite = np.isfinite(delta).all(axis=1)
        live[idx[~finite]] = False
        idx, delta = idx[finite], delta[finite]
        rot = rotation_from_axis_angle(delta[:, :3])
        rotations[idx] = rot @ rotations[idx]
        translations[idx] = (rot @ translations[idx][..., None])[..., 0] + delta[:, 3:]
        rejected[idx] |= rotation_defects(rotations[idx])[1]
        live[idx[np.sqrt(rowdot(delta, delta)) < 1e-14]] = False
    return rejected


def _misaligned(rotations, translations, bearings, points) -> np.ndarray:
    """Whether each candidate misses a bearing by more than 1e-6 rad (or puts
    a point behind the camera)."""
    _, _, unit = _unit_camera_rays(rotations, translations, points)
    behind = (np.einsum("kij,kij->ki", bearings, unit) <= 0.0).any(axis=1)
    sines = np.linalg.norm(_cross(bearings, unit), axis=2)
    angle = np.arcsin(np.clip(sines, 0.0, 1.0)).max(axis=1)
    return behind | (angle > _ALIGN_TOL)


def _duplicates(owner, rotations, translations) -> np.ndarray:
    """Whether each accepted pose repeats an earlier kept pose of its
    instance (candidates are ordered by instance)."""
    later, earlier = np.nonzero(np.tril(owner[:, None] == owner[None, :], -1))
    close = (np.abs(rotations[later] - rotations[earlier]).max(axis=(1, 2)) < 1e-6) & (
        np.abs(translations[later] - translations[earlier]).max(axis=1)
        < 1e-6 * (1.0 + np.abs(translations[earlier]).max(axis=1))
    )
    duplicate = np.zeros(len(owner), dtype=bool)
    # pairs come ordered by the later pose, so each earlier verdict is final
    for m, i in zip(later[close], earlier[close]):
        duplicate[m] |= not duplicate[i]
    return duplicate


def _candidates(f, points, b2):
    """Distance ratios (u, v) of every candidate pose of the (R, 3, 3) unit
    bearings and points: returns (owner row, u, v, q(v)), ordered by row,
    root and u."""
    p1, p2, p3 = points[:, 0], points[:, 1], points[:, 2]
    sides = np.stack([p2 - p3, p1 - p2], axis=1)
    lengths = rowdot(sides, sides)
    a2, c2 = lengths[:, 0:1], lengths[:, 1:2]
    cosines = rowdot(f[:, [1, 0, 0]], f[:, [2, 2, 1]])
    cos_a, cos_b, cos_c = cosines[:, 0:1], cosines[:, 1:2], cosines[:, 2:3]
    a_r = a2 / b2
    c_r = c2 / b2
    d_r = (a2 - c2) / b2

    quartic, q, n, d = _grunert_quartic(cos_a, cos_b, cos_c, a_r, c_r, d_r)
    v, kept = _real_roots(quartic)

    # per root up to two u candidates: u = n(v) / d(v), or where d(v) ~ 0 the
    # two solutions of the second ratio equation, quadratic in u
    with np.errstate(divide="ignore", invalid="ignore"):
        qv = _polyval(q, v)
        kept &= ~(v <= 0.0) & ~(qv <= 1e-15)
        dv = _polyval(d, v)
        direct = np.abs(dv) > 1e-10
        disc = cos_c * cos_c - (1.0 - c_r * qv)
        quadratic = ~direct & ~(disc < 0.0)
        root = np.sqrt(disc)
        u = np.stack([np.where(direct, _polyval(n, v) / dv, cos_c + root), cos_c - root], 2)
        valid = np.stack([kept & (direct | quadratic), kept & quadratic], 2) & ~(u <= 0.0)
        width = 2 * v.shape[1]
        u, valid = u.reshape(len(f), width), valid.reshape(len(f), width)
        v, qv = np.repeat(v, 2, axis=1), np.repeat(qv, 2, axis=1)
        # both original ratio equations must hold.  Near a double root of the
        # quartic u = n(v) / d(v) magnifies a tiny error in v because d(v) ~ 0,
        # so a candidate that fails is first polished in (u, v).
        violated = valid & _ratios_violated(u, v, qv, cos_a, cos_c, a_r, c_r)
    for r, s in zip(*np.nonzero(violated)):
        ratios = (cos_a[r, 0], cos_c[r, 0], a_r[r, 0], c_r[r, 0])
        ur, vr = _newton_ratios(u[r, s], v[r, s], cos_b[r, 0], *ratios)
        qr = float(_polyval((1.0, -2.0 * cos_b[r, 0], 1.0), vr))
        if not (ur > 0.0 and vr > 0.0 and qr > 1e-15) or _ratios_violated(ur, vr, qr, *ratios):
            valid[r, s] = False
        else:
            u[r, s], v[r, s], qv[r, s] = ur, vr, qr
    owner, slot = np.nonzero(valid)
    return owner, u[owner, slot], v[owner, slot], qv[owner, slot]


def p3p_solve(bearings: np.ndarray, points: np.ndarray) -> tuple:
    """All camera poses placing three world points on three bearing rays,
    for each of K instances.

    bearings: (K, 3, 3) direction vectors in the camera frame.
    points:   (K, 3, 3) world points, one row per bearing.

    Returns (owner (M,), rotations (M, 3, 3), translations (M, 3)): candidate
    m is the pose x_cam = rotations[m] @ x_world + translations[m] of
    instance owner[m].  Candidates are ordered by instance, then by quartic
    root and u.  An instance has up to four poses, each aligning every world
    point with its ray to within 1e-6 rad and passing Pose's orthonormality
    test.  A degenerate instance owns no rows: collinear or duplicate world
    points, a quartic that is not finite, or any candidate whose rotation
    Pose would reject.  An instance's rows do not depend on what else is
    stacked with it.
    """
    bearings = np.asarray(bearings, dtype=float)
    points = np.asarray(points, dtype=float)
    if bearings.ndim != 3 or bearings.shape[1:] != (3, 3) or points.shape != bearings.shape:
        raise ValueError("p3p_solve takes (K, 3, 3) bearing and point stacks")
    p1, p2, p3 = points[:, 0], points[:, 1], points[:, 2]
    vectors = np.stack([_cross(p2 - p1, p3 - p1), p1 - p3], axis=1)
    area_sq, b2 = rowdot(vectors, vectors).T
    collinear = 0.5 * np.sqrt(area_sq) <= _COLLINEAR_AREA
    solvable = np.flatnonzero(~collinear & ~(b2 < 1e-18))

    points = points[solvable]
    f = bearings[solvable]
    f = f / np.linalg.norm(f, axis=2, keepdims=True)
    owner, u, v, qv = _candidates(f, points, b2[solvable, None])
    s1 = np.sqrt(b2[solvable[owner]] / qv)
    f, points = f[owner], points[owner]
    cam = f * np.column_stack([s1, u * s1, v * s1])[:, :, None]
    rotations, translations = _kabsch(points, cam)
    # a rotation Pose rejects, at any stage, aborts its whole instance
    rejected = _polish(rotations, translations, f, points)
    kept = np.flatnonzero(~np.isin(owner, owner[rejected]))
    kept = kept[~_misaligned(rotations[kept], translations[kept], f[kept], points[kept])]
    kept = kept[~_duplicates(owner[kept], rotations[kept], translations[kept])]
    return solvable[owner[kept]], rotations[kept], translations[kept]
