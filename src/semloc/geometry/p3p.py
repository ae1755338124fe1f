"""Perspective-three-point absolute pose solver.

Reduces the three distance equations to a quartic in the ratio of two
camera-to-point distances (Grunert's substitution).  The quartic
coefficients are composed numerically per call with polynomial arithmetic
instead of frozen expanded formulas, the roots are Newton-polished (and,
where they still miss the two distance-ratio equations, polished again by
Newton on both equations at once), and each candidate pose is tightened
with two Gauss-Newton steps on the bearing alignment before being accepted.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as npoly

from ..errors import DegenerateGeometryError
from .pose import Pose, rotation_from_axis_angle, skew

_COLLINEAR_AREA = 1e-9
_ALIGN_TOL = 1e-6


def _kabsch(world: np.ndarray, camera: np.ndarray) -> Pose:
    """Rigid transform with camera_i ~= R @ world_i + t (rows are points)."""
    wc = world.mean(axis=0)
    cc = camera.mean(axis=0)
    h = (world - wc).T @ (camera - cc)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return Pose(r, cc - r @ wc)


def _polish_pose(pose: Pose, bearings: np.ndarray, points: np.ndarray, steps: int = 2) -> Pose:
    """Gauss-Newton on the cross-product bearing residuals (6 dof, 9 residuals)."""
    for _ in range(steps):
        cam = pose.transform(points)
        norms = np.linalg.norm(cam, axis=1)
        unit = cam / norms[:, None]
        residual = np.cross(bearings, unit).reshape(-1)
        jac = np.empty((3 * len(points), 6))
        for i in range(len(points)):
            d_unit = (np.eye(3) - np.outer(unit[i], unit[i])) / norms[i]
            d_cam = np.hstack([-skew(cam[i]), np.eye(3)])
            jac[3 * i : 3 * i + 3] = skew(bearings[i]) @ d_unit @ d_cam
        delta, *_ = np.linalg.lstsq(jac, -residual, rcond=None)
        if not np.all(np.isfinite(delta)):
            break
        rot = rotation_from_axis_angle(delta[:3])
        pose = Pose(rot @ pose.rotation, rot @ pose.translation + delta[3:])
        if np.linalg.norm(delta) < 1e-14:
            break
    return pose


def _max_bearing_angle(pose: Pose, bearings: np.ndarray, points: np.ndarray) -> float:
    cam = pose.transform(points)
    norms = np.linalg.norm(cam, axis=1)
    unit = cam / norms[:, None]
    dots = np.einsum("ij,ij->i", bearings, unit)
    if np.any(dots <= 0.0):
        return np.pi
    sines = np.linalg.norm(np.cross(bearings, unit), axis=1)
    return float(np.max(np.arcsin(np.clip(sines, 0.0, 1.0))))


def _real_roots(coeffs: np.ndarray) -> list[float]:
    """Real roots of an ascending-coefficient polynomial, Newton-polished."""
    scale = np.max(np.abs(coeffs))
    if scale == 0.0:
        return []
    c = coeffs / scale
    while len(c) > 1 and abs(c[-1]) < 1e-13:
        c = c[:-1]
    if len(c) <= 1:
        return []
    roots = npoly.polyroots(c)
    deriv = npoly.polyder(c)
    out: list[float] = []
    for root in roots:
        if abs(root.imag) > 1e-6 * max(1.0, abs(root.real)):
            continue
        v = float(root.real)
        for _ in range(3):
            dv = npoly.polyval(v, deriv)
            if abs(dv) < 1e-14:
                break
            v = v - npoly.polyval(v, c) / dv
        if not any(abs(v - prev) < 1e-10 * max(1.0, abs(v)) for prev in out):
            out.append(v)
    return out


def p3p_solve(bearings: np.ndarray, points: np.ndarray) -> list[Pose]:
    """All camera poses placing three world points on three bearing rays.

    bearings: (3, 3) unit direction vectors in the camera frame.
    points:   (3, 3) world points, one row per bearing.

    Returns up to four poses; every returned pose aligns each world point
    with its ray to within 1e-6 rad.  Raises DegenerateGeometryError for
    collinear world points.
    """
    bearings = np.asarray(bearings, dtype=float)
    points = np.asarray(points, dtype=float)
    area = 0.5 * np.linalg.norm(np.cross(points[1] - points[0], points[2] - points[0]))
    if area <= _COLLINEAR_AREA:
        raise DegenerateGeometryError("world points are collinear")

    f1, f2, f3 = bearings / np.linalg.norm(bearings, axis=1, keepdims=True)
    p1, p2, p3 = points

    a2 = float(np.dot(p2 - p3, p2 - p3))
    b2 = float(np.dot(p1 - p3, p1 - p3))
    c2 = float(np.dot(p1 - p2, p1 - p2))
    if b2 < 1e-18:
        raise DegenerateGeometryError("duplicate world points")
    cos_a = float(np.dot(f2, f3))
    cos_b = float(np.dot(f1, f3))
    cos_c = float(np.dot(f1, f2))

    a_r = a2 / b2
    c_r = c2 / b2
    d_r = (a2 - c2) / b2

    # q(v) = 1 - 2 cos_b v + v^2 ; u(v) = n(v) / d(v) from the difference of
    # the two distance-ratio equations; substituting u back yields the quartic.
    q = np.array([1.0, -2.0 * cos_b, 1.0])
    n = np.array([d_r + 1.0, -2.0 * d_r * cos_b, d_r - 1.0])
    d = np.array([2.0 * cos_c, -2.0 * cos_a])

    dd = npoly.polymul(d, d)
    quartic = npoly.polyadd(dd, npoly.polymul(n, n))
    quartic = npoly.polyadd(quartic, -2.0 * cos_c * npoly.polymul(n, d))
    quartic = npoly.polyadd(quartic, -c_r * npoly.polymul(q, dd))

    def ratio_residuals(u: float, v: float, qv: float) -> tuple[float, float]:
        return (
            u * u + v * v - 2.0 * u * v * cos_a - a_r * qv,
            1.0 + u * u - 2.0 * u * cos_c - c_r * qv,
        )

    def ratios_violated(u: float, v: float, qv: float) -> bool:
        """Whether (u, v) misses either original distance-ratio equation."""
        res1, res2 = ratio_residuals(u, v, qv)
        return abs(res1) > 1e-6 * (1.0 + a_r) or abs(res2) > 1e-6 * (1.0 + c_r)

    def newton_ratios(u: float, v: float, steps: int = 3) -> tuple[float, float]:
        """Newton steps in (u, v) on both ratio equations at once."""
        for _ in range(steps):
            dq = 2.0 * v - 2.0 * cos_b
            jac = np.array(
                [
                    [2.0 * u - 2.0 * v * cos_a, 2.0 * v - 2.0 * u * cos_a - a_r * dq],
                    [2.0 * u - 2.0 * cos_c, -c_r * dq],
                ]
            )
            residuals = ratio_residuals(u, v, float(npoly.polyval(v, q)))
            try:
                du, dv = np.linalg.solve(jac, -np.array(residuals))
            except np.linalg.LinAlgError:
                break
            u, v = u + float(du), v + float(dv)
        return u, v

    poses: list[Pose] = []
    for root in _real_roots(np.asarray(quartic, dtype=float)):
        if root <= 0.0:
            continue
        qv = float(npoly.polyval(root, q))
        if qv <= 1e-15:
            continue
        dv = float(npoly.polyval(root, d))
        if abs(dv) > 1e-10:
            u_candidates = [float(npoly.polyval(root, n)) / dv]
        else:
            # d(v) ~ 0: fall back to the second ratio equation, quadratic in u
            disc = cos_c * cos_c - (1.0 - c_r * qv)
            if disc < 0.0:
                continue
            u_candidates = [cos_c + np.sqrt(disc), cos_c - np.sqrt(disc)]
        for u in u_candidates:
            if u <= 0.0:
                continue
            # both original ratio equations must hold.  Near a double root of
            # the quartic u = n(v) / d(v) magnifies a tiny error in v because
            # d(v) ~ 0, so a root that fails is first polished in (u, v).
            v, q_v = root, qv
            if ratios_violated(u, v, q_v):
                u, v = newton_ratios(u, v)
                q_v = float(npoly.polyval(v, q))
                if not (u > 0.0 and v > 0.0 and q_v > 1e-15) or ratios_violated(u, v, q_v):
                    continue
            s1 = np.sqrt(b2 / q_v)
            cam = np.vstack([s1 * f1, (u * s1) * f2, (v * s1) * f3])
            pose = _kabsch(points, cam)
            pose = _polish_pose(pose, np.vstack([f1, f2, f3]), points)
            if _max_bearing_angle(pose, np.vstack([f1, f2, f3]), points) > _ALIGN_TOL:
                continue
            duplicate = any(
                np.abs(pose.rotation - p.rotation).max() < 1e-6
                and np.abs(pose.translation - p.translation).max() < 1e-6 * (1.0 + np.abs(p.translation).max())
                for p in poses
            )
            if not duplicate:
                poses.append(pose)
    return poses
