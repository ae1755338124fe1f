"""Rotation and translation-direction error metrics."""

from __future__ import annotations

import numpy as np


def rotation_error_deg(r_a: np.ndarray, r_b: np.ndarray) -> float:
    """Geodesic angle between two rotations, in degrees (range [0, 180]).

    Computed as 2 asin(||R_a - R_b||_F / (2 sqrt(2))), which is equivalent to
    the arccos-of-trace form but keeps full precision near zero.
    """
    diff = np.asarray(r_a, dtype=float) - np.asarray(r_b, dtype=float)
    s = np.linalg.norm(diff) / (2.0 * np.sqrt(2.0))
    return float(np.degrees(2.0 * np.arcsin(np.clip(s, 0.0, 1.0))))


def translation_heading_error_deg(t_a: np.ndarray, t_b: np.ndarray) -> float:
    """Angle between two translation directions, in degrees.

    NaN if either vector has (near-)zero norm, since the heading is
    undefined there.
    """
    a = np.asarray(t_a, dtype=float)
    b = np.asarray(t_b, dtype=float)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na < 1e-12 or nb < 1e-12:
        return float("nan")
    ua = a / na
    ub = b / nb
    # arctan2 of the half-angle chords: stable at both 0 and 180 degrees
    angle = 2.0 * np.arctan2(np.linalg.norm(ua - ub), np.linalg.norm(ua + ub))
    return float(np.degrees(angle))
