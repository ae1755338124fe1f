"""Minimal five-point essential-matrix solver (Nister, PAMI 2004).

The 4-dimensional nullspace of the 5x9 epipolar constraint matrix
parameterizes E = x*B0 + y*B1 + z*B2 + B3.  det(E) and the nine entries of
(E*E^T - trace(E*E^T)/2)*E give ten cubics in (x, y, z); eliminating their
ten pure cubic monomials yields a 10x10 action matrix for multiplication by
z, whose eigenvectors evaluate the solutions.  Candidates are polished by
Gauss-Newton and filtered against the essential-matrix constraints.

A (K, 5, 2) stack is solved with one SVD, one solve, one eig and one QR per
Gauss-Newton step; the polynomial algebra is elementwise, every dot product
a rowdot, and Gauss-Newton stops row by row, so a sample's candidates are
bitwise the same whatever it is stacked with.
"""

from __future__ import annotations

import numpy as np

from ..errors import InsufficientDataError
from .pose import repeated, rowdot

_CONSTRAINT_TOL = 1e-8
_NEXT, _LAST = [1, 2, 0], [2, 0, 1]
_XYZ = np.arange(3)

# monomial columns: x3 x2y x2z xy2 xyz xz2 y3 y2z yz2 z3 | x2 xy xz y2 yz z2 x y z 1
_MONO_EXP = [
    (3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1), (1, 0, 2),
    (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3),
    (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
    (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0),
]
_EXP = np.array(_MONO_EXP)
# A fixed generic rotation of the nullspace basis: a Householder reflection
# along (1, sqrt 2, sqrt 3, sqrt 5).  Exact structured data, such as a pure
# translation, can give a solution with no B3 part, at infinity in x, y, z.
_AXIS = np.sqrt([1.0, 2.0, 3.0, 5.0])
_MIX = np.eye(4) - 2.0 * np.outer(_AXIS, _AXIS) / (_AXIS @ _AXIS)


def _product_table(width: int) -> np.ndarray:
    """(2, out, 3) coefficient pairs (i, j) of a polynomial over the last
    `width` monomials and a linear one whose products make up each monomial
    of their product, padded with (width, 0), a zero coefficient."""
    degree = max(map(sum, _MONO_EXP[-width:])) + 1
    out = [exp for exp in _MONO_EXP if sum(exp) <= degree]
    pairs = [[] for _ in out]
    for i, a in enumerate(_MONO_EXP[-width:]):
        for j, b in enumerate(_MONO_EXP[-4:]):
            pairs[out.index(tuple(np.add(a, b)))].append((i, j))
    return np.array([p + [(width, 0)] * (3 - len(p)) for p in pairs]).transpose(2, 0, 1)


_TIMES_LINEAR = {width: _product_table(width) for width in (4, 10)}


def _times_linear(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Product of polynomials p (..., 4 or 10) and linear q (..., 4), the
    terms of each monomial added in a fixed order."""
    i, j = _TIMES_LINEAR[p.shape[-1]]
    terms = np.concatenate([p, np.zeros(p.shape[:-1] + (1,))], axis=-1)[..., i] * q[..., j]
    return terms[..., 0] + terms[..., 1] + terms[..., 2]


def _constraint_matrices(basis: np.ndarray) -> np.ndarray:
    """(K, 10, 20) coefficients of det(E) and of the nine entries of
    (E E^T - trace(E E^T) / 2) E, for the (K, 4, 3, 3) nullspace bases."""
    e = np.moveaxis(basis, 1, -1)  # (K, 3, 3, 4): each entry linear in x, y, z, 1
    cross = _times_linear(e[:, 1, _NEXT], e[:, 2, _LAST])
    cross -= _times_linear(e[:, 1, _LAST], e[:, 2, _NEXT])
    det = sum(_times_linear(cross[:, k], e[:, 0, k]) for k in range(3))
    eet = sum(_times_linear(e[:, :, None, k], e[:, None, :, k]) for k in range(3))
    eet[:, _XYZ, _XYZ] -= 0.5 * (eet[:, 0, 0] + eet[:, 1, 1] + eet[:, 2, 2])[:, None]
    trace = sum(_times_linear(eet[:, :, j, None], e[:, None, j]) for j in range(3))
    return np.concatenate([det[:, None], trace.reshape(-1, 9, 20)], axis=1)


def _monomials(xyz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (M, 20) monomials at the (M, 3) points and their (M, 20, 3)
    Jacobian, from the exponent table."""
    powers = np.stack([np.ones_like(xyz), xyz, xyz * xyz, xyz * xyz * xyz], axis=-1)
    f0, f1, f2 = np.moveaxis(powers[:, _XYZ, _EXP], -1, 0)  # x^a, y^b, z^c
    d0, d1, d2 = np.moveaxis(_EXP * powers[:, _XYZ, np.maximum(_EXP - 1, 0)], -1, 0)
    return f0 * f1 * f2, np.stack([d0 * f1 * f2, f0 * d1 * f2, f0 * f1 * d2], axis=-1)


def _polish(xyz: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Three Gauss-Newton steps on the ten cubic equations m (M, 10, 20), one
    stacked QR per step.  A row stops before a non-finite step, or after a
    step shorter than 1e-14."""
    live = np.ones(len(xyz), dtype=bool)
    for _ in range(3):
        rows = np.flatnonzero(live)
        mono, mono_jac = _monomials(xyz[rows])
        q, r = np.linalg.qr(rowdot(m[rows][:, :, None], np.swapaxes(mono_jac, 1, 2)[:, None]))
        b = -rowdot(np.swapaxes(q, 1, 2), rowdot(m[rows], mono[:, None])[:, None])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            d2 = b[:, 2] / r[:, 2, 2]
            d1 = (b[:, 1] - r[:, 1, 2] * d2) / r[:, 1, 1]
            d0 = (b[:, 0] - r[:, 0, 1] * d1 - r[:, 0, 2] * d2) / r[:, 0, 0]
            delta = np.stack([d0, d1, d2], axis=1)
            step = np.isfinite(delta).all(axis=1)
            xyz[rows[step]] += delta[step]
            live[rows] = step & (np.sqrt(rowdot(delta, delta)) >= 1e-14)
    return xyz


def coincident(x_a: np.ndarray, x_b: np.ndarray) -> np.ndarray:
    """Whether the five points of each (K, 5, 2) sample coincide in both
    views, which leaves five_point_essential nothing to solve."""
    return (np.ptp(x_a, axis=1).max(axis=1) < 1e-12) & (np.ptp(x_b, axis=1).max(axis=1) < 1e-12)


def five_point_essential(x_a: np.ndarray, x_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Essential-matrix candidates for each of K samples of five normalized
    correspondences.

    x_a, x_b: (K, 5, 2) stacks; fewer than five rows raise
    InsufficientDataError.

    Returns (owner (M,), essentials (M, 3, 3)): candidate m belongs to sample
    owner[m].  Candidates are ordered by sample, have unit Frobenius norm
    and satisfy det(E) = 0, the trace constraint and the epipolar constraint
    on their five inputs to within 1e-8; a sample's later candidate that
    repeats an earlier one is dropped.  A coincident sample owns no rows,
    nor does one whose elimination is singular.  A sample's rows do not
    depend on what else is stacked with it.
    """
    x_a = np.asarray(x_a, dtype=float)
    x_b = np.asarray(x_b, dtype=float)
    if x_a.ndim == 3 and x_a.shape[1] < 5:
        raise InsufficientDataError("five-point solver needs 5 correspondences")
    if x_a.shape[1:] != (5, 2) or x_b.shape != x_a.shape:
        raise ValueError("five_point_essential takes (K, 5, 2) stacks")

    solvable = np.flatnonzero(~coincident(x_a, x_b))
    ones = np.ones((len(solvable), 5, 1))
    ha = np.concatenate([x_a[solvable], ones], axis=2)
    hb = np.concatenate([x_b[solvable], ones], axis=2)
    _, _, vt = np.linalg.svd((hb[..., :, None] * ha[..., None, :]).reshape(-1, 5, 9))
    basis = rowdot(_MIX[:, None], np.swapaxes(vt[:, 5:9], 1, 2)[:, None]).reshape(-1, 4, 3, 3)

    m = _constraint_matrices(basis)
    with np.errstate(divide="ignore", invalid="ignore"):
        m = m / np.sqrt(rowdot(m, m))[..., None]
        # a zero pivot, or a vanishing constraint row, would stop the whole
        # stacked solve: such a sample solves the identity and keeps nothing
        dead = ~np.isfinite(np.linalg.slogdet(m[..., :10])[1])
        m[dead] = np.eye(10, 20)
        reduced = np.linalg.solve(m[..., :10], m[..., 10:])
    action = np.zeros((len(solvable), 10, 10))
    action[:, :6] = -reduced[:, [2, 4, 5, 7, 8, 9]]  # z times x^2, xy, xz, y^2, yz, z^2
    action[:, [6, 7, 8, 9], [2, 4, 5, 8]] = 1.0  # z times x, y, z, 1
    # complex even where a whole stack's eigenvalues are real, so that every
    # sample divides as it would alone
    vecs = np.linalg.eig(action)[1].astype(complex)

    with np.errstate(divide="ignore", invalid="ignore"):
        sol = vecs[:, 6:9] / vecs[:, 9:10]  # (K, 3, 10): x, y, z of each eigenvector
    real = np.abs(sol.imag).max(axis=1) <= 1e-6 * (1.0 + np.abs(sol.real).max(axis=1))
    owner, col = np.nonzero((np.abs(vecs[:, 9]) >= 1e-12) & real & ~dead[:, None])
    xyz = _polish(np.ascontiguousarray(sol.real[owner, :, col]), m[owner])

    e = rowdot(np.moveaxis(basis[owner], 1, -1), np.hstack([xyz, ones[owner, 0]])[:, None, None])
    norm = np.sqrt(rowdot(e.reshape(-1, 9), e.reshape(-1, 9)))
    with np.errstate(divide="ignore", invalid="ignore"):
        e = e / norm[:, None, None]
    eet = rowdot(e[:, :, None], e[:, None])
    eet[:, _XYZ, _XYZ] -= 0.5 * (eet[:, 0, 0] + eet[:, 1, 1] + eet[:, 2, 2])[:, None]
    trace = rowdot(eet[:, :, None], np.swapaxes(e, 1, 2)[:, None]).reshape(-1, 9)
    epipolar = rowdot(hb[owner], rowdot(e[:, None], ha[owner][:, :, None]))
    kept = np.flatnonzero(
        (norm >= 1e-12)
        & (np.abs(np.linalg.det(e)) <= _CONSTRAINT_TOL)
        & (2.0 * np.sqrt(rowdot(trace, trace)) <= _CONSTRAINT_TOL)
        & (np.abs(epipolar).max(axis=1, initial=0.0) <= _CONSTRAINT_TOL)
    )
    flat = e[kept].reshape(-1, 9)
    kept = kept[~repeated(owner[kept], lambda i, j: np.abs(rowdot(flat[i], flat[j])) > 1 - 1e-10)]
    return solvable[owner[kept]], e[kept]
