"""Quaternion helpers, scalar-first [w, x, y, z], broadcastable over leading axes."""

from __future__ import annotations

import numpy as np

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def multiply(a, b):
    """Hamilton product a*b; shapes broadcast over leading axes.

    Terms are grouped into pairwise-cancelling halves so that q * conj(q)
    has an exactly zero vector part (and hence exactly zero angle).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    w1, x1, y1, z1 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    w2, x2, y2, z2 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            (w1 * w2 - x1 * x2) - (y1 * y2 + z1 * z2),
            (w1 * x2 + x1 * w2) + (y1 * z2 - z1 * y2),
            (w1 * y2 + y1 * w2) + (z1 * x2 - x1 * z2),
            (w1 * z2 + z1 * w2) + (x1 * y2 - y1 * x2),
        ],
        axis=-1,
    )


def conjugate(q):
    q = np.asarray(q, dtype=float)
    out = q.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def angle(q):
    """Rotation angle in radians, in [0, pi]: 2*atan2(|vec|, |w|)."""
    q = np.asarray(q, dtype=float)
    return 2.0 * np.arctan2(np.linalg.norm(q[..., 1:], axis=-1), np.abs(q[..., 0]))


def to_matrix(q):
    """Unit quaternion(s) to rotation matrix (..., 3, 3)."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    row0 = np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], axis=-1)
    row1 = np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], axis=-1)
    row2 = np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], axis=-1)
    return np.stack([row0, row1, row2], axis=-2)


def from_matrix(R):
    """Rotation matrix (..., 3, 3) to unit quaternion with w >= 0."""
    R = np.asarray(R, dtype=float)
    m00, m01, m02 = R[..., 0, 0], R[..., 0, 1], R[..., 0, 2]
    m10, m11, m12 = R[..., 1, 0], R[..., 1, 1], R[..., 1, 2]
    m20, m21, m22 = R[..., 2, 0], R[..., 2, 1], R[..., 2, 2]
    # Shepperd: four candidate decompositions, keep the best-conditioned one.
    t0 = 1.0 + m00 + m11 + m22
    t1 = 1.0 + m00 - m11 - m22
    t2 = 1.0 - m00 + m11 - m22
    t3 = 1.0 - m00 - m11 + m22
    c0 = np.stack([t0, m21 - m12, m02 - m20, m10 - m01], axis=-1)
    c1 = np.stack([m21 - m12, t1, m01 + m10, m02 + m20], axis=-1)
    c2 = np.stack([m02 - m20, m01 + m10, t2, m12 + m21], axis=-1)
    c3 = np.stack([m10 - m01, m02 + m20, m12 + m21, t3], axis=-1)
    cands = np.stack([c0, c1, c2, c3], axis=-2)  # (..., 4, 4)
    best = np.argmax(np.stack([t0, t1, t2, t3], axis=-1), axis=-1)
    q = np.take_along_axis(cands, best[..., None, None], axis=-2).squeeze(-2)
    q = q / np.linalg.norm(q, axis=-1, keepdims=True)
    sign = np.where(q[..., 0:1] < 0.0, -1.0, 1.0)
    return q * sign


def from_rotvec(w):
    """Rotation vector(s) (..., 3) to unit quaternion; exact at ||w|| = 0."""
    w = np.asarray(w, dtype=float)
    theta = np.linalg.norm(w, axis=-1, keepdims=True)
    half = 0.5 * theta
    # sin(theta/2)/theta, finite at 0 via sinc
    coef = 0.5 * np.sinc(half / np.pi)
    return np.concatenate([np.cos(half), w * coef], axis=-1)
