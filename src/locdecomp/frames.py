"""Planar coordinate frames and heading conventions.

Two Cartesian frames are used throughout:

- navigation frame: local tangent plane, x = east, y = north
- body frame: vehicle-fixed, x = forward, y = left

The heading angle ``gamma`` is the rotation from navigation to body axes
(0 = facing east, counter-clockwise positive);
:class:`~locdecomp.error_models.KinematicInput` normalizes it to
``(-pi, pi]`` at construction.  Frame membership of a vector is a
documented convention, not enforced by types; conversions go through
explicit rotations only (:func:`rotate` by the heading takes a body-frame
vector to the navigation frame, by minus the heading back).
"""

from __future__ import annotations

import numbers

import numpy as np

TWO_PI = 2.0 * np.pi


def normalize_angle(angle):
    """Normalize an angle (or array of angles) in radians to ``(-pi, pi]``."""
    a = np.remainder(angle, TWO_PI)
    a = np.where(a > np.pi, a - TWO_PI, a)
    return float(a) if np.isscalar(angle) else a


def as_points(v, name: str = "points") -> np.ndarray:
    """Coerce to a finite float array of 2-vectors, shape (..., 2)."""
    arr = np.asarray(v, dtype=float)
    if arr.shape[-1:] != (2,):
        raise ValueError(f"{name} must have shape (..., 2), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {arr}")
    return arr


def as_count(value, name: str) -> int:
    """``value`` as an int: an integral number such as ``8`` or ``8.0``; a
    boolean, a string, None or a fractional number raises ValueError naming
    ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_real(value, name: str) -> float:
    """``value`` as a float: a real number such as ``0.1`` or ``1``; a boolean,
    a string, None or a non-real number raises ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def rotation_matrix(gamma: float) -> np.ndarray:
    """2x2 rotation matrix for a counter-clockwise rotation by ``gamma``."""
    c, s = np.cos(gamma), np.sin(gamma)
    return np.array([[c, -s], [s, c]])


def rotate(v, angle) -> np.ndarray:
    """Rotate 2-vectors ``v`` (shape (..., 2)) counter-clockwise by ``angle``,
    a scalar or an array broadcasting against ``v[..., 0]``."""
    v = np.asarray(v, dtype=float)
    if np.ndim(angle) == 0:
        # one 2-d product rounds every row alike, whatever the leading shape
        # (the elementwise form measured 1.05x the corner filter pass time)
        return (v.reshape(-1, 2) @ rotation_matrix(angle).T).reshape(v.shape)
    c, s = np.cos(angle), np.sin(angle)
    x, y = v[..., 0], v[..., 1]
    return np.stack((c * x - s * y, s * x + c * y), axis=-1)


def heading_rates(t, angles) -> np.ndarray:
    """Rates of sampled heading angles by central differences.

    Angles are unwrapped first so a crossing of the +/-pi seam does not
    produce a spurious rate spike.  Endpoints use one-sided differences.
    ``t`` must strictly increase.
    """
    t = np.asarray(t, dtype=float)
    angles = np.asarray(angles, dtype=float)
    if t.shape != angles.shape or t.ndim != 1:
        raise ValueError("t and angles must be 1-d arrays of equal length")
    if not np.all(np.diff(t) > 0.0):
        raise ValueError("t must strictly increase")
    if t.size < 2:
        return np.zeros_like(angles)
    return np.gradient(np.unwrap(angles), t)
