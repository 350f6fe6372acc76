"""Planar coordinate frames and heading conventions.

Two Cartesian frames are used throughout:

- navigation frame: local tangent plane, x = east, y = north
- body frame: vehicle-fixed, x = forward, y = left

The heading angle ``gamma`` is the rotation from navigation to body axes
(0 = facing east, counter-clockwise positive) and is always normalized to
``(-pi, pi]``.  Frame membership of a vector is a documented convention,
not enforced by types; conversions go through explicit rotations only
(:func:`rotate` by the heading takes a body-frame vector to the navigation
frame, by minus the heading back).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

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


def as_vec2(v, name: str = "vector") -> np.ndarray:
    """Coerce to a finite float vector of shape (2,)."""
    arr = np.asarray(v, dtype=float)
    if arr.shape != (2,):
        raise ValueError(f"{name} must have shape (2,), got {arr.shape}")
    return as_points(arr, name)


def as_count(value, name: str) -> int:
    """``value`` as an int: an integral number such as ``8`` or ``8.0``; a
    boolean, a string, None or a fractional number raises ValueError naming
    ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Heading:
    """Heading angle and its time derivative.

    Both are scalars, or arrays for a series of samples.  ``angle`` is
    normalized to ``(-pi, pi]`` at construction; ``rate`` is an explicit
    measured input, not differentiated internally (see
    :func:`heading_rates` for filling it from sampled angles).
    """

    angle: float
    rate: float = 0.0

    def __post_init__(self):
        angle = np.asarray(self.angle, dtype=float)
        rate = np.asarray(self.rate, dtype=float)
        if not (np.isfinite(angle).all() and np.isfinite(rate).all()):
            raise ValueError(f"heading must be finite, got {self.angle}, {self.rate}")
        angle = angle if angle.ndim else float(angle)
        object.__setattr__(self, "angle", normalize_angle(angle))
        object.__setattr__(self, "rate", rate if rate.ndim else float(rate))


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
        return (v.reshape(-1, 2) @ rotation_matrix(angle).T).reshape(v.shape)
    c, s = np.cos(angle), np.sin(angle)
    x, y = v[..., 0], v[..., 1]
    return np.stack((c * x - s * y, s * x + c * y), axis=-1)


def heading_rates(t, angles) -> np.ndarray:
    """Heading rates by central differences over sampled heading angles.

    Angles are unwrapped first so a crossing of the +/-pi seam does not
    produce a spurious rate spike.  Endpoints use one-sided differences.
    """
    t = np.asarray(t, dtype=float)
    angles = np.asarray(angles, dtype=float)
    if t.shape != angles.shape or t.ndim != 1:
        raise ValueError("t and angles must be 1-d arrays of equal length")
    if t.size < 2:
        return np.zeros_like(angles)
    return np.gradient(np.unwrap(angles), t)
