"""Catalog of localization-error components and their composition.

The disparity between two independent localizers is modeled as a sum of
parameterized error components.  Each component maps its parameter slice
and the agent's measured kinematic state to a 2-vector contribution in the
navigation frame.  Components are array-native: parameters of shape
``(..., d)`` give contributions of shape ``(..., 2)``, and array-valued
kinematic fields broadcast against the leading parameter axes, so one call
covers every sigma point of every run.  The kinematic state of a whole
trajectory is one :class:`KinematicInput` series, whose sample axis is the
last axis of ``t``, ``heading`` and ``heading_rate`` and axis -2 of
``ref_position``; indexing it gives one sample.  A :class:`CompositeModel`
stacks the parameters of its components into one state vector and sums
their contributions.  Whether that sum separates into its components
depends on the trajectory driven, not on the components alone; the rank
test in :mod:`locdecomp.observability` measures it along a trajectory.

Shipped components:

- ``map_translation``   uniform shift of the environment representation
- ``body_offset``       vehicle-fixed localizer offset, rotated by heading
- ``map_rotation``      map rotated about a pivot
- ``map_scale``         map uniformly scaled about a pivot
- ``map_shear``         map shear along x about a pivot

The three map deformations are hosted by the reference localizer: the
other localizer's estimate is the reference position ``p`` mapped back
through the deformation, and the contribution is ``p`` minus that point.
A deformation hosted by the other localizer is the same component at the
inverse parameter: ``-theta`` for a rotation or shear by ``theta``, and
``1 / (1 + sigma) - 1`` for a scale deviation ``sigma``.  Every component
contributes nothing at zero parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .exceptions import DimensionMismatch, SingularTransform
from .frames import as_count, as_points, normalize_angle, rotate

MIN_SCALE = 1e-9


@dataclass(frozen=True)
class KinematicInput:
    """Measured agent state at one time step, or a series of N of them.

    ``heading`` is the heading angle, normalized to ``(-pi, pi]`` at
    construction, and ``heading_rate`` its measured time derivative (see
    :func:`~locdecomp.frames.heading_rates`); both must be finite.
    ``ref_position`` is the reference localizer's navigation-frame position
    estimate; position-dependent components evaluate at it.  A sample has
    float ``t``, ``heading`` and ``heading_rate`` and ``ref_position``
    (2,), or (..., 2) for one per run.  A series has them of shape (N,) and
    ``ref_position`` (..., N, 2); it has a length and is indexed over this
    sample axis: an integer gives one sample, a slice or an index array a
    sub-series, and iteration yields the samples in order.  Array fields
    are read-only views of the validated arrays (the caller's arrays stay
    writable), so indexing does not validate again, and a sample or
    sub-series is read-only too.
    """

    t: float
    heading: float
    ref_position: np.ndarray
    heading_rate: float = 0.0

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        heading = np.asarray(self.heading, dtype=float)
        rate = np.asarray(self.heading_rate, dtype=float)
        if not (np.isfinite(heading).all() and np.isfinite(rate).all()):
            raise ValueError(f"heading must be finite, got {self.heading}, {self.heading_rate}")
        if not np.isfinite(t).all():
            raise ValueError(f"timestamp must be finite, got {self.t}")
        positions = as_points(self.ref_position, "ref_position")
        shapes = (t.shape, heading.shape, rate.shape, positions.shape[-2:-1] if t.ndim else ())
        if t.ndim > 1 or any(shape != t.shape for shape in shapes):
            raise DimensionMismatch(f"t, heading and heading_rate must be scalars, or (N,) with "
                                    f"N heading angles, rates and positions; got {shapes}")
        for name, value in (("t", t), ("heading", normalize_angle(heading)),
                            ("heading_rate", rate), ("ref_position", positions)):
            if value.ndim:
                value = value.view()   # the caller's array stays writable
                value.flags.writeable = False
            object.__setattr__(self, name, value if value.ndim else float(value))

    def __len__(self) -> int:
        if np.ndim(self.t) != 1:
            raise TypeError("a single-sample KinematicInput has no sample axis")
        return self.t.size

    def __getitem__(self, key) -> "KinematicInput":
        len(self)  # a single sample raises here
        t, heading, rate = self.t[key], self.heading[key], self.heading_rate[key]
        positions = self.ref_position[..., key, :]
        if np.ndim(t) == 0:
            t, heading, rate = float(t), float(heading), float(rate)
        elif t.flags.writeable:   # an index array copies; a slice gives views
            for copy in (t, heading, rate, positions):
                copy.flags.writeable = False
        # without __post_init__: this instance has already validated the arrays
        sample = object.__new__(KinematicInput)
        for name, value in (("t", t), ("heading", heading), ("ref_position", positions),
                            ("heading_rate", rate)):
            object.__setattr__(sample, name, value)
        return sample


@dataclass(frozen=True)
class ErrorComponent:
    """One parameterized error contribution: a function of the measured state.

    ``fn(params, u)`` maps parameters (..., param_dim) to contributions
    (..., 2), broadcasting array fields of ``u`` against the leading axes.
    It must be deterministic.  The shipped components contribute nothing at
    zero parameters, the filter's default initial guess.
    """

    name: str
    param_dim: int
    fn: Callable[[np.ndarray, KinematicInput], np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "param_dim", as_count(self.param_dim, "param_dim"))
        if self.param_dim < 1:
            raise ValueError(f"param_dim must be >= 1, got {self.param_dim}")


@dataclass(frozen=True)
class CompositeModel:
    """Ordered combination of error components over one stacked state vector.

    Any components combine.  Whether the difference observations along a
    trajectory determine each component's parameters is measured there by
    :func:`~locdecomp.observability.numerical_rank_test`, not assumed here.
    """

    components: tuple
    offsets: tuple = field(init=False)
    state_dim: int = field(init=False)

    def __post_init__(self):
        components = tuple(self.components)
        if not components:
            raise ValueError("a composite model needs at least one component")
        offsets = np.cumsum([0] + [comp.param_dim for comp in components]).tolist()
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "offsets", tuple(offsets[:-1]))
        object.__setattr__(self, "state_dim", offsets[-1])

    def evaluate(self, x, u: KinematicInput) -> np.ndarray:
        """Predicted localizer difference: states (..., n) give (..., 2)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.state_dim,):
            raise DimensionMismatch(
                f"state must have shape (..., {self.state_dim}), got {x.shape}")
        terms = [comp.fn(x[..., off:off + comp.param_dim], u)
                 for off, comp in zip(self.offsets, self.components)]
        return sum(terms[1:], terms[0])


# ---------------------------------------------------------------------------
# basic components
# ---------------------------------------------------------------------------

def map_translation() -> ErrorComponent:
    """Uniform map shift: the contribution equals the parameters, for any input."""
    def fn(params, u):
        return params.copy()

    return ErrorComponent(name="map_translation", param_dim=2, fn=fn)


def body_offset() -> ErrorComponent:
    """Vehicle-fixed localizer offset, rotated into the navigation frame by heading."""
    def fn(params, u):
        return rotate(params, u.heading)

    return ErrorComponent(name="body_offset", param_dim=2, fn=fn)


# ---------------------------------------------------------------------------
# position-dependent components: map deformations about a pivot
# ---------------------------------------------------------------------------

def _deformation(name: str, pivot, image) -> ErrorComponent:
    """A map deformation hosted by the reference localizer.

    The other localizer's estimate is the reference position ``p`` mapped
    back through the deformation, ``pivot + image(p - pivot, params)``, so
    the contribution is ``p`` minus that point.
    """
    if np.shape(pivot) != (2,):
        raise ValueError(f"pivot must have shape (2,), got {np.shape(pivot)}")
    pivot = as_points(pivot, "pivot")

    def fn(params, u):
        return u.ref_position - (pivot + image(u.ref_position - pivot, params))

    return ErrorComponent(name=name, param_dim=1, fn=fn)


def map_rotation(pivot=(0.0, 0.0)) -> ErrorComponent:
    """Map rotated about a pivot; estimate the rotation angle (radians)."""
    def image(lever, params):
        return rotate(lever, -params[..., 0])

    return _deformation("map_rotation", pivot, image)


def map_scale(pivot=(0.0, 0.0)) -> ErrorComponent:
    """Map scaled about a pivot; estimate the scale deviation from 1.

    The scale factor is ``1 + sigma``; a factor below ``MIN_SCALE`` in
    magnitude raises :class:`~locdecomp.exceptions.SingularTransform`.
    """
    def image(lever, params):
        s = 1.0 + params[..., :1]
        singular = np.abs(s) < MIN_SCALE
        if singular.any():
            raise SingularTransform(f"scale factor {s[singular][0]} is not invertible")
        return lever / s

    return _deformation("map_scale", pivot, image)


def map_shear(pivot=(0.0, 0.0)) -> ErrorComponent:
    """Map sheared along x about a pivot; estimate the shear factor, by
    which the x coordinate is displaced proportionally to y."""
    unit = np.array([1.0, 0.0])

    def image(lever, params):
        return lever + (-params[..., 0] * lever[..., 1])[..., None] * unit

    return _deformation("map_shear", pivot, image)
