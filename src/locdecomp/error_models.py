"""Catalog of localization-error components and their composition.

The disparity between two independent localizers is modeled as a sum of
parameterized error components.  Each component maps its parameter slice
and the agent's measured kinematic state to a 2-vector contribution in the
navigation frame.  Components are array-native: parameters of shape
``(..., d)`` give contributions of shape ``(..., 2)``, and array-valued
kinematic fields broadcast against the leading parameter axes, so one call
covers every sigma point of every run.  The kinematic state of a whole
trajectory is one :class:`KinematicInput` series, whose sample axis is the
last axis of ``t`` and of the heading arrays and axis -2 of
``ref_position``; indexing it gives one sample.  Components declare which
kinematic fields they read; state-independent components (e.g. a uniform
map translation) declare none.  A :class:`CompositeModel` stacks the parameters of all active
components into one state vector and enforces that each kinematic field
feeds at most one component, so the contributions remain separable.

Shipped components:

- ``map_translation``   uniform shift of the environment representation
- ``body_offset``       vehicle-fixed localizer offset, rotated by heading
- ``map_rotation``      map rotated about a pivot
- ``map_scale``         map uniformly scaled about a pivot
- ``map_shear``         axis-aligned map shear about a pivot

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
from .frames import Heading, as_points, as_vec2, rotate

KINEMATIC_FIELDS = ("heading", "ref_position")
MIN_SCALE = 1e-9


@dataclass(frozen=True)
class KinematicInput:
    """Measured agent state at one time step, or a series of N of them.

    ``ref_position`` is the reference localizer's navigation-frame position
    estimate; position-dependent components evaluate at it.  A sample has a
    scalar ``t`` and ``ref_position`` (2,), or (..., 2) for one per run.  A
    series has ``t``, heading angles and rates of shape (N,) and
    ``ref_position`` (..., N, 2); it has a length and is indexed over this
    sample axis: an integer gives one sample, a slice or an index array a
    sub-series, and iteration yields the samples in order.  Indexing does
    not validate again: a sample or sub-series shares the series' validated
    (finite, normalized, shape-checked) arrays.
    """

    t: float
    heading: Heading
    ref_position: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.t)):
            raise ValueError(f"timestamp must be finite, got {self.t}")
        object.__setattr__(self, "ref_position", as_points(self.ref_position, "ref_position"))
        if np.ndim(self.t) == 1:
            object.__setattr__(self, "t", np.asarray(self.t, dtype=float))
            shapes = (np.shape(self.heading.angle), np.shape(self.heading.rate),
                      self.ref_position.shape[-2:-1])
            if any(shape != self.t.shape for shape in shapes):
                raise DimensionMismatch(f"a series of {self.t.size} timestamps needs as many "
                                        f"heading angles, rates and positions, got {shapes}")

    def __len__(self) -> int:
        if np.ndim(self.t) != 1:
            raise TypeError("a single-sample KinematicInput has no sample axis")
        return self.t.size

    def __getitem__(self, key) -> "KinematicInput":
        len(self)  # a single sample raises here
        angle, rate = self.heading.angle[key], self.heading.rate[key]
        if np.ndim(angle) == 0:
            angle, rate = float(angle), float(rate)
        return _trusted(KinematicInput, t=self.t[key],
                        heading=_trusted(Heading, angle=angle, rate=rate),
                        ref_position=self.ref_position[..., key, :])


def _trusted(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as
    given, without ``__post_init__``: for views of arrays that the
    instance they come from has already validated."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class ErrorComponent:
    """One parameterized error contribution: a function of the measured state.

    ``fn(params, u)`` maps parameters (..., param_dim) to contributions
    (..., 2), broadcasting array fields of ``u`` against the leading axes.
    It must be deterministic and read only the kinematic fields listed in
    ``depends_on``.  The shipped components contribute nothing at zero
    parameters, the filter's default initial guess.
    """

    name: str
    param_dim: int
    depends_on: frozenset
    fn: Callable[[np.ndarray, KinematicInput], np.ndarray]

    def __post_init__(self):
        if self.param_dim < 1:
            raise ValueError(f"param_dim must be >= 1, got {self.param_dim}")
        unknown = set(self.depends_on) - set(KINEMATIC_FIELDS)
        if unknown:
            raise ValueError(f"unknown kinematic fields {sorted(unknown)}; "
                             f"known: {KINEMATIC_FIELDS}")
        object.__setattr__(self, "depends_on", frozenset(self.depends_on))


@dataclass(frozen=True)
class CompositeModel:
    """Ordered combination of error components over one stacked state vector.

    Construction rejects two components reading the same kinematic field:
    a field contributing to several components makes their split
    unrecoverable from the difference observations.
    """

    components: tuple
    offsets: tuple = field(init=False)
    state_dim: int = field(init=False)

    def __post_init__(self):
        components = tuple(self.components)
        if not components:
            raise ValueError("a composite model needs at least one component")
        seen: dict[str, str] = {}
        for comp in components:
            for f in comp.depends_on:
                if f in seen:
                    raise ValueError(
                        f"kinematic field '{f}' feeds both '{seen[f]}' and "
                        f"'{comp.name}'; each field may drive only one component")
                seen[f] = comp.name
        offsets = []
        total = 0
        for comp in components:
            offsets.append(total)
            total += comp.param_dim
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "offsets", tuple(offsets))
        object.__setattr__(self, "state_dim", total)

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

    return ErrorComponent(name="map_translation", param_dim=2,
                          depends_on=frozenset(), fn=fn)


def body_offset() -> ErrorComponent:
    """Vehicle-fixed localizer offset, rotated into the navigation frame by heading."""
    def fn(params, u):
        return rotate(params, u.heading.angle)

    return ErrorComponent(name="body_offset", param_dim=2,
                          depends_on=frozenset({"heading"}), fn=fn)


# ---------------------------------------------------------------------------
# position-dependent components: map deformations about a pivot
# ---------------------------------------------------------------------------

def _deformation(name: str, pivot, image) -> ErrorComponent:
    """A map deformation hosted by the reference localizer.

    The other localizer's estimate is the reference position ``p`` mapped
    back through the deformation, ``pivot + image(p - pivot, params)``, so
    the contribution is ``p`` minus that point.
    """
    pivot = as_vec2(pivot, "pivot")

    def fn(params, u):
        return u.ref_position - (pivot + image(u.ref_position - pivot, params))

    return ErrorComponent(name=name, param_dim=1,
                          depends_on=frozenset({"ref_position"}), fn=fn)


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


def map_shear(pivot=(0.0, 0.0), axis: str = "x") -> ErrorComponent:
    """Map sheared along an axis about a pivot; estimate the shear factor.

    ``axis="x"`` displaces the x coordinate proportionally to y;
    ``axis="y"`` the converse.
    """
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    row, col = (0, 1) if axis == "x" else (1, 0)
    unit = np.eye(2)[row]

    def image(lever, params):
        return lever + (-params[..., 0] * lever[..., col])[..., None] * unit

    return _deformation("map_shear", pivot, image)
