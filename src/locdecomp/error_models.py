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
- ``map_rotation``      map rotated about a pivot (via planar transform)
- ``map_scale``         map uniformly scaled about a pivot
- ``map_shear``         axis-aligned map shear about a pivot

Position-dependent components are derived from an invertible planar
transform ``e``: with localizer A as the reference, the contribution is
``p - e^-1(p)`` evaluated at the reference position ``p`` (flip
``reference`` to ``"other"`` to host the deformation on the other side,
which uses the forward map instead); ``reference`` is checked, and the map
picked, once, when the component is built.
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
    """One parameterized error contribution.

    ``fn(params, u)`` maps parameters (..., param_dim) to contributions
    (..., 2), broadcasting array fields of ``u`` against the leading axes.
    It must be deterministic and read only the kinematic fields listed in
    ``depends_on``.  ``neutral`` is the parameter value at which the
    contribution vanishes for every input; it seeds filter initialization
    (zero for offsets, zero for the scale deviation since scale is
    parameterized as 1 + sigma).
    """

    name: str
    param_dim: int
    depends_on: frozenset
    neutral: np.ndarray
    fn: Callable[[np.ndarray, KinematicInput], np.ndarray]

    def __post_init__(self):
        if self.param_dim < 1:
            raise ValueError(f"param_dim must be >= 1, got {self.param_dim}")
        unknown = set(self.depends_on) - set(KINEMATIC_FIELDS)
        if unknown:
            raise ValueError(f"unknown kinematic fields {sorted(unknown)}; "
                             f"known: {KINEMATIC_FIELDS}")
        neutral = np.asarray(self.neutral, dtype=float)
        if neutral.shape != (self.param_dim,):
            raise ValueError(f"neutral must have shape ({self.param_dim},), got {neutral.shape}")
        object.__setattr__(self, "neutral", neutral)
        object.__setattr__(self, "depends_on", frozenset(self.depends_on))

    def evaluate(self, params, u: KinematicInput) -> np.ndarray:
        params = np.asarray(params, dtype=float)
        if params.shape[-1:] != (self.param_dim,):
            raise DimensionMismatch(
                f"component '{self.name}' expects {self.param_dim} parameters, "
                f"got shape {params.shape}")
        return as_points(self.fn(params, u), f"output of '{self.name}'")


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

    def neutral_state(self) -> np.ndarray:
        return np.concatenate([comp.neutral for comp in self.components])

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
                          depends_on=frozenset(), neutral=np.zeros(2), fn=fn)


def body_offset() -> ErrorComponent:
    """Vehicle-fixed localizer offset, rotated into the navigation frame by heading."""
    def fn(params, u):
        return rotate(params, u.heading.angle)

    return ErrorComponent(name="body_offset", param_dim=2,
                          depends_on=frozenset({"heading"}), neutral=np.zeros(2), fn=fn)


# ---------------------------------------------------------------------------
# position-dependent components built from invertible planar transforms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanarTransform:
    """Invertible parametric map of the plane onto itself.

    ``forward(point, params)`` and ``inverse(point, params)`` broadcast
    points (..., 2) against parameters (..., param_dim) and must be exact
    inverses wherever defined; ``inverse`` raises
    :class:`~locdecomp.exceptions.SingularTransform` where the map cannot
    be inverted (e.g. zero scale).  At ``neutral`` parameters both maps are
    the identity.
    """

    name: str
    param_dim: int
    neutral: np.ndarray
    forward: Callable[[np.ndarray, np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray, np.ndarray], np.ndarray]


def rotation_about(pivot=(0.0, 0.0)) -> PlanarTransform:
    """Rotation of the plane about ``pivot``; one parameter (angle, radians)."""
    pivot = as_vec2(pivot, "pivot")

    def forward(point, params):
        return pivot + rotate(point - pivot, params[..., 0])

    def inverse(point, params):
        return pivot + rotate(point - pivot, -params[..., 0])

    return PlanarTransform(name="rotation", param_dim=1, neutral=np.zeros(1),
                           forward=forward, inverse=inverse)


def scale_about(pivot=(0.0, 0.0)) -> PlanarTransform:
    """Uniform scaling about ``pivot``; the parameter is the deviation from 1.

    The scale factor is ``1 + sigma`` so the neutral parameter is zero; a
    factor below ``MIN_SCALE`` in magnitude is not invertible.
    """
    pivot = as_vec2(pivot, "pivot")

    def forward(point, params):
        return pivot + (1.0 + params[..., :1]) * (point - pivot)

    def inverse(point, params):
        s = 1.0 + params[..., :1]
        singular = np.abs(s) < MIN_SCALE
        if singular.any():
            raise SingularTransform(f"scale factor {s[singular][0]} is not invertible")
        return pivot + (point - pivot) / s

    return PlanarTransform(name="scale", param_dim=1, neutral=np.zeros(1),
                           forward=forward, inverse=inverse)


def shear_along(pivot=(0.0, 0.0), axis: str = "x") -> PlanarTransform:
    """Axis-aligned shear about ``pivot``; one parameter (shear factor).

    ``axis="x"`` displaces the x coordinate proportionally to y;
    ``axis="y"`` the converse.
    """
    pivot = as_vec2(pivot, "pivot")
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    row, col = (0, 1) if axis == "x" else (1, 0)
    unit = np.eye(2)[row]

    def sheared(point, k):
        lever = point - pivot
        return pivot + (lever + (k * lever[..., col])[..., None] * unit)

    def forward(point, params):
        return sheared(point, params[..., 0])

    def inverse(point, params):
        return sheared(point, -params[..., 0])

    return PlanarTransform(name=f"shear_{axis}", param_dim=1, neutral=np.zeros(1),
                           forward=forward, inverse=inverse)


def deformation_component(transform: PlanarTransform, reference: str = "ref",
                          name: str | None = None) -> ErrorComponent:
    """Wrap a planar transform into a position-dependent error component.

    With the reference localizer hosting the comparison, the other
    localizer's estimate is the inverse image of the reference position
    ``p`` under the deformation, so the contribution is
    ``p - e^-1(p; params)``.  ``reference="other"`` flips the roles and uses
    the forward map.  ``reference`` must be ``"ref"`` or ``"other"``; it is
    checked, and the map chosen, when the component is built.
    ``name`` defaults to the transform's name, suffixed ``_other`` when the
    other localizer hosts the deformation.
    """
    if reference not in ("ref", "other"):
        raise ValueError(f"reference must be 'ref' or 'other', got {reference!r}")
    image = transform.inverse if reference == "ref" else transform.forward

    def fn(params, u):
        return u.ref_position - image(u.ref_position, params)

    if name is None:
        name = transform.name if reference == "ref" else f"{transform.name}_other"
    return ErrorComponent(name=name, param_dim=transform.param_dim,
                          depends_on=frozenset({"ref_position"}),
                          neutral=transform.neutral.copy(), fn=fn)


def map_rotation(pivot=(0.0, 0.0), reference: str = "ref") -> ErrorComponent:
    """Map rotated about a pivot; estimate the rotation angle."""
    return deformation_component(rotation_about(pivot), reference, "map_rotation")


def map_scale(pivot=(0.0, 0.0), reference: str = "ref") -> ErrorComponent:
    """Map scaled about a pivot; estimate the scale deviation from 1."""
    return deformation_component(scale_about(pivot), reference, "map_scale")


def map_shear(pivot=(0.0, 0.0), axis: str = "x", reference: str = "ref") -> ErrorComponent:
    """Map sheared along an axis about a pivot; estimate the shear factor."""
    return deformation_component(shear_along(pivot, axis), reference, "map_shear")
