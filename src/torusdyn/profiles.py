"""Periodic shear and flow profiles.

A profile is a continuous function p on the circle used as the vertical
displacement field of a shear or the speed field of a vertical flow.
Degree 0 profiles satisfy p(y + 1) = p(y).  Degree 1 profiles satisfy
p(y + 1) = p(y) + 1 and are used for genuine Dehn twists; a shear built
on one must have integer strength so the lift commutes with the deck
group.

Evaluation always receives coordinates already reduced to [0, 1), which
keeps the deck equivariance of the assembled maps exact in floating
point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class Profile:
    """Base class: a named circle function with an integer degree."""

    kind = "abstract"
    degree = 0

    def values(self, y: np.ndarray) -> np.ndarray:
        """Evaluate on coordinates reduced to [0, 1)."""
        raise NotImplementedError

    def params(self) -> dict:
        return {}

    def to_json(self) -> dict:
        return {"kind": self.kind, **self.params()}


@dataclass(frozen=True)
class Sin2(Profile):
    """p(y) = sin^2(pi y), the standard smooth bump vanishing at 0."""

    kind = "sin2"

    def values(self, y):
        s = np.sin(np.pi * y)
        return s * s


@dataclass(frozen=True)
class Triangle(Profile):
    """Tent function: 0 at the integers, 1 at the half-integers."""

    kind = "triangle"

    def values(self, y):
        return 1.0 - np.abs(2.0 * y - 1.0)


@dataclass(frozen=True)
class Bump(Profile):
    """Raised-cosine bump supported on [a, b] inside the unit period."""

    kind = "bump"
    a: float = 0.25
    b: float = 0.75

    def __post_init__(self):
        if not 0.0 <= self.a < self.b <= 1.0:
            raise InputError("bump support must satisfy 0 <= a < b <= 1")

    def values(self, y):
        out = np.zeros_like(y)
        inside = (y >= self.a) & (y <= self.b)
        u = (y[inside] - self.a) / (self.b - self.a)
        out[inside] = 0.5 * (1.0 - np.cos(2.0 * np.pi * u))
        return out

    def params(self):
        return {"a": self.a, "b": self.b}


@dataclass(frozen=True)
class Plateau(Profile):
    """Bump with a flat top: 0 outside [l0, r0], 1 on [l1, r1], cosine
    ramps between.  The plateau pins exact periodic behaviour on open
    sets, which makes sampled rotation vectors land on the true extreme
    points."""

    kind = "plateau"
    l0: float = 0.125
    l1: float = 0.375
    r1: float = 0.625
    r0: float = 0.875

    def __post_init__(self):
        if not 0.0 <= self.l0 < self.l1 < self.r1 < self.r0 <= 1.0:
            raise InputError("plateau breakpoints must increase in [0, 1]")

    def values(self, y):
        out = np.zeros_like(y)
        up = (y > self.l0) & (y < self.l1)
        u = (y[up] - self.l0) / (self.l1 - self.l0)
        out[up] = 0.5 * (1.0 - np.cos(np.pi * u))
        out[(y >= self.l1) & (y <= self.r1)] = 1.0
        down = (y > self.r1) & (y < self.r0)
        u = (y[down] - self.r1) / (self.r0 - self.r1)
        out[down] = 0.5 * (1.0 + np.cos(np.pi * u))
        return out

    def params(self):
        return {"l0": self.l0, "l1": self.l1, "r1": self.r1, "r0": self.r0}


@dataclass(frozen=True)
class PLTable(Profile):
    """Piecewise linear interpolation through knots on the circle."""

    kind = "pl_table"
    xs: tuple = ()
    ys: tuple = ()

    def __post_init__(self):
        xs, ys = self.xs, self.ys
        if len(xs) != len(ys) or len(xs) < 2:
            raise InputError("pl_table needs matching knot and value lists")
        if any(xs[i] >= xs[i + 1] for i in range(len(xs) - 1)):
            raise InputError("pl_table knots must be strictly increasing")
        if xs[0] < 0.0 or xs[-1] > 1.0:
            raise InputError("pl_table knots must lie in [0, 1]")

    def values(self, y):
        # wrap the first knot to close the period
        xs = np.asarray(self.xs + (self.xs[0] + 1.0,))
        ys = np.asarray(self.ys + (self.ys[0],))
        yr = np.where(y < xs[0], y + 1.0, y)
        return np.interp(yr, xs, ys)

    def params(self):
        return {"xs": list(self.xs), "ys": list(self.ys)}


@dataclass(frozen=True)
class Coordinate(Profile):
    """p(y) = y, the linear degree one profile of the model twist."""

    kind = "coordinate"
    degree = 1

    def values(self, y):
        return np.array(y, dtype=float, copy=True)


@dataclass(frozen=True)
class Ramp(Profile):
    """Degree one smooth ramp: 0 up to lo, cosine step on [lo, hi], 1
    after hi.  A shear on this profile is a Dehn twist supported in the
    annulus lo < y < hi."""

    kind = "ramp"
    lo: float = 0.25
    hi: float = 0.75
    degree = 1

    def __post_init__(self):
        if not 0.0 <= self.lo < self.hi <= 1.0:
            raise InputError("ramp must satisfy 0 <= lo < hi <= 1")

    def values(self, y):
        out = np.zeros_like(y)
        mid = (y > self.lo) & (y < self.hi)
        u = (y[mid] - self.lo) / (self.hi - self.lo)
        out[mid] = 0.5 * (1.0 - np.cos(np.pi * u))
        out[y >= self.hi] = 1.0
        return out

    def params(self):
        return {"lo": self.lo, "hi": self.hi}


_KINDS = {
    cls.kind: cls
    for cls in (Sin2, Triangle, Bump, Plateau, PLTable, Coordinate, Ramp)
}


def profile_from_json(spec: dict) -> Profile:
    spec = dict(spec)
    kind = spec.pop("kind", None)
    cls = _KINDS.get(kind)
    if cls is None:
        raise InputError(f"unknown profile kind: {kind!r}")
    if cls is PLTable:
        spec["xs"] = tuple(spec.get("xs", ()))
        spec["ys"] = tuple(spec.get("ys", ()))
    try:
        return cls(**spec)
    except TypeError as exc:
        raise InputError(f"bad parameters for profile {kind!r}: {exc}")
