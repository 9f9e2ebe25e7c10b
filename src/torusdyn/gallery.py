"""Catalog of example torus maps covering the classification zoo:
hyperbolic (interior rotation set and Anosov), parabolic-consistent
(Denjoy suspensions), elliptic (annular twists and attractors) and the
null translation case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .denjoy import DenjoyFlow, DenjoyParabolic
from .errors import InputError
from .maps import (
    CustomPrimitive,
    LiftedMap,
    Linear,
    ShearX,
    Translation,
    VerticalFlow,
    _finite,
    register_custom,
)
from .profiles import Plateau, Ramp, Sin2


@register_custom
@dataclass(frozen=True)
class FiberDrift(CustomPrimitive):
    """(x, y) -> (x, y + time * amp * sin(2 pi y)): preserves every
    vertical line and attracts the annulus onto y = 1/2.  Monotone in y
    whenever 2 pi * time * amp < 1."""

    amp: float = 0.25
    time: float = 0.5

    name = "fiber_drift"

    def __post_init__(self):
        amp = _finite(self.amp, "fiber drift amp")
        time = _finite(self.time, "fiber drift time")
        if not 0.0 < 2.0 * math.pi * time * amp < 1.0:
            raise InputError("fiber drift must keep vertical monotonicity")
        object.__setattr__(self, "amp", amp)
        object.__setattr__(self, "time", time)

    def apply(self, P: np.ndarray) -> np.ndarray:
        yr = P[:, 1] - np.floor(P[:, 1])
        P[:, 1] += self.time * self.amp * np.sin(2.0 * np.pi * yr)
        return P


@dataclass(frozen=True)
class GalleryEntry:
    name: str
    map: LiftedMap
    description: str
    expected: str


def _translation(vx=0.3, vy=0.7):
    return (
        LiftedMap((Translation((float(vx), float(vy))),)),
        "rigid translation; rotation set is the single point (vx, vy)",
        "undetermined (single point rotation set, never hyperbolic)",
    )


def _anosov(a=2, b=1, c=1, d=1):
    return (
        LiftedMap((Linear(((a, b), (c, d))),)),
        "hyperbolic linear automorphism",
        "hyperbolic (Anosov isotopy class)",
    )


def _twist_model():
    return (
        LiftedMap((Linear(((1, 1), (0, 1))),)),
        "the model Dehn twist (x, y) -> (x + y, y)",
        "elliptic-consistent (vertical rotation number 0)",
    )


def _dehn_twist_annular(lo=0.25, hi=0.75):
    return (
        LiftedMap((ShearX(Ramp(float(lo), float(hi)), 1.0),)),
        "Dehn twist supported in the annulus lo < y < hi",
        "elliptic-consistent (twist with a single rotation number)",
    )


def _twist_with_interval(time=1.0):
    return (
        LiftedMap(
            (
                Linear(((1, 1), (0, 1))),
                VerticalFlow(Sin2(), float(time)),
            )
        ),
        "model twist composed with a vertical flow; the cyclic cover "
        "rotation interval is [0, 1]",
        "hyperbolic (twist power with a nondegenerate interval)",
    )


def _shear_segment(strength=1.0):
    return (
        LiftedMap((ShearX(Sin2(), float(strength)),)),
        "horizontal shear by sin^2(pi y); rotation set is the segment "
        "from (0, 0) to (strength, 0)",
        "elliptic-consistent (rational slope segment through rationals)",
    )


def _mz_interior(a=1.0, b=1.0, cx=0.0, cy=0.0):
    return (
        LiftedMap(
            (
                ShearX(Plateau(), float(a)),
                VerticalFlow(Plateau(), float(b)),
                Translation((float(cx), float(cy))),
            )
        ),
        "plateau shear then plateau flow: four open sets of fixed "
        "rotation vectors (0,0), (1,0), (0,1), (1,1) span the unit "
        "square",
        "hyperbolic (rotation set with interior)",
    )


def _denjoy_parabolic(**params):
    return (
        LiftedMap((DenjoyParabolic(**params),)),
        "vertical bump map on the suspension of a Denjoy circle "
        "homeomorphism; rotation set is the single point (0, 0) but "
        "crossing numbers grow without bound",
        "undetermined by shape (parabolic in truth; see cross checks)",
    )


def _denjoy_irrational_flow(**params):
    return (
        LiftedMap((DenjoyFlow(**params),)),
        "time one map of the suspension flow slowed on the Cantor set; "
        "rotation set is a segment of irrational slope through (0, 0)",
        "parabolic-consistent (irrational slope segment)",
    )


def _annulus_attractor(**params):
    return (
        LiftedMap((FiberDrift(**params),)),
        "vertical drift toward y = 1/2; the annulus 1/4 <= y <= 3/4 "
        "maps strictly inside itself",
        "elliptic-certified (invariant annulus trap)",
    )


_CATALOG = {
    "translation": _translation,
    "anosov": _anosov,
    "twist_model": _twist_model,
    "dehn_twist_annular": _dehn_twist_annular,
    "twist_with_interval": _twist_with_interval,
    "shear_segment": _shear_segment,
    "mz_interior": _mz_interior,
    "denjoy_parabolic": _denjoy_parabolic,
    "denjoy_irrational_flow": _denjoy_irrational_flow,
    "annulus_attractor": _annulus_attractor,
}


def gallery_names() -> list:
    return sorted(_CATALOG)


def build_map(name: str, **params) -> GalleryEntry:
    builder = _CATALOG.get(name)
    if builder is None:
        raise InputError(f"unknown gallery map: {name!r}")
    try:
        F, desc, expected = builder(**params)
    except (TypeError, ValueError, InputError) as exc:
        given = ", ".join(f"{k}={v!r}" for k, v in params.items())
        raise InputError(
            f"bad parameters ({given}) for gallery map {name!r}: {exc}")
    return GalleryEntry(name, F, desc, expected)
