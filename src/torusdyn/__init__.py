"""Rotation sets of torus homeomorphisms, exact PL curve geometry on
the torus, and constructive distance certificates in the fine curve
graph."""

__version__ = "0.1.0"

from . import gallery  # noqa: F401  (registers custom primitives)
from .maps import (  # noqa: F401
    LiftedMap,
    Linear,
    ShearX,
    ShearY,
    Translation,
    VerticalFlow,
    compose,
    conjugate,
    deck_adjust,
    evaluate,
    evaluate_points,
    isotopy_class,
    iterate,
    iterate_points,
    map_from_json,
)
