"""Lifted torus maps.

A map is a chain of primitives applied in list order, followed by an
integer deck translation.  Every primitive commutes with the deck group
Z^2, and periodic primitives reduce coordinates mod 1 before evaluating
their profile, so deck equivariance of the assembled lift is exact in
floating point, not just approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Real

import numpy as np

from .errors import (
    DivergenceError,
    InputError,
    UnsupportedMapError,
)
from .profiles import Profile, _finite, profile_from_json

DIVERGENCE_GUARD = 1e15

IDENTITY_2X2 = ((1, 0), (0, 1))


def _as_points(x) -> np.ndarray:
    P = np.array(x, dtype=float, copy=True)
    if P.ndim == 1:
        P = P.reshape(1, 2)
    if P.ndim != 2 or P.shape[1] != 2:
        raise InputError("points must have shape (n, 2)")
    if not np.all(np.isfinite(P)):
        raise InputError("points must be finite")
    return P


_AT_LEAST = {None: "an integer", 0: "a non-negative integer",
             1: "a positive integer"}


def _integer(value, what: str, least=None) -> int:
    """value as an int; an InputError naming what unless value is a
    finite integral real number, not a bool, and at least least (None,
    0 or 1).  Every count, matrix entry, class and offset of the
    package is read through it, so none is truncated."""
    try:
        ok = (isinstance(value, Real) and not isinstance(value, bool)
              and int(value) == value
              and (least is None or value >= least))
    except (OverflowError, ValueError):
        ok = False
    if not ok:
        raise InputError(f"{what} must be {_AT_LEAST[least]}")
    return int(value)


def _vector(v, what: str) -> tuple:
    """v as a pair of ints through _integer; an InputError naming what
    unless v has two entries."""
    try:
        x, y = v
    except (TypeError, ValueError):
        raise InputError(f"{what} must have two entries") from None
    return (_integer(x, what), _integer(y, what))


class Primitive:
    """Base primitive: acts on an (n, 2) array of lifted points."""

    type_name = "abstract"

    def apply(self, P: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def linear(self) -> tuple:
        return IDENTITY_2X2

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class Translation(Primitive):
    v: tuple

    type_name = "translation"

    def __post_init__(self):
        if len(self.v) != 2:
            raise InputError("translation vector must have two entries")
        v = tuple(_finite(x, "translation vector") for x in self.v)
        object.__setattr__(self, "v", v)

    def apply(self, P):
        P[:, 0] += self.v[0]
        P[:, 1] += self.v[1]
        return P

    def to_json(self):
        return {"type": "translation", "v": list(self.v)}


@dataclass(frozen=True)
class Linear(Primitive):
    matrix: tuple

    type_name = "linear"

    def __post_init__(self):
        m = self.matrix
        try:
            (a, b), (c, d) = m
        except (TypeError, ValueError):
            raise InputError("linear matrix must be 2x2") from None
        a, b, c, d = (_integer(x, "linear matrix entry") for x in (a, b, c, d))
        if a * d - b * c not in (1, -1):
            raise InputError("linear matrix must have determinant +-1")
        object.__setattr__(self, "matrix", ((a, b), (c, d)))

    def apply(self, P):
        (a, b), (c, d) = self.matrix
        x = a * P[:, 0] + b * P[:, 1]
        y = c * P[:, 0] + d * P[:, 1]
        P[:, 0] = x
        P[:, 1] = y
        return P

    def linear(self):
        return self.matrix

    def to_json(self):
        return {"type": "linear", "matrix": [list(r) for r in self.matrix]}


@dataclass(frozen=True)
class ShearX(Primitive):
    """x += strength * p(y).  Degree one profiles need integer strength
    so the linear part [[1, s], [0, 1]] has integer entries.

    Subclasses set the coordinate that moves (``axis``), the JSON names
    of profile and strength (``keys``) and the strength's name in
    errors (``what``)."""

    profile: Profile
    strength: float = 1.0

    type_name = "shear_x"
    axis = 0
    keys = ("profile", "strength")
    what = "shear strength"

    def __post_init__(self):
        strength = _finite(self.strength, self.what)
        if self.profile.degree == 1 and int(strength) != strength:
            raise InputError("degree one shear profile needs integer strength")
        object.__setattr__(self, "strength", strength)

    def apply(self, P):
        src = P[:, 1 - self.axis]
        fl = np.floor(src)
        disp = self.profile.values(src - fl)
        if self.profile.degree == 1:
            disp = disp + fl
        P[:, self.axis] += self.strength * disp
        return P

    def linear(self):
        if self.profile.degree == 1:
            s = int(self.strength)
            return ((1, s), (0, 1)) if self.axis == 0 else ((1, 0), (s, 1))
        return IDENTITY_2X2

    def to_json(self):
        profile_key, strength_key = self.keys
        return {
            "type": self.type_name,
            profile_key: self.profile.to_json(),
            strength_key: self.strength,
        }


class ShearY(ShearX):
    """y += strength * p(x)."""

    type_name = "shear_y"
    axis = 1


class VerticalFlow(ShearY):
    """y += time * field(x) for a periodic speed field."""

    type_name = "vertical_flow"
    keys = ("field", "time")
    what = "flow time"

    def __post_init__(self):
        if self.profile.degree != 0:
            raise InputError("vertical flow field must be a degree 0 profile")
        super().__post_init__()


class CustomPrimitive(Primitive):
    """User or gallery supplied primitive.  Must commute with integer
    translations and be isotopic to the identity (linear part I).

    Subclasses are dataclasses whose fields are their JSON params, check
    those fields in ``__post_init__``, implement ``apply`` and may provide
    ``iterate_points(P, n)`` with a faster n-step evaluation.  The chain
    engine uses it for every chain in normal form: Linear factors L,
    k copies of the primitive, Linear factors whose product is L^-1
    (after adjacent inverse Linear pairs cancel), and any deck offset p.
    Since the primitive commutes with integer translations, n steps of
    that chain are L, then the primitive's k n steps, then L^-1, then
    + n p.  Deck translates, powers and GL(2, Z) conjugates of the
    primitive all iterate this way.
    """

    type_name = "custom"
    name = "abstract"

    iterate_points = None

    def params(self) -> dict:
        """The dataclass fields by name, in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self):
        return {"type": "custom", "name": self.name, "params": self.params()}


_CUSTOM_REGISTRY: dict = {}


def register_custom(cls):
    """Make the CustomPrimitive dataclass cls readable from JSON under
    cls.name; its constructor checks the params.  Returns cls."""
    _CUSTOM_REGISTRY[cls.name] = cls
    return cls


def custom_from_json(name: str, params: dict) -> CustomPrimitive:
    cls = _CUSTOM_REGISTRY.get(name)
    if cls is None:
        raise InputError(f"unknown custom primitive: {name!r}")
    return cls(**params)


@dataclass(frozen=True)
class LiftedMap:
    """A lift to R^2 of a torus homeomorphism: primitive chain applied
    in order, then translation by the integer deck offset."""

    primitives: tuple
    deck_offset: tuple = (0, 0)

    def __post_init__(self):
        prims = tuple(self.primitives)
        if not all(isinstance(p, Primitive) for p in prims):
            raise InputError("primitives must be Primitive instances")
        object.__setattr__(self, "primitives", prims)
        object.__setattr__(
            self, "deck_offset", _vector(self.deck_offset, "deck offset"))

    def to_json(self) -> dict:
        return {
            "primitives": [p.to_json() for p in self.primitives],
            "deck_offset": list(self.deck_offset),
        }


_SHEARS = {cls.type_name: cls for cls in (ShearX, ShearY, VerticalFlow)}


_REQUIRED = object()


def _field(pspec: dict, key: str, build, default=_REQUIRED):
    """build(pspec[key]); a missing field, or one build rejects with a
    TypeError, ValueError, ArithmeticError or LookupError, is an
    InputError naming the field."""
    if key in pspec:
        value = pspec[key]
    elif default is _REQUIRED:
        raise InputError(f"missing field {key!r}")
    else:
        value = default
    try:
        return build(value)
    except (TypeError, ValueError, ArithmeticError, LookupError) as exc:
        raise InputError(f"bad field {key!r}: {exc}") from exc


def _primitive_from_json(pspec) -> Primitive:
    if not isinstance(pspec, dict):
        raise InputError("a primitive must be a JSON object")
    t = pspec.get("type")
    if t == "translation":
        return _field(pspec, "v", lambda v: Translation(tuple(v)))
    if t == "linear":
        return _field(
            pspec, "matrix", lambda m: Linear(tuple(tuple(r) for r in m)))
    if t in _SHEARS:
        cls = _SHEARS[t]
        profile_key, strength_key = cls.keys
        profile = _field(pspec, profile_key, profile_from_json)
        return _field(pspec, strength_key, lambda s: cls(profile, s), 1.0)
    if t == "custom":
        name = _field(pspec, "name", str)
        return _field(
            pspec, "params", lambda p: custom_from_json(name, p), {})
    raise InputError(f"unknown primitive type: {t!r}")


def map_from_json(spec: dict) -> LiftedMap:
    """The map of a JSON spec.  A malformed spec is an InputError that
    names the primitive's index and the field."""
    if not isinstance(spec, dict):
        raise InputError("map spec must be a JSON object")
    pspecs = spec.get("primitives", [])
    if not isinstance(pspecs, list):
        raise InputError("map spec field 'primitives' must be a list")
    prims = []
    for index, pspec in enumerate(pspecs):
        try:
            prims.append(_primitive_from_json(pspec))
        except InputError as exc:
            raise InputError(f"primitive {index}: {exc}") from exc
    return _field(
        spec, "deck_offset", lambda off: LiftedMap(tuple(prims), tuple(off)),
        (0, 0))


def _apply_chain(F: LiftedMap, P: np.ndarray) -> np.ndarray:
    for prim in F.primitives:
        P = prim.apply(P)
    P[:, 0] += F.deck_offset[0]
    P[:, 1] += F.deck_offset[1]
    return P


def evaluate_points(F: LiftedMap, points) -> np.ndarray:
    """Apply the lift to an (n, 2) array of lifted points."""
    return _apply_chain(F, _as_points(points))


def evaluate(F: LiftedMap, x) -> tuple:
    Q = evaluate_points(F, [x])
    return (float(Q[0, 0]), float(Q[0, 1]))


def _check_divergence(P: np.ndarray) -> None:
    m = float(np.max(np.abs(P))) if P.size else 0.0
    if not math.isfinite(m) or m > DIVERGENCE_GUARD:
        raise DivergenceError(
            f"orbit exceeded the overflow guard {DIVERGENCE_GUARD:g}"
        )


def _normal_form(F: LiftedMap):
    """(head, X, k, tail) when the chain, after adjacent inverse Linear
    pairs cancel, is the Linear factors head, k copies of one custom
    primitive X with a fast n-step path, and the Linear factors tail
    whose product inverts head's; otherwise None."""
    chain = []
    for prim in F.primitives:
        if (
            isinstance(prim, Linear)
            and chain
            and isinstance(chain[-1], Linear)
            and _mat_mul(prim.matrix, chain[-1].matrix) == IDENTITY_2X2
        ):
            chain.pop()
        else:
            chain.append(prim)
    inner = [i for i, prim in enumerate(chain) if not isinstance(prim, Linear)]
    if not inner:
        return None
    first, last = inner[0], inner[-1]
    X = chain[first]
    if (
        not isinstance(X, CustomPrimitive)
        or X.iterate_points is None
        or any(prim != X for prim in chain[first:last + 1])
    ):
        return None
    head, tail = chain[:first], chain[last + 1:]
    M = IDENTITY_2X2
    for prim in head + tail:
        M = _mat_mul(prim.matrix, M)
    if M != IDENTITY_2X2:
        return None
    return head, X, last - first + 1, tail


def iterate_points(F: LiftedMap, points, n: int) -> np.ndarray:
    """n-fold iteration of the lift on an (n_pts, 2) array."""
    n = _integer(n, "iteration count", 0)
    P = _as_points(points)
    if n == 0:
        return P

    form = _normal_form(F)
    if form is not None:
        head, X, k, tail = form
        for prim in head:
            P = prim.apply(P)
        P = X.iterate_points(P, k * n)
        for prim in tail:
            P = prim.apply(P)
        if F.deck_offset != (0, 0):
            P[:, 0] += n * F.deck_offset[0]
            P[:, 1] += n * F.deck_offset[1]
        _check_divergence(P)
        return P

    for _ in range(n):
        P = _apply_chain(F, P)
        _check_divergence(P)
    return P


def iterate(F: LiftedMap, n: int, x) -> tuple:
    Q = iterate_points(F, [x], n)
    return (float(Q[0, 0]), float(Q[0, 1]))


def compose(F: LiftedMap, G: LiftedMap) -> LiftedMap:
    """The lift F after G (apply G first).  F's chain moves G's deck
    offset p_G to A_F p_G, so the offset stays the integer A_F p_G + p_F."""
    p = _mat_apply(linear_part(F), G.deck_offset)
    return LiftedMap(G.primitives + F.primitives,
                     (p[0] + F.deck_offset[0], p[1] + F.deck_offset[1]))


def power(F: LiftedMap, k: int) -> LiftedMap:
    k = _integer(k, "power", 1)
    G = F
    for _ in range(k - 1):
        G = compose(F, G)
    return G


def deck_adjust(F: LiftedMap, p) -> LiftedMap:
    """Replace the lift by the deck translate lift + p."""
    p = _vector(p, "deck adjustment")
    off = (F.deck_offset[0] + p[0], F.deck_offset[1] + p[1])
    return LiftedMap(F.primitives, off)


def _mat_mul(A, B):
    return (
        (
            A[0][0] * B[0][0] + A[0][1] * B[1][0],
            A[0][0] * B[0][1] + A[0][1] * B[1][1],
        ),
        (
            A[1][0] * B[0][0] + A[1][1] * B[1][0],
            A[1][0] * B[0][1] + A[1][1] * B[1][1],
        ),
    )


def _mat_inv(A):
    """The inverse of an integer matrix of determinant +-1."""
    (a, b), (c, d) = A
    det = a * d - b * c
    return ((d * det, -b * det), (-c * det, a * det))


def _mat_apply(A, v):
    return (A[0][0] * v[0] + A[0][1] * v[1], A[1][0] * v[0] + A[1][1] * v[1])


def conjugate(F: LiftedMap, A) -> LiftedMap:
    """The lift A F A^{-1} for A in GL(2, Z)."""
    L = Linear(A)
    prims = (Linear(_mat_inv(L.matrix)),) + F.primitives + (L,)
    return LiftedMap(prims, _mat_apply(L.matrix, F.deck_offset))


def linear_part(F: LiftedMap):
    """Product of the primitive linear parts: the induced matrix on
    first homology."""
    A = IDENTITY_2X2
    for prim in F.primitives:
        A = _mat_mul(prim.linear(), A)
    return A


@dataclass(frozen=True)
class IsotopyClass:
    """Isotopy data of the underlying torus homeomorphism.

    kind is one of 'identity', 'anosov', 'twist_power', 'finite_order'.
    For twist powers, curve_class is the primitive invariant homology
    class and power the number of twists.
    """

    kind: str
    matrix: tuple
    curve_class: tuple = None
    power: int = None
    order: int = None


def _primitive_kernel_vector(A):
    """Primitive integer vector spanning ker(A - I) for tr A = 2."""
    (a, b), (c, d) = A
    cands = [(b, 1 - a), (d - 1, -c)]
    for v in cands:
        if v != (0, 0):
            g = math.gcd(abs(v[0]), abs(v[1]))
            v = (v[0] // g, v[1] // g)
            if v[0] < 0 or (v[0] == 0 and v[1] < 0):
                v = (-v[0], -v[1])
            return v
    raise InputError("matrix is the identity")


def isotopy_class(F: LiftedMap) -> IsotopyClass:
    A = linear_part(F)
    (a, b), (c, d) = A
    det = a * d - b * c
    if det == -1:
        raise UnsupportedMapError(
            "orientation-reversing map; classify its square instead"
        )
    tr = a + d
    if A == IDENTITY_2X2:
        return IsotopyClass("identity", A)
    if abs(tr) > 2:
        return IsotopyClass("anosov", A)
    if tr == 2:
        v = _primitive_kernel_vector(A)
        # complete v to a basis (v, u) with det(v, u) = 1, then
        # (A - I) u = r v defines the twist power r
        g, x, y = _egcd(v[0], v[1])
        u = (-y, x)
        w = ((a - 1) * u[0] + b * u[1], c * u[0] + (d - 1) * u[1])
        if v[0] != 0:
            r = w[0] // v[0]
        else:
            r = w[1] // v[1]
        return IsotopyClass("twist_power", A, curve_class=v, power=r)
    if tr == -2 and A != ((-1, 0), (0, -1)):
        raise UnsupportedMapError(
            "reversed twist class; classify the square of the map instead"
        )
    # tr in {-2, -1, 0, 1} with A of finite order
    order = 1
    B = A
    while B != IDENTITY_2X2:
        B = _mat_mul(A, B)
        order += 1
        if order > 12:
            raise UnsupportedMapError("matrix is not of finite order")
    return IsotopyClass("finite_order", A, order=order)


def _egcd(a: int, b: int):
    """Return (g, x, y) with a x + b y = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t
