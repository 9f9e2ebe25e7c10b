"""Denjoy counterexample machinery.

A Denjoy circle homeomorphism is built by blowing up the golden-mean
rotation orbit {k a} into gaps of length proportional to 1/(k^2 + 1),
truncated at |k| <= k_max.  The map D sends gap k affinely onto gap
k + 1 and interpolates linearly on the complementary stretches, giving
a monotone PL circle homeomorphism whose minimal set is (an
approximation of) a Cantor set.

The mapping torus of D is identified with the standard torus through
the shear G(x, t) = (D^t x, t), where D^t interpolates D linearly in t.
Two dynamical systems are transported through this identification:

* a parabolic homeomorphism moving points vertically by a bump
  supported on the suspended gap, with displacement eta(xi) e^{-|tau|};
* the time one map of a vertical flow slowed to rest exactly on the
  suspended Cantor set.

Both are exposed as custom primitives with exact-per-piece fast
iteration, so rotation set estimation at large n stays cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .maps import CustomPrimitive, register_custom

GOLDEN_ALPHA = (math.sqrt(5.0) - 1.0) / 2.0

_BISECT_STEPS = 60


class DenjoyCircle:
    """The blown-up circle: gap table, the PL homeomorphism D and its
    lift, and the suspension shear."""

    _cache: dict = {}

    def __init__(self, k_max: int = 10000):
        if k_max < 2:
            raise InputError("k_max must be at least 2")
        self.k_max = int(k_max)
        self.alpha = GOLDEN_ALPHA
        ks = np.arange(-self.k_max, self.k_max + 1)
        # gap mass c / (k^2 + 1) with c chosen so the full series sums
        # to 1/2 (sum over Z of 1/(k^2+1) is pi coth pi)
        c = 0.5 * math.tanh(math.pi) / math.pi
        lengths = c / (ks.astype(float) ** 2 + 1.0)
        pos = (ks * self.alpha) % 1.0
        order = np.argsort(pos)
        self.ks = ks[order]
        self.pos = pos[order]
        self.lengths = lengths[order]
        total_gap = float(lengths.sum())
        self.total = 1.0 + total_gap
        prefix = np.concatenate([[0.0], np.cumsum(self.lengths)])[:-1]
        # left and right endpoints of the gaps on the new circle
        self.gap_lo = (self.pos + prefix) / self.total
        self.gap_hi = self.gap_lo + self.lengths / self.total
        # index of gap 0 (the bump support J)
        j = int(np.nonzero(self.ks == 0)[0][0])
        self.j0_lo = float(self.gap_lo[j])
        self.j0_hi = float(self.gap_hi[j])
        self._build_map()

    @classmethod
    def shared(cls, k_max: int = 10000) -> "DenjoyCircle":
        if k_max not in cls._cache:
            cls._cache[k_max] = cls(k_max)
        return cls._cache[k_max]

    def _build_map(self):
        K = self.k_max
        # image interval of each gap: gap k goes to gap k + 1; the top
        # gap maps onto a synthetic interval at the untruncated
        # position of orbit point K + 1
        where = {int(k): i for i, k in enumerate(self.ks)}
        pos_top = ((K + 1) * self.alpha) % 1.0
        idx = np.searchsorted(self.pos, pos_top)
        prefix_top = float(self.lengths[:idx].sum())
        syn_lo = (pos_top + prefix_top) / self.total
        syn_hi = syn_lo + (1.0 / ((K + 1.0) ** 2 + 1.0)) / self.total

        n = len(self.ks)
        knots = np.empty(2 * n)
        vals = np.empty(2 * n)
        knots[0::2] = self.gap_lo
        knots[1::2] = self.gap_hi
        for i, k in enumerate(self.ks):
            if k == K:
                vals[2 * i] = syn_lo
                vals[2 * i + 1] = syn_hi
            else:
                t = where[int(k) + 1]
                vals[2 * i] = self.gap_lo[t]
                vals[2 * i + 1] = self.gap_hi[t]
        # unwrap the values into an increasing lift
        lift = vals.copy()
        wraps = np.cumsum(np.concatenate([[0.0], np.diff(lift) < 0.0]))
        lift = lift + wraps
        if lift[-1] - lift[0] >= 1.0:
            raise InputError("denjoy map values failed to unwrap")
        self.knots = np.concatenate([knots, [knots[0] + 1.0]])
        self.values = np.concatenate([lift, [lift[0] + 1.0]])

    # -- the circle homeomorphism -----------------------------------------

    def d_lift(self, x: np.ndarray) -> np.ndarray:
        """Lift of D evaluated at arbitrary reals."""
        fl = np.floor(x)
        return np.interp(x - fl, self.knots, self.values) + fl

    def d_partial_lift(self, x: np.ndarray, s) -> np.ndarray:
        """The straight-line interpolation D_s = (1 - s) id + s D."""
        return (1.0 - s) * x + s * self.d_lift(x)

    def d_partial_inverse(self, u: np.ndarray, s) -> np.ndarray:
        """Invert D_s by bisection (monotone in x, fixed step count)."""
        lo = u - 2.0
        hi = u + 2.0
        for _ in range(_BISECT_STEPS):
            mid = 0.5 * (lo + hi)
            high = self.d_partial_lift(mid, s) > u
            hi = np.where(high, mid, hi)
            lo = np.where(high, lo, mid)
        return 0.5 * (lo + hi)

    # -- gap location -------------------------------------------------------

    def locate(self, x: np.ndarray):
        """For points of the circle [0, 1): gap index array (by table
        position), relative position in the gap, and an in-gap mask."""
        i = np.searchsorted(self.gap_lo, x, side="right") - 1
        i = np.clip(i, 0, len(self.gap_lo) - 1)
        inside = (x > self.gap_lo[i]) & (x < self.gap_hi[i])
        width = self.gap_hi[i] - self.gap_lo[i]
        rel = np.where(inside, (x - self.gap_lo[i]) / width, 0.0)
        return i, rel, inside

    def cantor_distance(self, x: np.ndarray) -> np.ndarray:
        i, rel, inside = self.locate(x)
        width = self.gap_hi[i] - self.gap_lo[i]
        return np.where(inside, np.minimum(rel, 1.0 - rel) * width, 0.0)

    # -- suspension transport ------------------------------------------------

    def from_torus(self, P: np.ndarray):
        """Standard torus lift coordinates -> (floors, lifted circle
        coordinate x, suspension height t in [0, 1)).  x is the true
        inverse of the shear, not reduced, so transporting back is the
        identity up to bisection precision."""
        fl = np.floor(P)
        u = P[:, 0] - fl[:, 0]
        t = P[:, 1] - fl[:, 1]
        x = self.d_partial_inverse(u, t)
        return fl, x, t

    def to_torus(self, fl: np.ndarray, x: np.ndarray, t: np.ndarray):
        """Inverse of from_torus for heights t >= 0, tracking the lift
        of the x coordinate across iterations of D."""
        m = np.floor(t).astype(int)
        theta = t - m
        lift_x = x.copy()
        remaining = m.copy()
        while np.any(remaining > 0):
            active = remaining > 0
            lift_x[active] = self.d_lift(lift_x[active])
            remaining[active] -= 1
        out_x = self.d_partial_lift(lift_x, theta)
        Q = np.empty((len(x), 2))
        Q[:, 0] = out_x + fl[:, 0]
        Q[:, 1] = t + fl[:, 1]
        return Q


@dataclass(frozen=True)
class DenjoyParabolic(CustomPrimitive):
    """Parabolic-type homeomorphism: in suspension coordinates it moves
    points vertically by eta(xi) e^{-|tau|} inside the suspended gap
    column and fixes the suspended Cantor set."""

    k_max: int = 10000
    eps: float = 0.5
    coords: str = "torus"

    name = "denjoy_parabolic"

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise InputError("bump amplitude must lie in (0, 1)")
        if self.coords not in ("torus", "suspension"):
            raise InputError("coords must be 'torus' or 'suspension'")

    def params(self):
        return {"k_max": self.k_max, "eps": self.eps, "coords": self.coords}

    def _circle(self) -> DenjoyCircle:
        return DenjoyCircle.shared(self.k_max)

    def iterate_points(self, P: np.ndarray, n: int) -> np.ndarray:
        dc = self._circle()
        if self.coords == "torus":
            fl, x, t = dc.from_torus(P)
        else:
            # Conjugate model in x-fixed suspension coordinates.  The
            # conjugacy preserves every horizontal circle, so crossing
            # numbers against horizontal curves agree with the torus
            # coordinate model while images of horizontal circles stay
            # graphs over x.
            x = np.asarray(P[:, 0], dtype=float)
            t = np.asarray(P[:, 1], dtype=float)
        i, rel, inside = dc.locate(x - np.floor(x))
        k = dc.ks[i]
        eta = np.where(inside, self.eps * np.sin(np.pi * rel) ** 2, 0.0)
        tau = t + k
        for _ in range(int(n)):
            tau = tau + eta * np.exp(-np.abs(tau))
        t_out = np.where(inside, tau - k, t)
        if self.coords == "torus":
            return dc.to_torus(fl, x, t_out)
        return np.column_stack([x, t_out])

    def apply(self, P: np.ndarray) -> np.ndarray:
        return self.iterate_points(P, 1)


@dataclass(frozen=True)
class DenjoyFlow(CustomPrimitive):
    """Time one map of the vertical suspension flow slowed to rest
    exactly on the suspended Cantor set.

    The speed is 1 - chi with chi(x, m + theta) interpolating
    chi0(D^m x) and chi0(D^{m+1} x), where chi0 = min(1, dist to the
    Cantor set / w).  Along each flow line the speed is affine in the
    height within every unit interval, so the flow integrates in closed
    form piece by piece.
    """

    k_max: int = 10000
    w_fraction: float = 16.0

    name = "denjoy_flow"

    def __post_init__(self):
        if self.w_fraction <= 2.0:
            raise InputError("w_fraction must exceed 2")

    def params(self):
        return {"k_max": self.k_max, "w_fraction": self.w_fraction}

    def _circle(self) -> DenjoyCircle:
        return DenjoyCircle.shared(self.k_max)

    def _chi0(self, dc: DenjoyCircle, x: np.ndarray) -> np.ndarray:
        w = (dc.j0_hi - dc.j0_lo) / self.w_fraction
        return np.minimum(1.0, dc.cantor_distance(x) / w)

    def iterate_points(self, P: np.ndarray, n: int) -> np.ndarray:
        dc = self._circle()
        fl, x0, t0 = dc.from_torus(P)
        npts = len(x0)
        theta = t0.copy()
        m = np.zeros(npts, dtype=int)
        x_cur = x0 - np.floor(x0)  # D^m x0 reduced to [0, 1)
        x_next = dc.d_lift(x_cur) % 1.0
        c_cur = self._chi0(dc, x_cur)
        c_next = self._chi0(dc, x_next)
        remaining = np.full(npts, float(n))
        active = np.ones(npts, dtype=bool)
        while np.any(active):
            A = 1.0 - c_cur
            B = c_cur - c_next
            v0 = A + B * theta
            stuck = active & (v0 <= 0.0)
            remaining[stuck] = 0.0
            active = active & ~stuck
            if not np.any(active):
                break
            with np.errstate(divide="ignore", invalid="ignore"):
                v1 = A + B  # speed at theta = 1
                # time to reach theta = 1: log(v1 / v0) / B, written with
                # log1p so it stays accurate as B -> 0
                arg = np.where(v1 > 0.0, B * (1.0 - theta) / v0, np.nan)
                s_lin = (1.0 - theta) / np.where(A != 0.0, A, np.nan)
                s_exp = np.log1p(arg) / np.where(B != 0.0, B, np.nan)
                s_star = np.where(B == 0.0, s_lin, s_exp)
            s_star = np.where(np.isfinite(s_star), s_star, np.inf)
            cross = active & (s_star <= remaining)
            stay = active & ~cross
            # advance the non-crossing points by their remaining time
            if np.any(stay):
                R = remaining[stay]
                As, Bs, th = A[stay], B[stay], theta[stay]
                lin = th + As * R
                with np.errstate(divide="ignore", invalid="ignore"):
                    # theta(R) = theta e^{BR} + A expm1(BR) / B, stable as B -> 0
                    grow = np.exp(Bs * R)
                    expo = th * grow + As * np.expm1(Bs * R) / np.where(
                        Bs != 0.0, Bs, np.nan
                    )
                theta[stay] = np.where(Bs == 0.0, lin, expo)
                remaining[stay] = 0.0
                active[stay] = False
            if np.any(cross):
                remaining[cross] -= s_star[cross]
                theta[cross] = 0.0
                m[cross] += 1
                x_cur[cross] = x_next[cross]
                x_next[cross] = dc.d_lift(x_next[cross]) % 1.0
                c_cur[cross] = c_next[cross]
                c_next[cross] = self._chi0(dc, x_next[cross])
        theta = np.clip(theta, 0.0, 1.0)
        t_out = m + theta
        return dc.to_torus(fl, x0, t_out)

    def apply(self, P: np.ndarray) -> np.ndarray:
        return self.iterate_points(P, 1)


register_custom(
    "denjoy_parabolic",
    lambda k_max=10000, eps=0.5, coords="torus": DenjoyParabolic(
        int(k_max), float(eps), str(coords)
    ),
)
register_custom(
    "denjoy_flow",
    lambda k_max=10000, w_fraction=16.0: DenjoyFlow(
        int(k_max), float(w_fraction)
    ),
)
