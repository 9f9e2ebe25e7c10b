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

Orbits of D are walked by knot interval.  D sends each interval of its
knot table into one known interval (gap k into gap k + 1, the stretch
after gap k into the stretch after gap k + 1), so a successor table
predicts where each point lands.  The walk checks that prediction
exactly, searches only for the points it misses, and evaluates D with
np.interp's own formula on the known interval, so every orbit is bit
for bit the one np.interp gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .maps import CustomPrimitive, _finite, _integer, register_custom

GOLDEN_ALPHA = (math.sqrt(5.0) - 1.0) / 2.0
# largest truncation a Denjoy map accepts: the circle's tables take
# about 480 bytes per gap, so 10^6 gaps take about 480 MB
K_MAX_LIMIT = 10**6

_BISECT_STEPS = 60


class DenjoyCircle:
    """The blown-up circle: gap table, the PL homeomorphism D and its
    lift, and the suspension shear.

    D's lift interpolates (knots, values) on [0, 1].  Per knot interval
    j, with j = 2i for gap i, j = 2i + 1 for the stretch after it and a
    last interval for x = 1 alone, the tables hold slope[j], the slope
    np.interp computes, upper[j], the interval's exclusive upper end,
    and succ[j], the successor table: the interval D maps interval j
    into.  d_step evaluates D on points whose interval is known and
    locates the images from succ."""

    _cache: dict = {}

    def __init__(self, k_max: int):
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
    def shared(cls, k_max: int) -> "DenjoyCircle":
        if k_max not in cls._cache:
            cls._cache[k_max] = cls(k_max)
        return cls._cache[k_max]

    def _build_map(self):
        K = self.k_max
        n = len(self.ks)
        # at[k + K] is the table position of gap k
        at = np.empty(n, dtype=np.intp)
        at[self.ks + K] = np.arange(n)
        # image interval of each gap: gap k goes to gap k + 1; the top
        # gap maps onto a synthetic interval at the untruncated
        # position of orbit point K + 1
        pos_top = ((K + 1) * self.alpha) % 1.0
        idx = np.searchsorted(self.pos, pos_top)
        prefix_top = float(self.lengths[:idx].sum())
        syn_lo = (pos_top + prefix_top) / self.total
        syn_hi = syn_lo + (1.0 / ((K + 1.0) ** 2 + 1.0)) / self.total
        top = at[2 * K]
        nxt = at[np.minimum(self.ks + 1, K) + K]

        knots = np.empty(2 * n)
        vals = np.empty(2 * n)
        knots[0::2] = self.gap_lo
        knots[1::2] = self.gap_hi
        vals[0::2] = self.gap_lo[nxt]
        vals[1::2] = self.gap_hi[nxt]
        vals[2 * top] = syn_lo
        vals[2 * top + 1] = syn_hi
        # unwrap the values into an increasing lift
        lift = vals.copy()
        wraps = np.cumsum(np.concatenate([[0.0], np.diff(lift) < 0.0]))
        lift = lift + wraps
        if lift[-1] - lift[0] >= 1.0:
            raise InputError("denjoy map values failed to unwrap")
        self.knots = np.concatenate([knots, [knots[0] + 1.0]])
        self.values = np.concatenate([lift, [lift[0] + 1.0]])
        # per knot interval j (the last one, j = 2n, holds x >= 1 alone):
        # the slope np.interp computes inline, the exclusive upper end,
        # and the interval D maps it into.  Gap k and the stretch after
        # it go to gap k + 1 and the stretch after that; the synthetic
        # top image lies in the stretch before table position idx.
        self.slope = np.append(np.diff(self.values) / np.diff(self.knots), 0.0)
        self.upper = np.append(self.knots[1:], np.inf)
        succ = np.empty(2 * n + 1, dtype=np.intp)
        succ[0:-1:2] = 2 * nxt
        succ[1:-1:2] = 2 * nxt + 1
        succ[2 * top : 2 * top + 2] = (2 * idx - 1) % (2 * n)
        succ[-1] = succ[0]
        self.succ = succ

    # -- the circle homeomorphism -----------------------------------------

    def d_lift(self, x: np.ndarray) -> np.ndarray:
        """Lift of D evaluated at arbitrary reals."""
        fl = np.floor(x)
        return np.interp(x - fl, self.knots, self.values) + fl

    def interval(self, x: np.ndarray, guess: np.ndarray = None) -> np.ndarray:
        """Knot interval j of points x >= 0: knots[j] <= x < upper[j].
        A guessed interval is checked exactly; only the points it
        misses are searched."""
        if guess is None:
            return np.searchsorted(self.knots, x, side="right") - 1
        miss = (x < self.knots[guess]) | (x >= self.upper[guess])
        if not miss.any():
            return guess
        j = guess.copy()
        j[miss] = np.searchsorted(self.knots, x[miss], side="right") - 1
        return j

    def d_step(self, x: np.ndarray, j: np.ndarray, fl):
        """d_lift of the lifted points with floor fl and fraction x,
        x in knot interval j, bit for bit: np.interp's own formula on
        the known interval, no search.  Returns the image y, its floor
        and fraction, and the fraction's knot interval, guessed as
        succ[j] and checked."""
        y = self.slope[j] * (x - self.knots[j]) + self.values[j] + fl
        fy = np.floor(y)
        r = y - fy
        return y, fy, r, self.interval(r, self.succ[j])

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

    def locate(self, x: np.ndarray, j: np.ndarray):
        """For points of the circle [0, 1] in knot intervals j: gap
        index array (by table position), relative position in the gap,
        and an in-gap mask."""
        i = np.minimum(j >> 1, len(self.gap_lo) - 1)
        inside = (x > self.gap_lo[i]) & (x < self.gap_hi[i])
        width = self.gap_hi[i] - self.gap_lo[i]
        rel = np.where(inside, (x - self.gap_lo[i]) / width, 0.0)
        return i, rel, inside

    def cantor_distance(self, x: np.ndarray, j: np.ndarray) -> np.ndarray:
        i, rel, inside = self.locate(x, j)
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
        # walk only the points with steps left, dropping each as it ends
        live = np.nonzero(m > 0)[0]
        steps = m[live]
        fx = np.floor(x[live])
        r = x[live] - fx
        j = self.interval(r)
        while live.size:
            y, fx, r, j = self.d_step(r, j, fx)
            steps -= 1
            done = steps == 0
            if done.any():
                lift_x[live[done]] = y[done]
                keep = ~done
                live, steps = live[keep], steps[keep]
                fx, r, j = fx[keep], r[keep], j[keep]
        out_x = self.d_partial_lift(lift_x, theta)
        Q = np.empty((len(x), 2))
        Q[:, 0] = out_x + fl[:, 0]
        Q[:, 1] = t + fl[:, 1]
        return Q


@dataclass(frozen=True)
class _OnDenjoyCircle(CustomPrimitive):
    """A primitive on the suspension of the Denjoy circle truncated at
    k_max, which must lie in [2, K_MAX_LIMIT]."""

    k_max: int = 10000

    def __post_init__(self):
        k_max = _integer(self.k_max, "k_max")
        if not 2 <= k_max <= K_MAX_LIMIT:
            raise InputError(
                f"k_max must lie in [2, {K_MAX_LIMIT}], not {k_max!r}")
        object.__setattr__(self, "k_max", k_max)

    def _circle(self) -> DenjoyCircle:
        return DenjoyCircle.shared(self.k_max)

    def apply(self, P: np.ndarray) -> np.ndarray:
        return self.iterate_points(P, 1)


@register_custom
@dataclass(frozen=True)
class DenjoyParabolic(_OnDenjoyCircle):
    """Parabolic-type homeomorphism: in suspension coordinates it moves
    points vertically by eta(xi) e^{-|tau|} inside the suspended gap
    column and fixes the suspended Cantor set."""

    eps: float = 0.5
    coords: str = "torus"

    name = "denjoy_parabolic"

    def __post_init__(self):
        super().__post_init__()
        eps = _finite(self.eps, "bump amplitude")
        if not 0.0 < eps < 1.0:
            raise InputError("bump amplitude must lie in (0, 1)")
        if self.coords not in ("torus", "suspension"):
            raise InputError("coords must be 'torus' or 'suspension'")
        object.__setattr__(self, "eps", eps)

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
        r = x - np.floor(x)
        i, rel, inside = dc.locate(r, dc.interval(r))
        # eta is zero outside the gaps, where t does not move
        k = dc.ks[i[inside]]
        eta = self.eps * np.sin(np.pi * rel[inside]) ** 2
        # iterate t itself: m steps, then n - m, are n steps bit for bit
        t_in = t[inside]
        for _ in range(int(n)):
            t_in = t_in + eta * np.exp(-np.abs(t_in + k))
        t_out = t.copy()
        t_out[inside] = t_in
        if self.coords == "torus":
            return dc.to_torus(fl, x, t_out)
        return np.column_stack([x, t_out])


@register_custom
@dataclass(frozen=True)
class DenjoyFlow(_OnDenjoyCircle):
    """Time one map of the vertical suspension flow slowed to rest
    exactly on the suspended Cantor set.

    The speed is 1 - chi with chi(x, m + theta) interpolating
    chi0(D^m x) and chi0(D^{m+1} x), where chi0 = min(1, dist to the
    Cantor set / w).  Along each flow line the speed is affine in the
    height within every unit interval, so the flow integrates in closed
    form piece by piece.
    """

    w_fraction: float = 16.0

    name = "denjoy_flow"

    def __post_init__(self):
        super().__post_init__()
        w_fraction = _finite(self.w_fraction, "w_fraction")
        if w_fraction <= 2.0:
            raise InputError("w_fraction must exceed 2")
        object.__setattr__(self, "w_fraction", w_fraction)

    def _chi0(self, dc: DenjoyCircle, x: np.ndarray, j: np.ndarray) -> np.ndarray:
        w = (dc.j0_hi - dc.j0_lo) / self.w_fraction
        return np.minimum(1.0, dc.cantor_distance(x, j) / w)

    def iterate_points(self, P: np.ndarray, n: int) -> np.ndarray:
        dc = self._circle()
        fl, x0, t0 = dc.from_torus(P)
        npts = len(x0)
        # each point's final height is m + theta, set when it stops
        theta = np.empty(npts)
        m = np.empty(npts, dtype=int)
        # The points still moving have all crossed the same number of
        # unit heights, steps.  Each carries its height th in the current
        # unit, its remaining time, D^{steps+1} x0 reduced to [0, 1] with
        # its knot interval, and chi0 at D^steps x0 and D^{steps+1} x0.
        live = np.arange(npts)
        th = t0.copy()
        remaining = np.full(npts, float(n))
        x_cur = x0 - np.floor(x0)
        j_cur = dc.interval(x_cur)
        _, _, x_next, j_next = dc.d_step(x_cur, j_cur, 0.0)
        c_cur = self._chi0(dc, x_cur, j_cur)
        c_next = self._chi0(dc, x_next, j_next)
        steps = 0
        while live.size:
            A = 1.0 - c_cur
            B = c_cur - c_next
            v0 = A + B * th
            stuck = v0 <= 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                v1 = A + B  # speed at th = 1
                # time to reach th = 1: log(v1 / v0) / B, written with
                # log1p so it stays accurate as B -> 0
                arg = np.where(v1 > 0.0, B * (1.0 - th) / v0, np.nan)
                s_lin = (1.0 - th) / np.where(A != 0.0, A, np.nan)
                s_exp = np.log1p(arg) / np.where(B != 0.0, B, np.nan)
                s_star = np.where(B == 0.0, s_lin, s_exp)
            s_star = np.where(np.isfinite(s_star), s_star, np.inf)
            cross = ~stuck & (s_star <= remaining)
            if not cross.all():
                # stuck points rest; the others advance by their
                # remaining time inside this unit height
                stay = ~stuck & ~cross
                if stay.any():
                    R = remaining[stay]
                    As, Bs, ths = A[stay], B[stay], th[stay]
                    lin = ths + As * R
                    with np.errstate(divide="ignore", invalid="ignore"):
                        # th(R) = th e^{BR} + A expm1(BR) / B, stable as B -> 0
                        grow = np.exp(Bs * R)
                        expo = ths * grow + As * np.expm1(Bs * R) / np.where(
                            Bs != 0.0, Bs, np.nan
                        )
                    th[stay] = np.where(Bs == 0.0, lin, expo)
                done = ~cross
                theta[live[done]] = th[done]
                m[live[done]] = steps
                live, remaining, s_star = live[cross], remaining[cross], s_star[cross]
                x_next, j_next, c_next = x_next[cross], j_next[cross], c_next[cross]
            remaining = remaining - s_star
            th = np.zeros(live.size)
            steps += 1
            _, _, x_next, j_next = dc.d_step(x_next, j_next, 0.0)
            c_cur = c_next
            c_next = self._chi0(dc, x_next, j_next)
        theta = np.clip(theta, 0.0, 1.0)
        t_out = m + theta
        return dc.to_torus(fl, x0, t_out)
