import math

import numpy as np
import pytest

from torusdyn.denjoy import GOLDEN_ALPHA, DenjoyCircle, DenjoyFlow, DenjoyParabolic
from torusdyn.errors import InputError
from torusdyn.gallery import build_map
from torusdyn.maps import iterate_points, map_from_json

K_MAX = 2000  # smaller truncation keeps the unit tests quick


@pytest.fixture(scope="module")
def circle():
    return DenjoyCircle.shared(K_MAX)


def test_gap_lengths_sum_below_one(circle):
    total = float(np.sum(circle.lengths))
    assert 0.0 < total < 1.0


def test_lift_monotone_and_commutes_with_deck(circle):
    u = np.linspace(0.0, 1.0, 257)
    v = circle.d_lift(u)
    assert np.all(np.diff(v) >= 0)
    assert circle.d_lift(np.array([1.25]))[0] == pytest.approx(
        circle.d_lift(np.array([0.25]))[0] + 1.0, abs=1e-12
    )


def test_rotation_number_near_alpha(circle):
    x = np.array([0.0])
    n = 4000
    y = x.copy()
    for _ in range(n):
        y = circle.d_lift(y)
    rho = (y[0] - x[0]) / n
    assert abs(rho - GOLDEN_ALPHA) < 1e-3


def test_partial_lift_inverse_round_trip(circle):
    u = np.linspace(-0.4, 1.3, 41)
    t = np.full_like(u, 0.37)
    v = circle.d_partial_lift(u, t)
    back = circle.d_partial_inverse(v, t)
    assert np.allclose(back, u, atol=1e-12)


def test_suspension_round_trip(circle):
    P = np.random.RandomState(1).rand(64, 2) * 2.0 - 0.5
    fl, x, t = circle.from_torus(P.copy())
    Q = circle.to_torus(fl, x, t)
    assert np.allclose(Q, P, atol=1e-12)


def test_parabolic_fixes_cantor_suspension():
    F = DenjoyParabolic(K_MAX, 0.5)
    # points of the form (D^k proj of gap endpoints) stay fixed; use the
    # suspension model where the Cantor set is x outside every gap
    dc = DenjoyCircle.shared(K_MAX)
    xs = dc.knots[:8]  # gap endpoints are in the Cantor set
    P = np.column_stack([xs, np.full(len(xs), 0.3)])
    G = DenjoyParabolic(K_MAX, 0.5, "suspension")
    out = G.iterate_points(P.copy(), 5)
    assert np.allclose(out, P, atol=1e-12)
    assert F.params()["coords"] == "torus"


def test_parabolic_displacement_small_and_vertical():
    F = build_map("denjoy_parabolic", k_max=K_MAX).map
    P = np.random.RandomState(3).rand(128, 2)
    n = 200
    out = iterate_points(F, P.copy(), n)
    disp = (out - P) / n
    assert np.max(np.abs(disp)) < 0.05


def test_parabolic_orbit_split_in_two_calls_is_one_call_bit_for_bit():
    G = DenjoyParabolic(K_MAX, 0.5, "suspension")
    P = np.random.RandomState(7).rand(2000, 2)
    two = G.iterate_points(G.iterate_points(P.copy(), 7), 13)
    assert np.array_equal(two, G.iterate_points(P.copy(), 20))


def test_parabolic_json_round_trip():
    F = build_map("denjoy_parabolic", k_max=K_MAX).map
    clone = map_from_json(F.to_json())
    P = np.random.RandomState(4).rand(16, 2)
    assert np.allclose(
        iterate_points(F, P.copy(), 3), iterate_points(clone, P.copy(), 3)
    )


def test_flow_rest_in_gap_plateaus_and_full_speed_on_cantor():
    F = build_map("denjoy_irrational_flow", k_max=K_MAX).map
    dc = DenjoyCircle.shared(K_MAX)
    # the middle of the widest gap sits on the speed-zero plateau; at
    # integer height the interpolated speed is exactly zero there
    mid = float((dc.j0_lo + dc.j0_hi) / 2)
    Q = np.array([[mid, 0.0]])
    outq = iterate_points(F, Q.copy(), 50)
    assert np.array_equal(outq, Q)
    # a sampled grid keeps a set of exactly fixed points
    P = np.random.RandomState(0).rand(512, 2)
    out = iterate_points(F, P.copy(), 100)
    assert np.sum(np.all(out == P, axis=1)) > 10
    # gap endpoints lie in the Cantor set where nothing slows the flow:
    # vertical speed one, horizontal motion by the circle map
    x0 = float(dc.j0_lo)
    R = np.array([[x0, 0.0]])
    outr = iterate_points(F, R.copy(), 10)
    assert outr[0, 1] == pytest.approx(10.0, abs=1e-9)
    assert outr[0, 0] > x0 + 1.0


def test_flow_displacement_direction():
    F = build_map("denjoy_irrational_flow", k_max=K_MAX).map
    P = np.random.RandomState(5).rand(256, 2)
    n = 400
    out = iterate_points(F, P.copy(), n)
    disp = (out - P) / n
    nrm = math.hypot(GOLDEN_ALPHA, 1.0)
    perp = (disp[:, 0] * 1.0 - disp[:, 1] * GOLDEN_ALPHA) / nrm
    assert np.max(np.abs(perp)) < 1e-3
    along = (disp[:, 0] * GOLDEN_ALPHA + disp[:, 1] * 1.0) / nrm
    assert along.min() >= -1e-9
    # the truncated circle's rotation number differs from alpha by a
    # little, so the fast end of the segment overshoots |(alpha, 1)|
    assert along.max() <= nrm + 1e-3


def test_parabolic_parameter_validation():
    with pytest.raises(InputError):
        DenjoyParabolic(K_MAX, 1.5)
    with pytest.raises(InputError):
        DenjoyParabolic(K_MAX, 0.5, "weird")
    with pytest.raises(InputError):
        DenjoyFlow(K_MAX, 1.0)


# ---------------------------------------------------------------------------
# the successor table: D by known knot interval, no search


def _indexed(circle, x):
    return circle.d_step(x, circle.interval(x), 0.0)[0]


def test_indexed_evaluation_is_np_interp_bit_for_bit(circle):
    knots = circle.knots
    seeded = np.random.default_rng(11).random(20000)
    below = np.nextafter(knots[1:], -np.inf)  # one ulp below each knot
    for x in (seeded, knots, below):
        want = np.interp(x, knots, circle.values)
        got = _indexed(circle, x)
        assert np.array_equal(got, want)
        assert np.array_equal(got, circle.d_lift(x))


def test_successor_guess_matches_search_where_accepted(circle):
    x = np.random.default_rng(12).random(20000)
    j = circle.interval(x)
    assert np.array_equal(j, np.searchsorted(circle.knots, x, side="right") - 1)
    _, _, r, j_next = circle.d_step(x, j, 0.0)
    search = np.searchsorted(circle.knots, r, side="right") - 1
    guess = circle.succ[j]
    accepted = (circle.knots[guess] <= r) & (r < circle.upper[guess])
    assert np.array_equal(guess[accepted], search[accepted])
    assert np.array_equal(j_next, search)
    # the table predicts almost every step; it misses only images past
    # gap -k_max, which nothing maps onto, or past the synthetic image
    # of gap k_max
    assert accepted.mean() > 0.999
