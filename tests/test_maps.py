import math

import numpy as np
import pytest

from torusdyn.curves import horizontal_circle, lift_to_cover, straight_curve
from torusdyn.errors import DivergenceError, InputError, UnsupportedMapError
from torusdyn.gallery import build_map, gallery_names
from torusdyn.maps import (
    Linear,
    LiftedMap,
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
    linear_part,
    map_from_json,
    power,
)
from torusdyn.maps import _normal_form
from torusdyn.profiles import Coordinate, Ramp, Sin2


def shear_map(strength=1.0):
    return LiftedMap((ShearX(Sin2(), strength),))


def test_translation_evaluate():
    F = LiftedMap((Translation((0.3, 0.7)),))
    assert evaluate(F, (0.0, 0.0)) == pytest.approx((0.3, 0.7))
    assert iterate(F, 10, (0.0, 0.0)) == pytest.approx((3.0, 7.0))


def test_deck_equivariance_exact():
    """F(x + m) = F(x) + m holds exactly for integer m."""
    F = shear_map(0.8)
    pts = np.array([[0.13, 0.41], [0.99, 0.27], [-0.5, 1.75]])
    shifted = pts + np.array([3.0, -2.0])
    out = evaluate_points(F, pts.copy())
    out_shift = evaluate_points(F, shifted.copy())
    assert np.array_equal(out + np.array([3.0, -2.0]), out_shift)


def test_compose_matches_sequential():
    F = shear_map(0.5)
    G = LiftedMap((Translation((0.2, 0.4)),), deck_offset=(1, 0))
    H = compose(F, G)
    p = (0.3, 0.6)
    via_h = evaluate(H, p)
    via_seq = evaluate(F, evaluate(G, p))
    assert via_h == pytest.approx(via_seq, abs=1e-15)


def test_power_matches_iteration():
    F = shear_map(0.5)
    p = (0.11, 0.77)
    assert evaluate(power(F, 3), p) == pytest.approx(iterate(F, 3, p), abs=1e-12)


def test_deck_adjust_offsets():
    F = shear_map(1.0)
    G = deck_adjust(F, (2, -1))
    p = (0.3, 0.2)
    fx, fy = evaluate(F, p)
    gx, gy = evaluate(G, p)
    assert (gx - fx, gy - fy) == (2.0, -1.0)


def test_conjugate_matches_composition():
    F = shear_map(0.6)
    A = ((1, 1), (0, 1))
    C = conjugate(F, A)
    p = (0.25, 0.4)
    # A o F o A^{-1}
    ax, ay = p[0] - p[1], p[1]
    fx, fy = evaluate(F, (ax, ay))
    expect = (fx + fy, fy)
    assert evaluate(C, p) == pytest.approx(expect, abs=1e-12)


def test_linear_part_of_chain():
    F = LiftedMap((Linear(((1, 1), (0, 1))), ShearX(Sin2(), 1.0)))
    assert linear_part(F) == ((1, 1), (0, 1))


@pytest.mark.parametrize(
    "matrix,kind",
    [
        (((1, 0), (0, 1)), "identity"),
        (((2, 1), (1, 1)), "anosov"),
        (((1, 3), (0, 1)), "twist_power"),
        (((0, -1), (1, 0)), "finite_order"),
        (((-1, 0), (0, -1)), "finite_order"),
    ],
)
def test_isotopy_kinds(matrix, kind):
    F = LiftedMap((Linear(matrix),))
    assert isotopy_class(F).kind == kind


def test_twist_power_data():
    cls = isotopy_class(LiftedMap((Linear(((1, 3), (0, 1))),)))
    assert cls.curve_class == (1, 0)
    assert cls.power == 3


def test_orientation_reversing_rejected():
    with pytest.raises(UnsupportedMapError):
        isotopy_class(LiftedMap((Linear(((1, 0), (0, -1))),)))


def test_trace_minus_two_rejected():
    with pytest.raises(UnsupportedMapError):
        isotopy_class(LiftedMap((Linear(((-1, 1), (0, -1))),)))


def test_divergence_guard():
    F = LiftedMap((Linear(((2, 1), (1, 1))),))
    with pytest.raises(DivergenceError):
        iterate_points(F, np.array([[0.3, 0.4]]), 500)


def test_map_json_round_trip():
    F = LiftedMap(
        (Linear(((1, 1), (0, 1))), ShearX(Sin2(), 0.7), Translation((0.1, 0.2))),
        deck_offset=(1, -2),
    )
    clone = map_from_json(F.to_json())
    p = (0.37, 0.58)
    assert evaluate(clone, p) == pytest.approx(evaluate(F, p), abs=0.0)
    assert clone.deck_offset == F.deck_offset


# ---------------------------------------------------------------------------
# iteration guards


@pytest.mark.parametrize("n", [1, 3])
def test_non_finite_orbit_raises_divergence(n):
    # two huge translations overflow x to inf
    F = LiftedMap((
        Linear(((1, 1), (0, 1))),
        Translation((1e308, 0.0)),
        Translation((1e308, 0.0)),
    ))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError):
            iterate_points(F, [[0.1, 0.2]], n)


@pytest.mark.parametrize("n", [-1, 2.7, "2", True])
def test_bad_iteration_count_rejected(n):
    F = LiftedMap((Linear(((1, 1), (0, 1))),))
    with pytest.raises(InputError, match="non-negative integer"):
        iterate_points(F, [[0.1, 0.2]], n)
    with pytest.raises(InputError, match="power must be a positive integer"):
        power(F, n)


@pytest.mark.parametrize("make, message", [
    (lambda: Linear(((True, 0), (0, True))),
     "linear matrix entry must be an integer"),
    (lambda: conjugate(shear_map(), ((1.9, 0), (0, 1))),
     "linear matrix entry must be an integer"),
    (lambda: LiftedMap((), (True, 0)), "deck offset must be an integer"),
    (lambda: deck_adjust(shear_map(), (True, 0)),
     "deck adjustment must be an integer"),
    (lambda: straight_curve((1.5, 0)),
     "straight curve class must be an integer"),
    (lambda: straight_curve(("1", 0)),
     "straight curve class must be an integer"),
    (lambda: lift_to_cover(horizontal_circle(0), "2"),
     "cover degree must be a positive integer"),
    (lambda: lift_to_cover(horizontal_circle(0), True),
     "cover degree must be a positive integer"),
], ids=["linear_bool", "conjugate_1.9", "deck_offset_bool", "deck_adjust_bool",
        "straight_1.5", "straight_str", "cover_str", "cover_bool"])
def test_an_integer_input_is_never_truncated(make, message):
    with pytest.raises(InputError) as err:
        make()
    assert str(err.value) == message


@pytest.mark.parametrize("make", [
    lambda bad: Translation((bad, 0.0)),
    lambda bad: Translation((0.0, bad)),
    lambda bad: ShearX(Sin2(), bad),
    lambda bad: ShearY(Sin2(), bad),
    lambda bad: ShearY(Coordinate(), bad),
    lambda bad: VerticalFlow(Sin2(), bad),
    # json.loads accepts the literals NaN and Infinity
    lambda bad: map_from_json(
        {"primitives": [{"type": "translation", "v": [bad, 0]}]}),
], ids=["translation_x", "translation_y", "shear_x", "shear_y",
        "shear_y_degree_one", "vertical_flow", "map_from_json"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_rejected(make, bad):
    with pytest.raises(InputError):
        make(bad)


# ---------------------------------------------------------------------------
# the shear family: ShearY and VerticalFlow reuse the ShearX body


@pytest.mark.parametrize("profile,strength", [(Sin2(), 0.7), (Coordinate(), 2.0)])
def test_shear_y_is_shear_x_with_axes_swapped(profile, strength):
    rng = np.random.default_rng(7)
    P = rng.uniform(-5.0, 5.0, size=(256, 2))
    G = LiftedMap((ShearY(profile, strength),))
    H = conjugate(LiftedMap((ShearX(profile, strength),)), ((0, 1), (1, 0)))
    assert np.array_equal(evaluate_points(G, P), evaluate_points(H, P))
    assert np.array_equal(iterate_points(G, P, 5), iterate_points(H, P, 5))
    assert linear_part(G) == linear_part(H)


@pytest.mark.parametrize("make,message", [
    (lambda: VerticalFlow(Coordinate(), 1.0),
     "vertical flow field must be a degree 0 profile"),
    (lambda: ShearX(Coordinate(), 0.5),
     "degree one shear profile needs integer strength"),
    (lambda: ShearY(Ramp(), 0.5),
     "degree one shear profile needs integer strength"),
    (lambda: ShearY(Sin2(), math.inf), "shear strength must be finite"),
    (lambda: VerticalFlow(Sin2(), math.nan), "flow time must be finite"),
])
def test_shear_validation_messages(make, message):
    with pytest.raises(InputError) as err:
        make()
    assert str(err.value) == message


def test_shear_json_spellings():
    p = Sin2().to_json()
    specs = [
        (ShearX(Sin2(), 0.5), ["type", "profile", "strength"], "shear_x"),
        (ShearY(Sin2(), 0.5), ["type", "profile", "strength"], "shear_y"),
        (VerticalFlow(Sin2(), 0.5), ["type", "field", "time"], "vertical_flow"),
    ]
    for prim, keys, type_name in specs:
        spec = prim.to_json()
        assert list(spec) == keys
        assert spec == {keys[0]: type_name, keys[1]: p, keys[2]: 0.5}
        clone = map_from_json({"primitives": [spec]}).primitives[0]
        assert type(clone) is type(prim) and clone == prim
        # a missing strength or time defaults to 1
        bare = map_from_json({"primitives": [{"type": type_name, keys[1]: p}]})
        assert bare.primitives[0] == type(prim)(Sin2(), 1.0)
    assert ShearX(Sin2(), 0.5) != ShearY(Sin2(), 0.5)
    assert ShearY(Sin2(), 0.5) != VerticalFlow(Sin2(), 0.5)


@pytest.mark.parametrize("name", gallery_names())
def test_gallery_map_json_round_trip(name):
    spec = build_map(name).map.to_json()
    assert map_from_json(spec).to_json() == spec


# ---------------------------------------------------------------------------
# the normal form: deck translates, powers and conjugates of a custom
# primitive with a fast n-step path iterate through that path

DENJOY_MAPS = ["denjoy_parabolic", "denjoy_irrational_flow"]
VARIANTS = {
    "deck": lambda F: deck_adjust(F, (1, 2)),
    "power": lambda F: power(F, 2),
    "conj_shear": lambda F: conjugate(F, [[1, 1], [0, 1]]),
    "conj_rotation": lambda F: conjugate(F, [[0, -1], [1, 0]]),
    "power_of_deck": lambda F: power(deck_adjust(F, (1, 2)), 2),
}


def stepwise(G, P, n):
    Q = P.copy()
    for _ in range(n):
        Q = evaluate_points(G, Q)
    return Q


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("name", DENJOY_MAPS)
def test_denjoy_normal_form_matches_single_steps(name, variant):
    F = build_map(name, k_max=2000).map
    G = VARIANTS[variant](F)
    assert _normal_form(G) is not None
    P = np.random.default_rng(21).uniform(-1.0, 2.0, size=(256, 2))
    for n in (1, 7, 20):
        # Single steps reduce to the unit square, invert the suspension
        # shear by bisection and add the deck offset or the conjugating
        # matrix every step, so they round differently; the flow's
        # slowed speed amplifies that to about 1e-9 at n = 20.
        err = np.abs(iterate_points(G, P, n) - stepwise(G, P, n)).max()
        assert err <= 1e-8


@pytest.mark.parametrize("name", DENJOY_MAPS)
def test_bare_denjoy_map_runs_its_own_path(name):
    F = build_map(name, k_max=2000).map
    (X,) = F.primitives
    assert _normal_form(F) == ([], X, 1, [])
    P = np.random.default_rng(22).uniform(-1.0, 2.0, size=(256, 2))
    assert np.array_equal(iterate_points(F, P, 9), X.iterate_points(P, 9))


def test_normal_form_cancels_inverse_pairs_and_counts_copies():
    F = build_map("denjoy_parabolic", k_max=2000).map
    (X,) = F.primitives
    A = ((0, -1), (1, 0))
    head, Y, k, tail = _normal_form(power(conjugate(F, A), 3))
    assert (Y, k) == (X, 3)
    assert [p.matrix for p in head] == [((0, 1), (-1, 0))]
    assert [p.matrix for p in tail] == [A]
    # a chain that is not a conjugate of X^k, and a custom primitive
    # without an n-step path, stay on single steps
    assert _normal_form(compose(shear_map(), F)) is None
    assert _normal_form(LiftedMap((Linear(A),) + F.primitives)) is None
    assert _normal_form(build_map("annulus_attractor").map) is None


@pytest.mark.parametrize(
    "name", [g for g in gallery_names() if g not in DENJOY_MAPS])
def test_other_gallery_maps_iterate_as_single_steps(name):
    F = build_map(name).map
    P = np.random.default_rng(23).uniform(-1.0, 2.0, size=(256, 2))
    for G in [F] + [make(F) for make in VARIANTS.values()]:
        # n = 15 keeps the anosov square's orbit inside the overflow guard
        for n in (1, 7, 15):
            assert np.array_equal(iterate_points(G, P, n), stepwise(G, P, n))
