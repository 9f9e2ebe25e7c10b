import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from oracles import hausdorff_oracle  # noqa: E402

from torusdyn.errors import (  # noqa: E402
    DivergenceError,
    InapplicableError,
    InputError,
    UnsupportedMapError,
)
from torusdyn.gallery import build_map  # noqa: E402
from torusdyn.maps import Linear, LiftedMap, Translation  # noqa: E402
from torusdyn.rotation import (  # noqa: E402
    ConvexRegion,
    ShapeThresholds,
    best_rational,
    classify_shape,
    convergence_diagnostics,
    convex_hull,
    grid_points,
    hausdorff,
    mz_estimate,
    twist_rotation_interval,
)


def test_convex_hull_square_with_interior_points():
    pts = np.array(
        [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5], [0.25, 0.75], [1, 0.5]]
    )
    hull = convex_hull(pts)
    assert set(hull.vertices) == {(0, 0), (1, 0), (1, 1), (0, 1)}
    assert hull.vertices[0] == (0, 0)  # lexicographic start
    assert hull.area() == pytest.approx(1.0)


def test_convex_hull_collinear_collapse():
    pts = np.array([[0, 0], [0.5, 0.5], [1, 1]])
    hull = convex_hull(pts)
    assert len(hull.vertices) == 2


def test_hausdorff_translated_squares():
    sq = ConvexRegion(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
    sq2 = ConvexRegion(((3.0, 4.0), (4.0, 4.0), (4.0, 5.0), (3.0, 5.0)))
    assert hausdorff(sq, sq2) == pytest.approx(5.0)


def test_hausdorff_against_dense_oracle():
    rng = random.Random(11)
    for _ in range(12):
        a = convex_hull(
            np.array([[rng.uniform(-1, 1), rng.uniform(-1, 1)] for _ in range(8)])
        )
        b = convex_hull(
            np.array([[rng.uniform(-1, 1), rng.uniform(-1, 1)] for _ in range(8)])
        )
        lib = hausdorff(a, b)
        orc = hausdorff_oracle(list(a.vertices), list(b.vertices))
        assert lib == pytest.approx(orc, abs=2e-2)
        assert lib >= orc - 1e-12  # sampling can only under-estimate


def test_best_rational():
    assert best_rational(0.5, 100) == (1, 2)
    assert best_rational(1 / 3 + 1e-12, 1000) == (1, 3)
    p, q = best_rational(math.sqrt(2), 1000)
    assert abs(math.sqrt(2) - p / q) > 1e-9


def test_classify_shape_kinds():
    th = ShapeThresholds()
    pt = convex_hull(np.array([[0.3, 0.7], [0.3 + 1e-6, 0.7]]))
    assert classify_shape(pt, th).kind == "point"
    seg = convex_hull(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-4]]))
    s = classify_shape(seg, th)
    assert s.kind == "segment"
    assert s.slope_label["label"] == "rational"
    box = convex_hull(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float))
    assert classify_shape(box, th).kind == "interior"


def test_classify_shape_irrational_segment():
    alpha = (math.sqrt(5) - 1) / 2
    seg = convex_hull(np.array([[0.0, 0.0], [alpha, 1.0]]))
    s = classify_shape(seg, ShapeThresholds())
    assert s.kind == "segment"
    assert s.slope_label["label"] == "irrational"


def test_grid_points_cell_centers():
    P = grid_points(4)
    assert P.shape == (16, 2)
    assert P.min() == pytest.approx(1 / 8)
    assert P.max() == pytest.approx(7 / 8)


def test_mz_translation_point():
    est = mz_estimate(LiftedMap((Translation((0.3, 0.7)),)), 100, 16)
    assert est.shape.kind == "point"
    rx, ry = est.shape.representative
    assert abs(rx - 0.3) < 1e-9 and abs(ry - 0.7) < 1e-9


def test_mz_rejects_non_identity():
    with pytest.raises(InapplicableError):
        mz_estimate(LiftedMap((Linear(((2, 1), (1, 1))),)), 10, 8)
    with pytest.raises(InapplicableError):
        mz_estimate(LiftedMap((Linear(((1, 1), (0, 1))),)), 10, 8)


def test_mz_rejects_bad_counts():
    F = LiftedMap((Translation((0.3, 0.7)),))
    for n, grid in ((0, 8), (-1, 8), (2.5, 8), ("3", 8), (3, "8"), (3, 0)):
        with pytest.raises(InputError):
            mz_estimate(F, n, grid)


def test_mz_interior_unit_square():
    est = mz_estimate(build_map("mz_interior").map, 200, 32)
    assert est.shape.kind == "interior"
    sq = ConvexRegion(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
    assert hausdorff(est.hull, sq) < 0.05


def test_diagnostics_schedule_validation():
    F = LiftedMap((Translation((0.1, 0.2)),))
    with pytest.raises(InputError):
        convergence_diagnostics(F, [10, 10], 8)
    with pytest.raises(InputError):
        convergence_diagnostics(F, [], 8)
    for schedule in ([1.5, 3], [2, 3.5], ["3"]):
        with pytest.raises(InputError):
            convergence_diagnostics(F, schedule, 8)


def test_diagnostics_hausdorff_to_final():
    F = build_map("shear_segment").map
    diags = convergence_diagnostics(F, [20, 100, 400], 32)
    assert len(diags) == 3
    assert diags[-1].hausdorff_to_final == 0.0
    assert diags[0].hausdorff_to_final >= diags[-1].hausdorff_to_final


def test_twist_interval_model_twist_zero():
    F = LiftedMap((Linear(((1, 1), (0, 1))),))
    iv = twist_rotation_interval(F, 100, 16)
    assert iv.low == pytest.approx(0.0, abs=1e-12)
    assert iv.high == pytest.approx(0.0, abs=1e-12)


def test_twist_interval_translation():
    F = LiftedMap((Translation((0.3, 0.7)),))
    iv = twist_rotation_interval(F, 50, 8)
    assert iv.low == pytest.approx(0.7, abs=1e-9)
    assert iv.high == pytest.approx(0.7, abs=1e-9)


def test_twist_interval_gallery_endpoints():
    """The twist-with-drift gallery map pins the invariant-fiber drifts
    0 and 1 exactly at sampled lattice points."""
    F = build_map("twist_with_interval").map
    iv = twist_rotation_interval(F, 400, 24)
    assert iv.low == pytest.approx(0.0, abs=1e-3)
    assert iv.high == pytest.approx(1.0, abs=1e-3)


def test_twist_interval_rejects_anosov():
    with pytest.raises(UnsupportedMapError):
        twist_rotation_interval(LiftedMap((Linear(((2, 1), (1, 1))),)), 10, 4)


def test_twist_interval_vertical_twist_class():
    """A twist about the (0, 1) curve: the cover of that class measures
    the horizontal drift, here -0.25 on every fiber."""
    F = LiftedMap((Linear(((1, 0), (1, 1))), Translation((0.25, 0.0))))
    iv = twist_rotation_interval(F, 40, 8)
    assert (iv.low, iv.high) == (-0.25, -0.25)


@pytest.mark.parametrize("n", [1, 3])
def test_twist_interval_non_finite_orbit_raises_divergence(n):
    # two huge translations overflow x to inf, which the mod 1
    # reduction on the cover turns into NaN while y stays finite
    F = LiftedMap((
        Linear(((1, 1), (0, 1))),
        Translation((1e308, 0.0)),
        Translation((1e308, 0.0)),
    ))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError):
            twist_rotation_interval(F, n, 2)


@pytest.mark.parametrize("n, samples", [
    (-1, 4), (2.7, 4), ("3", 4), (0, 4), (True, 4),
    (10, 2.5), (10, "4"), (10, 0)])
def test_twist_interval_rejects_bad_counts(n, samples):
    F = LiftedMap((Linear(((1, 1), (0, 1))),))
    with pytest.raises(InputError):
        twist_rotation_interval(F, n, samples)
