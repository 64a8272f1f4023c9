import random
from functools import partial

import pytest

from agcodes.codec import make_curve_code
from agcodes.errors import MTooSmall
from agcodes.galois import ZERO, field_new, gf9
from agcodes.geometry import (
    CurveSpec,
    Point,
    WeightedCurveOrder,
    corners,
    curve_spec,
    defining_set,
    enumerate_points,
    hermitian_curve,
    hyperbolic_set,
    is_downward_closed,
    monomial_logs,
    poly_values,
)
from oracles import minimal_outside_scan


@pytest.fixture(scope="module")
def f9():
    return gf9()


@pytest.fixture(scope="module")
def herm(f9):
    return hermitian_curve(f9)


@pytest.mark.parametrize("f", [gf9(), field_new(2, 4, [1, 1, 0, 0, 1])], ids=["gf9", "gf16"])
def test_point_kernels_equal_the_power_products(f):
    # every point of GF(q)^2, zero coordinates included, and exponents up to
    # q - 1, one past the grid
    points = [Point(x, y) for x in f.elements() for y in f.elements()]
    cells = [(i, j) for i in range(f.q) for j in range(f.q)]
    for p in points:
        want = [f.mul(f.pow(p.x, i), f.pow(p.y, j)) for i, j in cells]
        assert monomial_logs(f, p, cells) == want, p
    rng = random.Random(f"kernels-{f.q}")
    for _ in range(20):
        coeffs = {c: rng.randrange(-1, f.q - 1) for c in rng.sample(cells, 5)}
        want = []
        for p in points:
            acc = ZERO
            for (i, j), c in coeffs.items():
                acc = f.add(acc, f.mul(c, f.mul(f.pow(p.x, i), f.pow(p.y, j))))
            want.append(acc)
        assert poly_values(f, coeffs, points) == want


def test_hermitian_curve_shape(herm):
    assert (herm.a, herm.b) == (3, 4)
    assert herm.genus == 3
    assert herm.poly_dict() == {(0, 3): 0, (0, 1): 0, (4, 0): 4}


def test_hermitian_point_census(f9, herm):
    pts, zero = enumerate_points(herm, f9)
    assert len(pts) == 24
    assert all(p.x != ZERO and p.y != ZERO for p in pts)
    assert len(pts) + len(zero) == 27
    assert zero == [Point(ZERO, ZERO), Point(ZERO, 2), Point(ZERO, 6)]


def test_point_enumeration_matches_brute_force(f9, herm):
    # redundant full scan over all 81 coordinate pairs
    poly = herm.poly_dict()
    grid = [Point(x, y) for x in [ZERO] + list(range(8)) for y in [ZERO] + list(range(8))]
    assert poly_values(f9, poly, grid).count(ZERO) == 27
    # enumerate_points sums the curve along x-lines; the scan evaluates it
    # with poly_values at every coordinate pair.  Hermitian curves and
    # random C_ab curves, some with a ZERO coefficient, over five fields.
    rng = random.Random(27)
    fields = [
        gf9(), field_new(2, 4, [1, 1, 0, 0, 1]), field_new(5, 2, [2, 1, 1]),
        field_new(3, 3, [1, 2, 0, 1]), field_new(2, 6, [1, 1, 0, 0, 0, 0, 1]),
    ]
    for f in fields:
        curves = [hermitian_curve(f)] if f.q in (9, 16, 25, 64) else []
        for _ in range(4):
            a, b = rng.choice([(2, 3), (2, 5), (3, 4)])
            terms = {(0, a): rng.randrange(f.q - 1), (b, 0): rng.randrange(f.q - 1)}
            low = [(i, j) for i in range(b) for j in range(a) if a * i + b * j < a * b]
            terms.update((c, rng.randrange(-1, f.q - 1)) for c in rng.sample(low, 3))
            curves.append(curve_spec(a, b, terms))
        # y^2 + x^3 - 1 passes through (1, 0), on the axis y = 0 off x = 0
        curves.append(curve_spec(2, 3, {(0, 2): 0, (3, 0): 0, (0, 0): f.neg(0)}))
        for curve in curves:
            logs = f.elements()
            pairs = [Point(x, y) for x in logs for y in logs]
            on = [p for p, v in zip(pairs, poly_values(f, curve.poly_dict(), pairs)) if v == ZERO]
            nonzero = [p for p in on if p.x != ZERO and p.y != ZERO]
            zero = [p for p in on if p.x == ZERO or p.y == ZERO]
            assert enumerate_points(curve, f) == (nonzero, zero), (f.q, curve)


def test_points_on_curve(f9, herm):
    poly = herm.poly_dict()
    pts, zero = enumerate_points(herm, f9)
    assert poly_values(f9, poly, pts + zero) == [ZERO] * (len(pts) + len(zero))


def test_degenerate_diagonal_curve(f9):
    # x = y, constructed without the C_a^b validation
    diag = CurveSpec(a=1, b=2, defining_poly=(((1, 0), 0), ((0, 1), 4)))
    pts, zero = enumerate_points(diag, f9)
    assert pts == [Point(k, k) for k in range(8)]
    assert zero == [Point(ZERO, ZERO)]


def test_curve_spec_validation(f9):
    with pytest.raises(ValueError):
        curve_spec(2, 4, {(0, 2): 0, (4, 0): 0})  # gcd != 1
    with pytest.raises(ValueError):
        curve_spec(3, 4, {(0, 3): 0})  # no x^4 term
    with pytest.raises(ValueError):
        curve_spec(3, 4, {(0, 3): 0, (4, 0): 0, (4, 1): 0})  # bad extra term


def test_defining_set_weighted(f9):
    order = WeightedCurveOrder(3, 4)
    phi = defining_set(order, 11, f9)
    assert phi == [
        (0, 0),
        (1, 0),
        (0, 1),
        (2, 0),
        (1, 1),
        (0, 2),
        (3, 0),
        (2, 1),
        (1, 2),
    ]
    assert len(phi) == 11 - 3 + 1  # m - g + 1


def test_hyperbolic_set(f9):
    phi = hyperbolic_set(9, f9)
    assert len(phi) == 20
    rows = [sum(1 for (i, j) in phi if j == jj) for jj in range(8)]
    assert rows == [8, 4, 2, 2, 1, 1, 1, 1]
    # listed by product weight (i+1)(j+1), ties by smaller j: (3, 0) and
    # (1, 1) tie at weight 4
    assert phi[:6] == [(0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (3, 0)]
    assert phi.index((3, 0)) < phi.index((1, 1))
    # no prefix of the graded order: (2, 2) has degree 4 but lies outside,
    # while (7, 0), of degree 7, lies inside
    assert (2, 2) not in phi and (7, 0) in phi


def test_defining_set_trivial(f9):
    assert defining_set(WeightedCurveOrder(3, 4), 0, f9) == [(0, 0)]


def test_defining_set_monotone_and_downward_closed(f9):
    worder = WeightedCurveOrder(3, 4)
    for rule in (partial(defining_set, worder), hyperbolic_set):
        prev = set()
        for m in range(0, 30):
            phi = set(rule(m, f9))
            assert prev <= phi
            assert is_downward_closed(phi)
            prev = phi


def is_downward_closed_scan(cells):
    """Oracle: every cell componentwise below a member is a member."""
    s = set(cells)
    return all((a, b) in s for i, j in s for a in range(i + 1) for b in range(j + 1))


def test_is_downward_closed_matches_scan():
    rng = random.Random(31)
    box = [(i, j) for i in range(6) for j in range(6)]
    sets = [set(), {(0, 0)}, {(1, 0)}, {(0, 0), (1, 1)}, set(box)]
    sets += [set(rng.sample(box, rng.randrange(len(box)))) for _ in range(200)]
    for h in range(1, 6):
        # lower sets, and each with one cell removed
        lower = {(i, j) for i in range(6) for j in range(6) if (i + 1) * (j + 1) <= h * 3}
        sets.append(lower)
        sets += [lower - {c} for c in lower]
    assert any(is_downward_closed(s) for s in sets)
    assert not all(is_downward_closed(s) for s in sets)
    for cells in sets:
        assert is_downward_closed(cells) == is_downward_closed_scan(cells), cells


def test_corners_match_the_scan():
    # random lower sets by their non-increasing column heights, plus the
    # defining sets the codes take
    rng = random.Random(32)
    columns = [[1], [5], [1, 1, 1, 1], [3, 3, 2, 2, 2, 1]]
    for _ in range(200):
        heights = [rng.randrange(1, 9) for _ in range(rng.randrange(1, 9))]
        columns.append(sorted(heights, reverse=True))
    f16 = field_new(2, 4, [1, 1, 0, 0, 1])
    sets = [hyperbolic_set(m, f16) for m in (2, 5, 12, 30, 200)]
    sets += [defining_set(WeightedCurveOrder(4, 5), m, f16) for m in (0, 7, 20, 60)]
    for cells in sets:
        heights = [sum(1 for i, _ in cells if i == c) for c in range(max(i for i, _ in cells) + 1)]
        columns.append(heights)
    for heights in columns:
        cells = [(i, j) for i, h in enumerate(heights) for j in range(h)]
        assert corners(heights) == minimal_outside_scan(cells, 10 + len(heights)), heights


def test_weighted_order_no_ties_on_strip(f9):
    order = WeightedCurveOrder(3, 4)
    cells = [(i, j) for i in range(8) for j in range(3)]
    weights = [order.weight(c) for c in cells]
    assert len(set(weights)) == len(weights)


def test_order_tiebreak_off_strip():
    order = WeightedCurveOrder(3, 4)
    # x^4 and y^3 tie at weight 12; smaller j comes first
    assert order.key((4, 0)) < order.key((0, 3))


def test_code_params(f9, herm):
    spec = make_curve_code(f9, herm, 11)
    assert (spec.n, spec.k) == (24, 15)
    with pytest.raises(MTooSmall):
        make_curve_code(f9, herm, 3)
    with pytest.raises(MTooSmall):
        make_curve_code(f9, herm, 4)


def test_orders_hash_by_value():
    assert WeightedCurveOrder(3, 4) == WeightedCurveOrder(3, 4)
    assert hash(WeightedCurveOrder(3, 4)) == hash(WeightedCurveOrder(3, 4))
    assert WeightedCurveOrder(3, 4) != WeightedCurveOrder(4, 5)
    assert WeightedCurveOrder(3, 4) != WeightedCurveOrder(1, 1)
    orders = {WeightedCurveOrder(3, 4), WeightedCurveOrder(3, 4), WeightedCurveOrder(1, 1)}
    assert len(orders) == 2
