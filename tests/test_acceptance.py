"""Acceptance suite: one test per criterion, exact expectations.

Run with `pytest tests/test_acceptance.py -v -s` to get one line per
criterion.
"""

import random

import pytest

from agcodes import codec
from agcodes.bms import extend, vanishing_ideal_basis
from agcodes.cli import run_simulation
from agcodes.errors import MTooSmall
from agcodes.galois import ZERO, gf9
from agcodes.geometry import (
    Point,
    WeightedCurveOrder,
    defining_set,
    enumerate_points,
    hermitian_curve,
    hyperbolic_set,
    poly_values,
)
from agcodes.transform import dft1, idft2
from oracles import fill_by_recurrences

F9 = gf9()
HERM = codec.preset("hermitian-q9")
HCRS = codec.preset("hcrs-q9")


def ok(n, text):
    print(f"ACCEPTANCE {n}: {text} PASS")


def rand_info(rng, k):
    return [rng.randrange(-1, 8) for _ in range(k)]


def test_01_field_fidelity():
    # alpha^3 + alpha + 1 = 0 in coordinates, and -(alpha^0) = alpha^4
    a3, a1, one = F9.coords(3), F9.coords(1), F9.coords(0)
    total = tuple((x + y + z) % 3 for x, y, z in zip(a3, a1, one))
    assert total == (0, 0)
    assert F9.neg(0) == 4
    assert F9.add(0, 4) == ZERO
    ok(1, "GF(9) from x^2+x+2: alpha^3+alpha+1=0, -1=alpha^4")


def test_02_point_census():
    curve = hermitian_curve(F9)
    nonzero, zero = enumerate_points(curve, F9)
    assert len(nonzero) == 24
    assert zero == [Point(ZERO, ZERO), Point(ZERO, 2), Point(ZERO, 6)]
    assert len(nonzero) + len(zero) == 27
    ok(2, "24 nonzero-coordinate points and exactly (0,0),(0,a^2),(0,a^6)")


def test_03_code_parameters():
    worder = WeightedCurveOrder(3, 4)
    phi = defining_set(worder, 11, F9)
    assert len(phi) == 11 - 3 + 1 == 9
    herm = hermitian_curve(F9)
    spec = codec.make_curve_code(F9, herm, 11)
    assert (spec.n, spec.k) == (24, 15)
    assert len(hyperbolic_set(9, F9)) == 20
    assert (HCRS.n, HCRS.k) == (64, 44)
    with pytest.raises(MTooSmall):
        codec.make_curve_code(F9, herm, 3)
    with pytest.raises(MTooSmall):
        codec.make_curve_code(F9, herm, 4)
    ok(3, "C(11): #phi=9, (n,k)=(24,15); HCRS C(9): #phi=20, (n,k)=(64,44)")


def test_04_transform_image_on_points_and_injectivity():
    rng = random.Random(104)
    point_cells = HERM.point_cells()
    off = [(i, j) for i in range(8) for j in range(8) if (i, j) not in point_cells]
    assert len(off) == 40
    cells = HERM.carrier_cells("nonsystematic")
    # encode_nonsystematic itself asserts the off-point cells vanish; do
    # the scan here independently as well
    for _ in range(1000):
        info = rand_info(rng, len(cells))
        values = {c: ZERO for c in HERM.phi}
        values.update(zip(cells, info))
        full = extend(values, HERM.basis_all, F9)
        cw = idft2(F9, full)
        assert all(cw[i][j] == ZERO for i, j in off)
    # injectivity via linearity: nonzero info never maps to the zero word
    for _ in range(200):
        info = rand_info(rng, len(cells))
        if all(v == ZERO for v in info):
            info[rng.randrange(len(info))] = rng.randrange(0, 8)
        word = codec.encode_nonsystematic(HERM, info)
        assert any(v != ZERO for v in word)
    ok(4, "inverse transform vanishes off the 24 points; map injective")


def test_05_vanishing_ideal_basis():
    pts, _ = enumerate_points(hermitian_curve(F9), F9)
    basis = vanishing_ideal_basis(pts, WeightedCurveOrder(3, 4), F9)
    coeff_sets = sorted(tuple(sorted(p.coeffs.items())) for p in basis.elements)
    assert coeff_sets == [
        (((0, 0), 4), ((8, 0), 0)),  # x^8 - 1
        (((0, 1), 0), ((0, 3), 0), ((4, 0), 4)),  # y^3 + y - x^4
    ]
    assert set(basis.delta) == {(i, j) for i in range(8) for j in range(3)}
    for poly in basis.elements:
        assert poly_values(F9, poly.coeffs, pts) == [ZERO] * len(pts)
    ok(5, "basis {x^8-1, y^3+y-x^4} with the 24-cell staircase, vanishing")


def test_06_extension_order_independence():
    # extend fills in the basis order; the oracle fills by the same
    # recurrences in passes over the row-major cell list
    rng = random.Random(106)
    strip = [(i, j) for i in range(8) for j in range(3)]
    cells = [(i, j) for i in range(8) for j in range(8)]
    elems = [(p.lt, p.coeffs) for p in HERM.basis_all.elements]
    for _ in range(100):
        vals = {c: rng.randrange(-1, 8) for c in strip}
        grid = [[vals.get((i, j)) for j in range(8)] for i in range(8)]
        assert fill_by_recurrences(F9, grid, elems, cells)
        assert extend(vals, HERM.basis_all, F9) == grid
    ok(6, "extension in the basis order equals the row-major fill by recurrences")


def test_07_systematic_equals_matrix_oracle():
    rng = random.Random(107)
    info_idx = HERM.info_positions()
    for _ in range(1000):
        info = rand_info(rng, HERM.k)
        w1 = codec.encode_systematic(HERM, info)
        w2 = codec.encode_matrix_oracle(HERM, info)
        assert w1 == w2
        assert [w1[h] for h in info_idx] == info
    ok(7, "systematic encoder == generator-matrix oracle on 1000 infos")


def test_08a_decoding_capability_hermitian():
    success, failure, miscorrection, _ = run_simulation(HERM, 3, 1000, 1081)
    assert (success, failure, miscorrection) == (1000, 0, 0)
    ok("8a", "Hermitian C(11): 1000/1000 exact at t=3, no miscorrections")


def test_08b_decoding_capability_hcrs():
    success, failure, miscorrection, _ = run_simulation(HCRS, 4, 1000, 1082)
    assert (success, failure, miscorrection) == (1000, 0, 0)
    ok("8b", "HCRS C(9): 1000/1000 exact at t=4, no miscorrections")


def test_09_rs_commutative_diagram():
    rng = random.Random(109)
    for r in (2, 4, 6):
        for _ in range(1000):
            info = rand_info(rng, 8 - r)
            w_euclid = codec.rs_encode_euclid(F9, r, info)
            assert codec.rs_encode_dh(F9, r, info) == w_euclid
        # d_h = R(alpha^h) for every h (not only below the redundancy):
        # rebuild the shift-register sequence and compare with the
        # transform of the Euclidean remainder
        g = codec.rs_gen_poly(F9, r)
        for _ in range(50):
            info = rand_info(rng, 8 - r)
            coeffs = [ZERO] * r + list(info)
            d = []
            for h in range(r):
                acc = ZERO
                for t, c in enumerate(coeffs):
                    acc = F9.add(acc, F9.mul(c, (t * h) % 8))
                d.append(acc)
            for h in range(r, 8):
                acc = ZERO
                for i in range(r):
                    acc = F9.add(acc, F9.mul(g[i], d[i + h - r]))
                d.append(F9.neg(acc))
            word = codec.rs_encode_euclid(F9, r, info)
            rem = [F9.neg(v) for v in word[:r]] + [ZERO] * (8 - r)
            assert d == dft1(F9, rem)
    ok(9, "rs euclid == dh over 1000 infos, r in {2,4,6}; d_h = R(a^h) all h")


def test_10_zero_coordinate_encoding():
    a = codec.analogue_dft(HERM, Point(ZERO, 2), 5)
    assert a[0] == [5, 7, 1, 3, 5, 7, 1, 3]
    a = codec.analogue_dft(HERM, Point(ZERO, 6), 2)
    assert a[0] == [2, 0, 6, 4, 2, 0, 6, 4]
    a = codec.analogue_dft(HERM, Point(ZERO, ZERO), 7)
    assert a[0][0] == 7
    assert sum(1 for row in a for v in row if v != ZERO) == 1

    rng = random.Random(110)
    h = codec.check_matrix(HERM)
    info_idx = HERM.info_positions()
    for _ in range(1000):
        info = rand_info(rng, HERM.k + 3)
        word = codec.encode_systematic(HERM, info)
        for l in range(9):
            acc = ZERO
            for pos in range(27):
                acc = F9.add(acc, F9.mul(word[pos], h[pos][l]))
            assert acc == ZERO
        assert [word[p] for p in info_idx] == info[: HERM.k]
        assert word[24:] == info[HERM.k :]
    ok(10, "analogue rows match; lengthened parity and systematicity hold")


def test_11_syndrome_duality():
    rng = random.Random(111)
    rs = codec.preset("rs-q9")
    for spec in (HERM, HCRS, rs):
        h = codec.check_matrix(spec)[: spec.n]
        for _ in range(1000):
            word = [rng.randrange(-1, 8) for _ in range(spec.n)]
            sv = codec.syndromes(spec, word)
            for l in range(len(spec.phi)):
                acc = ZERO
                for pos in range(spec.n):
                    acc = F9.add(acc, F9.mul(word[pos], h[pos][l]))
                assert acc == sv[l]
    ok(11, "transform syndromes equal check-matrix syndromes, 3 families")
