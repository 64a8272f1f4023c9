import random
from collections import Counter
from functools import partial

import pytest

from agcodes.errors import DimensionMismatch
from agcodes.galois import ZERO, field_new, gf9
from agcodes.geometry import WeightedCurveOrder, defining_set, hyperbolic_set
from agcodes.transform import dft1, dft2, dft2_cells, idft1, idft2


@pytest.fixture(scope="module")
def f9():
    return gf9()


# Fields beside GF(9), one for each way the packed kernel reads its
# slots: whole slots of one byte (GF(16), GF(64), characteristic 2) or two
# (GF(25), the prime field GF(31)), and slots read digit by digit from
# one-byte (GF(27)) or two-byte (GF(49)) cells
LARGER_FIELDS = {
    "GF(16)": (2, 4, [1, 1, 0, 0, 1]),
    "GF(25)": (5, 2, [2, 1, 1]),
    "GF(27)": (3, 3, [1, 2, 0, 1]),
    "GF(31)": (31, 1, [28, 1]),
    "GF(49)": (7, 2, [3, 6, 1]),
    "GF(64)": (2, 6, [1, 1, 0, 0, 0, 0, 1]),
}


def coord_sum(f, logs, negate=False):
    """Log of the sum of alpha^e over the logs, added in GF(p) coordinates
    from exp_table, so it shares no arithmetic table with the transforms."""
    acc = [0] * f.m
    for e, k in Counter(logs).items():
        acc = [(c + k * d) % f.p for c, d in zip(acc, f.exp_table[e])]
    if negate:
        acc = [-c % f.p for c in acc]
    return f.log_table.get(tuple(acc), ZERO)


# Independent oracles: direct double/single summation, no Horner, no
# row-column split, additions in coordinates.
def dft2_oracle(f, a, sign):
    n = f.q - 1
    terms = [(r, s, v) for r, row in enumerate(a) for s, v in enumerate(row) if v != ZERO]
    out = zeros(f.q)
    for i in range(n):
        for j in range(n):
            out[i][j] = coord_sum(
                f, ((v + sign * (r * i + s * j)) % n for r, s, v in terms)
            )
    return out


def dft1_oracle(f, a, sign, negate=False):
    n = f.q - 1
    return [
        coord_sum(f, ((a[h] + sign * i * h) % n for h in range(n) if a[h] != ZERO), negate)
        for i in range(n)
    ]


def zeros(q):
    return [[ZERO] * (q - 1) for _ in range(q - 1)]


def random_array(f, rng):
    n = f.q - 1
    return [[rng.randrange(-1, n) for _ in range(n)] for _ in range(n)]


def cross_array(f, rng):
    """Random entries on one random row and one random column, zero
    elsewhere: 2n-1 cells from which both passes of the row-column
    transform still see full vectors."""
    n = f.q - 1
    r0, s0 = rng.randrange(n), rng.randrange(n)
    return [
        [rng.randrange(-1, n) if r == r0 or s == s0 else ZERO for s in range(n)]
        for r in range(n)
    ]


def test_dft2_zero_and_delta(f9):
    z = zeros(9)
    assert dft2(f9, z) == z
    d = zeros(9)
    d[0][0] = 0
    out = dft2(f9, d)
    assert all(v == 0 for row in out for v in row)


def test_dft2_single_cell_row_pattern(f9):
    # alpha^0 at (1, 0): output[i][j] = alpha^i for every j
    a = zeros(9)
    a[1][0] = 0
    out = dft2(f9, a)
    for i in range(8):
        for j in range(8):
            assert out[i][j] == i
    assert out == dft2_oracle(f9, a, +1)


def check_dft2_oracle(f, draws, make=random_array):
    rng = random.Random(7)
    for _ in range(draws):
        a = make(f, rng)
        assert dft2(f, a) == dft2_oracle(f, a, +1)
        assert idft2(f, a) == dft2_oracle(f, a, -1)


def test_dft2_matches_oracle(f9):
    check_dft2_oracle(f9, 10)


def test_idft2_of_constant_array(f9):
    a = [[0] * 8 for _ in range(8)]
    out = idft2(f9, a)
    # (q-1)^2 * alpha^0 = alpha^0 at the origin, zero elsewhere
    assert out[0][0] == 0
    assert sum(1 for row in out for v in row if v != ZERO) == 1
    assert idft2(f9, zeros(9)) == zeros(9)


def check_dft2_roundtrip(f):
    rng = random.Random(11)
    for _ in range(25):
        a = random_array(f, rng)
        assert idft2(f, dft2(f, a)) == a
        assert dft2(f, idft2(f, a)) == a


def test_dft2_idft2_roundtrip(f9):
    check_dft2_roundtrip(f9)


def test_transform_linearity(f9):
    rng = random.Random(13)
    n = 8
    for _ in range(10):
        a = random_array(f9, rng)
        b = random_array(f9, rng)
        lam = rng.randrange(0, n)
        comb = [[f9.add(a[i][j], f9.mul(lam, b[i][j])) for j in range(n)] for i in range(n)]
        ta, tb, tc = dft2(f9, a), dft2(f9, b), dft2(f9, comb)
        for i in range(n):
            for j in range(n):
                assert tc[i][j] == f9.add(ta[i][j], f9.mul(lam, tb[i][j]))


def test_dft2_rank_one_row_pattern(f9):
    # array supported on a single row r: output depends on i only via alpha^(ri)
    rng = random.Random(17)
    r = 3
    a = zeros(9)
    for j in range(8):
        a[r][j] = rng.randrange(-1, 8)
    out = dft2(f9, a)
    for j in range(8):
        base = out[0][j]
        for i in range(8):
            assert out[i][j] == f9.mul(base, (r * i) % 8)


def test_idft1_delta_convention(f9):
    # shipped idft1 carries the -1 normalization: delta at 0 with value
    # alpha^0 maps to the all-(-1)=all-alpha^4 vector
    a = [0] + [ZERO] * 7
    assert idft1(f9, a) == [4] * 8
    assert dft1(f9, idft1(f9, a)) == a
    assert idft1(f9, [ZERO] * 8) == [ZERO] * 8


def check_dft1_oracle(f):
    n = f.q - 1
    rng = random.Random(19)
    for _ in range(20):
        a = [rng.randrange(-1, n) for _ in range(n)]
        assert dft1(f, a) == dft1_oracle(f, a, +1)
        assert idft1(f, a) == dft1_oracle(f, a, -1, negate=True)


def test_dft1_matches_oracle(f9):
    check_dft1_oracle(f9)


def check_dft1_roundtrip(f):
    n = f.q - 1
    rng = random.Random(23)
    for _ in range(1000):
        a = [rng.randrange(-1, n) for _ in range(n)]
        assert dft1(f, idft1(f, a)) == a
        assert idft1(f, dft1(f, a)) == a


def test_dft1_idft1_roundtrip_1000(f9):
    check_dft1_roundtrip(f9)


@pytest.mark.parametrize("name", sorted(LARGER_FIELDS))
def test_transforms_larger_field(name):
    # the oracle costs n^2 per nonzero cell: two full random arrays up
    # to GF(25), one cross-shaped array past it
    f = field_new(*LARGER_FIELDS[name])
    if f.q <= 25:
        check_dft2_oracle(f, 2)
    else:
        check_dft2_oracle(f, 1, cross_array)
    check_dft2_roundtrip(f)
    check_dft1_oracle(f)
    check_dft1_roundtrip(f)


@pytest.mark.parametrize("name", ["GF(9)"] + sorted(LARGER_FIELDS))
def test_transforms_of_the_largest_coordinate_sums(name):
    # c has every coordinate p-1, so output 0 of the constant vector sums
    # n copies of the largest digit in every coordinate
    f = gf9() if name == "GF(9)" else field_new(*LARGER_FIELDS[name])
    n = f.q - 1
    c = f.from_coords([f.p - 1] * f.m)
    assert dft1(f, [c] * n) == dft1_oracle(f, [c] * n, +1)
    assert idft1(f, [c] * n) == dft1_oracle(f, [c] * n, -1, negate=True)
    # and the constant array transforms to c at the origin: n^2 = 1 mod p
    delta = zeros(f.q)
    delta[0][0] = c
    const = [[c] * n for _ in range(n)]
    assert dft2(f, const) == delta
    assert idft2(f, const) == delta


def test_second_transform_reuses_the_table():
    f = field_new(*LARGER_FIELDS["GF(16)"])
    assert f.transform_table is None
    a = random_array(f, random.Random(29))
    out = dft2(f, a)
    table = f.transform_table
    assert table is not None
    assert idft2(f, out) == a
    assert dft1(f, idft1(f, a[0])) == a[0]
    assert f.transform_table is table


# (defining-set rule, m) of each benchmarked 2-D code on the field; every
# field also gets the rs-q9 defining set (i, 0), i < 4
PHI_PARAMS = {
    "GF(9)": [(partial(defining_set, WeightedCurveOrder(3, 4)), 11), (hyperbolic_set, 9)],
    "GF(16)": [(partial(defining_set, WeightedCurveOrder(4, 5)), 20), (hyperbolic_set, 12)],
    "GF(25)": [(partial(defining_set, WeightedCurveOrder(5, 6)), 30)],
}


@pytest.mark.parametrize("name", sorted(PHI_PARAMS))
def test_dft2_cells_matches_dft2(name):
    f = gf9() if name == "GF(9)" else field_new(*LARGER_FIELDS[name])
    n = f.q - 1
    rng = random.Random(19)
    grid = [(i, j) for i in range(n) for j in range(n)]
    cell_lists = [rule(m, f) for rule, m in PHI_PARAMS[name]]
    cell_lists += [[(i, 0) for i in range(4)], [], grid]
    for _ in range(4):
        a = random_array(f, rng)
        full = dft2(f, a)
        subset = rng.sample(grid, rng.randrange(1, len(grid)))
        for cells in cell_lists + [subset]:
            assert dft2_cells(f, a, cells) == [full[i][j] for i, j in cells]


def test_dimension_mismatch(f9):
    with pytest.raises(DimensionMismatch):
        dft1(f9, [0, 0, 0])
    with pytest.raises(DimensionMismatch):
        dft2_cells(f9, zeros(16), [(0, 0)])


@pytest.mark.parametrize(
    "transform",
    [dft2, idft2, lambda f, a: dft2_cells(f, a, [(0, 0)])],
    ids=["dft2", "idft2", "dft2_cells"],
)
@pytest.mark.parametrize(
    "shape",
    [[8] * 7, [8] * 7 + [7], [15] * 15],
    ids=["7 rows of 8", "a row of 7", "15x15"],
)
def test_2d_entries_reject_malformed_arrays(f9, transform, shape):
    with pytest.raises(DimensionMismatch):
        transform(f9, [[ZERO] * width for width in shape])
