import random

import pytest

from agcodes.errors import DimensionMismatch
from agcodes.galois import ZERO, field_new, gf9
from agcodes.transform import Array2D, dft1, dft2, idft1, idft2


@pytest.fixture(scope="module")
def f9():
    return gf9()


# A characteristic-2 and a characteristic-5 field beside GF(9)
LARGER_FIELDS = {
    "GF(16)": (2, 4, [1, 1, 0, 0, 1]),
    "GF(25)": (5, 2, [2, 1, 1]),
}


def coord_sum(f, logs, negate=False):
    """Log of the sum of alpha^e over the logs, added in GF(p) coordinates
    from exp_table, so it shares no arithmetic table with the transforms."""
    acc = [0] * f.m
    for e in logs:
        acc = [(c + d) % f.p for c, d in zip(acc, f.exp_table[e])]
    if negate:
        acc = [-c % f.p for c in acc]
    return f.log_table.get(tuple(acc), ZERO)


# Independent oracles: direct double/single summation, no Horner, no
# row-column split, additions in coordinates.
def dft2_oracle(f, a, sign):
    n = f.q - 1
    out = Array2D.zeros(f.q)
    for i in range(n):
        for j in range(n):
            out.data[i][j] = coord_sum(
                f,
                (
                    (a.data[r][s] + sign * (r * i + s * j)) % n
                    for r in range(n)
                    for s in range(n)
                    if a.data[r][s] != ZERO
                ),
            )
    return out


def dft1_oracle(f, a, sign, negate=False):
    n = f.q - 1
    return [
        coord_sum(f, ((a[h] + sign * i * h) % n for h in range(n) if a[h] != ZERO), negate)
        for i in range(n)
    ]


def random_array(f, rng):
    n = f.q - 1
    return Array2D(f.q, [[rng.randrange(-1, n) for _ in range(n)] for _ in range(n)])


def test_dft2_zero_and_delta(f9):
    z = Array2D.zeros(9)
    assert dft2(f9, z) == z
    d = Array2D.zeros(9)
    d.data[0][0] = 0
    out = dft2(f9, d)
    assert all(v == 0 for row in out.data for v in row)


def test_dft2_single_cell_row_pattern(f9):
    # alpha^0 at (1, 0): output[i][j] = alpha^i for every j
    a = Array2D.zeros(9)
    a.data[1][0] = 0
    out = dft2(f9, a)
    for i in range(8):
        for j in range(8):
            assert out.data[i][j] == i
    assert out == dft2_oracle(f9, a, +1)


def check_dft2_oracle(f, draws):
    rng = random.Random(7)
    for _ in range(draws):
        a = random_array(f, rng)
        assert dft2(f, a) == dft2_oracle(f, a, +1)
        assert idft2(f, a) == dft2_oracle(f, a, -1)


def test_dft2_matches_oracle(f9):
    check_dft2_oracle(f9, 10)


def test_idft2_of_constant_array(f9):
    a = Array2D(9, [[0] * 8 for _ in range(8)])
    out = idft2(f9, a)
    # (q-1)^2 * alpha^0 = alpha^0 at the origin, zero elsewhere
    assert out.data[0][0] == 0
    assert sum(1 for row in out.data for v in row if v != ZERO) == 1
    assert idft2(f9, Array2D.zeros(9)) == Array2D.zeros(9)


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
        comb = Array2D(
            9,
            [
                [f9.add(a.data[i][j], f9.mul(lam, b.data[i][j])) for j in range(n)]
                for i in range(n)
            ],
        )
        ta, tb, tc = dft2(f9, a), dft2(f9, b), dft2(f9, comb)
        for i in range(n):
            for j in range(n):
                assert tc.data[i][j] == f9.add(ta.data[i][j], f9.mul(lam, tb.data[i][j]))


def test_dft2_rank_one_row_pattern(f9):
    # array supported on a single row r: output depends on i only via alpha^(ri)
    rng = random.Random(17)
    r = 3
    a = Array2D.zeros(9)
    for j in range(8):
        a.data[r][j] = rng.randrange(-1, 8)
    out = dft2(f9, a)
    for j in range(8):
        base = out.data[0][j]
        for i in range(8):
            assert out.data[i][j] == f9.mul(base, (r * i) % 8)


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
    # the oracle is O(q^4), so two random arrays per field
    f = field_new(*LARGER_FIELDS[name])
    check_dft2_oracle(f, 2)
    check_dft2_roundtrip(f)
    check_dft1_oracle(f)
    check_dft1_roundtrip(f)


def test_dimension_mismatch(f9):
    with pytest.raises(DimensionMismatch):
        dft1(f9, [0, 0, 0])
    with pytest.raises(DimensionMismatch):
        Array2D(9, [[ZERO] * 7 for _ in range(8)])
