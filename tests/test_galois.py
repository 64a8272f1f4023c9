import pytest

from agcodes.errors import NonPrimitivePolynomial
from agcodes.galois import MAX_Q, ZERO, field_new, gf9


# Independent oracle: GF(3)[x] arithmetic on coefficient tuples, reduced
# modulo x^2 + x + 2 by hand (x^2 = 2x + 1).
def mul_coords(u, v):
    c0 = u[0] * v[0]
    c1 = u[0] * v[1] + u[1] * v[0]
    c2 = u[1] * v[1]
    return ((c0 + c2) % 3, (c1 + 2 * c2) % 3)


def add_coords(u, v):
    return ((u[0] + v[0]) % 3, (u[1] + v[1]) % 3)


@pytest.fixture(scope="module")
def f9():
    return gf9()


def test_gf9_alpha_satisfies_cubic(f9):
    # alpha^3 + alpha + 1 = 0, checked in the coordinate representation
    a3 = f9.coords(3)
    a1 = f9.coords(1)
    s = add_coords(add_coords(a3, a1), (1, 0))
    assert s == (0, 0)
    # spot values: alpha^2 = 2*alpha + 1, alpha^3 = 2*alpha + 2
    assert f9.coords(2) == (1, 2)
    assert f9.coords(3) == (2, 2)


def test_gf9_tables_bijective(f9):
    assert len(set(f9.exp_table)) == 8
    assert f9.exp_table[0] == (1, 0)
    for i, coords in enumerate(f9.exp_table):
        assert f9.log_table[coords] == i


def test_gf2_trivial():
    f = field_new(2, 1, [1, 1])
    assert f.q == 2
    assert f.exp_table == [(1,)]
    assert f.add(0, 0) == ZERO  # 1 + 1 = 0
    assert f.mul(0, 0) == 0


def test_non_primitive_rejected():
    # x^2 + 1 over GF(3): its root has order 4, not 8
    with pytest.raises(NonPrimitivePolynomial):
        field_new(3, 2, [1, 0, 1])


def test_not_monic_rejected():
    with pytest.raises(ValueError):
        field_new(3, 2, [2, 1, 2])


@pytest.mark.parametrize(
    "p, m, poly", [(3, 0, [1]), (3, -1, []), (0, 2, [2, 1, 1]), (1, 2, [0, 0, 1])]
)
def test_degenerate_prime_or_degree_rejected(p, m, poly):
    # at the parent (3, 0) raised IndexError and (0, 2) ZeroDivisionError
    with pytest.raises(ValueError, match="p >= 2 and a degree m >= 1"):
        field_new(p, m, poly)


@pytest.mark.parametrize("p, m, poly", [(4, 2, [2, 1, 1]), (9, 1, [2, 1]), (15, 2, [7, 1, 1])])
def test_composite_p_rejected(p, m, poly):
    # Z/p has zero divisors, so no polynomial could pass the primitivity
    # check; the cause is named instead
    with pytest.raises(ValueError, match=f"p={p} is not prime"):
        field_new(p, m, poly)


def test_neg_of_one_is_alpha4(f9):
    assert f9.neg(0) == 4


def test_add_examples(f9):
    assert f9.add(0, 4) == ZERO  # 1 + (-1) = 0
    for x in f9.elements():
        assert f9.add(x, ZERO) == x
        assert f9.add(ZERO, x) == x


def test_add_matches_coordinate_oracle(f9):
    for a in f9.elements():
        for b in f9.elements():
            got = f9.add(a, b)
            want = f9.from_coords(add_coords(f9.coords(a), f9.coords(b)))
            assert got == want, (a, b)


def test_mul_examples(f9):
    assert f9.mul(1, 7) == 0  # exponents mod 8
    assert f9.pow(2, -1) == 6
    assert f9.mul(ZERO, 5) == ZERO
    for a in f9.elements():
        for b in f9.elements():
            got = f9.mul(a, b)
            want = f9.from_coords(mul_coords(f9.coords(a), f9.coords(b)))
            assert got == want, (a, b)


def test_inv_div_pow(f9):
    for a in f9.nonzero():
        assert f9.mul(a, f9.inv(a)) == 0
        assert f9.pow(a, f9.q - 1) == 0
        assert f9.pow(a, -1) == f9.inv(a)
    with pytest.raises(ZeroDivisionError):
        f9.inv(ZERO)
    with pytest.raises(ZeroDivisionError):
        f9.div(3, ZERO)
    assert f9.pow(ZERO, 0) == 0  # 0^0 = 1 convention
    assert f9.pow(ZERO, 3) == ZERO


def test_distributivity_exhaustive(f9):
    # a * (b + c) == a*b + a*c over every triple
    for a in f9.elements():
        for b in f9.elements():
            for c in f9.elements():
                left = f9.mul(a, f9.add(b, c))
                right = f9.add(f9.mul(a, b), f9.mul(a, c))
                assert left == right


def test_neg_is_multiplication_by_alpha_half(f9):
    half = (f9.q - 1) // 2
    for x in f9.elements():
        assert f9.neg(x) == f9.mul(x, half)


def test_characteristic(f9):
    # p * x = 0 for every x
    for x in f9.elements():
        acc = ZERO
        for _ in range(f9.p):
            acc = f9.add(acc, x)
        assert acc == ZERO


def test_larger_field_smoke():
    # GF(8) from x^3 + x + 1 over GF(2)
    f = field_new(2, 3, [1, 1, 0, 1])
    assert f.q == 8
    for a in f.nonzero():
        assert f.pow(a, 7) == 0
        assert f.add(a, a) == ZERO


# Independent oracle for any field: polynomial arithmetic on GF(p)
# coordinate tuples modulo the primitive polynomial.  Logs are mapped to
# coordinates only through exp_table, which the first check pins down.
FIELDS = {
    "GF(2)": (2, 1, [1, 1]),
    "GF(8)": (2, 3, [1, 1, 0, 1]),
    "GF(9)": (3, 2, [2, 1, 1]),
    "GF(16)": (2, 4, [1, 1, 0, 0, 1]),  # x^4 + x + 1
    "GF(25)": (5, 2, [2, 1, 1]),  # x^2 + x + 2
    # odd p with m >= 3, a second odd p and a larger binary field: the
    # Zech rows and log(-1) away from the small cases
    "GF(27)": (3, 3, [1, 2, 0, 1]),  # x^3 + 2x + 1
    "GF(49)": (7, 2, [3, 6, 1]),  # x^2 + 6x + 3
    "GF(64)": (2, 6, [1, 1, 0, 0, 0, 0, 1]),  # x^6 + x + 1
}


def poly_mul_coords(u, v, poly, p):
    m = len(poly) - 1
    prod = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            prod[i + j] = (prod[i + j] + a * b) % p
    for d in range(len(prod) - 1, m - 1, -1):  # x^m = -(c_0 + ... + c_{m-1} x^{m-1})
        c = prod[d]
        prod[d] = 0
        for k in range(m):
            prod[d - m + k] = (prod[d - m + k] - c * poly[k]) % p
    return tuple(prod[:m])


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_tables_match_coordinate_arithmetic(name):
    p, m, poly = FIELDS[name]
    f = field_new(p, m, poly)
    n = f.q - 1
    zero = (0,) * m
    one = (1,) + (0,) * (m - 1)
    cur = one  # alpha^0; each next power is the previous one times x
    for k in range(n):
        assert f.exp_table[k] == cur
        cur = poly_mul_coords(cur, (0, 1), poly, p)
    assert cur == one
    coords = {ZERO: zero, **{k: f.exp_table[k] for k in range(n)}}
    log = {c: e for e, c in coords.items()}
    for a, ca in coords.items():
        for b, cb in coords.items():
            add = tuple((s + t) % p for s, t in zip(ca, cb))
            sub = tuple((s - t) % p for s, t in zip(ca, cb))
            assert f.add(a, b) == log[add], (a, b)
            assert f.sub(a, b) == log[sub], (a, b)
            assert f.mul(a, b) == log[poly_mul_coords(ca, cb, poly, p)], (a, b)
            if b == ZERO:
                with pytest.raises(ZeroDivisionError):
                    f.div(a, b)
            else:
                assert poly_mul_coords(coords[f.div(a, b)], cb, poly, p) == ca, (a, b)
        assert f.neg(a) == log[tuple(-s % p for s in ca)]


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_tables_shape_and_zero_index(name):
    f = field_new(*FIELDS[name])
    for table in (f.add_table, f.sub_table, f.mul_table):
        assert isinstance(table, tuple) and len(table) == f.q
        assert all(isinstance(row, tuple) and len(row) == f.q for row in table)
    # the last row and column stand for zero, reached through index -1
    for a in f.elements():
        assert f.add_table[a][ZERO] == f.add_table[ZERO][a] == a
        assert f.mul_table[a][ZERO] == f.mul_table[ZERO][a] == ZERO
        assert f.sub_table[a][ZERO] == a


def test_fields_compare_by_construction():
    # a field is its (p, m, primitive_poly): equal tables and equal hash
    a, b = field_new(3, 2, [2, 1, 1]), gf9()
    assert a is not b and a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert a.add_table == b.add_table and a.sub_table == b.sub_table
    assert a != field_new(3, 2, [2, 2, 1])  # x^2 + 2x + 2, the other GF(9)
    assert a != field_new(2, 4, [1, 1, 0, 0, 1]) and a != (3, 2, (2, 1, 1))


def test_field_size_limit():
    assert MAX_Q == 256
    field_new(2, 8, [1, 0, 1, 1, 1, 0, 0, 0, 1])  # x^8+x^4+x^3+x^2+1, q = 256
    with pytest.raises(ValueError, match="256"):
        field_new(2, 9, [1, 0, 0, 0, 1, 0, 0, 0, 0, 1])
    with pytest.raises(ValueError, match="256"):
        field_new(2, 12, [1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1])
