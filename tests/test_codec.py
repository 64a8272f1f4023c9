import ast
import functools
import hashlib
import random
from collections import Counter
from pathlib import Path

import pytest

from agcodes import bms, codec, transform
from agcodes.errors import (
    BadRedundancy,
    DecodingFailure,
    ExtendedDecodeUnsupported,
    NonGenericSupport,
    NotAZeroPoint,
    RankDeficient,
)
from agcodes.galois import ONE, ZERO, field_new, gf9
from agcodes.geometry import (
    Point,
    WeightedCurveOrder,
    curve_spec,
    defining_set,
    enumerate_points,
    hermitian_curve,
    monomial_logs,
)
from agcodes.transform import dft1, dft2
from oracles import absolute, minimal_outside_scan, plain_walk, synthesis_basis

F9 = gf9()


@pytest.fixture(scope="module")
def herm():
    return codec.preset("hermitian-q9")


@pytest.fixture(scope="module")
def hcrs():
    return codec.preset("hcrs-q9")


@pytest.fixture(scope="module")
def rs4():
    return codec.preset("rs-q9")


def rand_info(rng, k):
    return [rng.randrange(-1, 8) for _ in range(k)]


def rand_info_q(rng, q, k):
    return [rng.randrange(-1, q - 1) for _ in range(k)]


def add_errors(rng, f, word, t):
    out = list(word)
    for p in rng.sample(range(len(word)), t):
        out[p] = f.add(out[p], rng.randrange(f.q - 1))
    return out


# -- construction ------------------------------------------------------------


def test_spec_parameters(herm, hcrs, rs4):
    assert (herm.n, herm.k, herm.t_capability) == (24, 15, 3)
    assert len(herm.phi) == 9
    assert (hcrs.n, hcrs.k, hcrs.t_capability) == (64, 44, 4)
    assert len(hcrs.phi) == 20
    assert (rs4.n, rs4.k, rs4.t_capability) == (8, 4, 2)


def test_wp_split_invariants(herm, hcrs):
    for spec in (herm, hcrs):
        assert len(spec.wp) == spec.n - spec.k
        assert set(spec.wp) | set(spec.wp_prime) == set(spec.points)
        assert set(spec.wp) & set(spec.wp_prime) == set()
        assert set(spec.basis_wp.delta) == set(spec.phi)
        assert len(spec.basis_all.delta) == spec.n


def test_zero_points(herm):
    assert herm.zero_points == (Point(ZERO, ZERO), Point(ZERO, 2), Point(ZERO, 6))


def test_redundant_positions_pinned(herm, hcrs):
    # spec files, 'info' output and systematic codewords all carry these
    assert herm.parity_positions() == [0, 1, 2, 3, 4, 5, 6, 7, 9]
    assert hcrs.parity_positions() == [
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 16, 17, 24, 25, 32, 40, 48, 56
    ]


def _assert_bases_equal_synthesis(spec):
    # a reduced Groebner basis is unique, so the bases construction builds
    # from the curve's x-lines and reads off the greedy walk must equal
    # the full-array synthesis of the same points, element by element and
    # cell by cell.  The monic (leading cell, tail) form that extend() and
    # the decoder read gives each element back scaled to be monic, as built
    # and times alpha
    f = spec.field
    for basis, points in ((spec.basis_all, spec.points), (spec.basis_wp, spec.wp)):
        oracle = synthesis_basis(points, spec.order, f)
        assert basis.serialize() == oracle.serialize()
        assert basis.delta == oracle.delta
        for g in basis.elements:
            monic = {s: f.div(c, g.coeffs[g.lt]) for s, c in g.coeffs.items()}
            for scale in (ONE, 1):
                scaled = {s: f.mul(scale, c) for s, c in g.coeffs.items()}
                assert absolute(*bms._monic(f, bms.BivariatePoly(scaled, spec.order))) == monic


def test_construction_bases_equal_synthesis_every_gf9_m():
    # every m that constructs; from m = 29 on the hermitian-q9 defining set
    # is the whole strip, so larger m give the same bases
    specs = [("hermitian-q9", m) for m in range(5, 30)] + [("hcrs-q9", m) for m in range(2, 65)]
    for name, m in specs:
        _assert_bases_equal_synthesis(codec.preset(name, m=m))


# y^2 + y + x^3 + alpha^3 x over GF(16): the ambient basis keeps a third element
CAB_GF16 = (2, 3, {(0, 2): ONE, (0, 1): ONE, (3, 0): ONE, (1, 0): 3})
# a C_ab curve over GF(16) whose ambient basis has four elements: one of
# its x-lines is full, and the point-ideal scan of the eight points on the
# seven others gives the three beside the curve
CAB_GF16_TAILS = (
    3, 4, {(0, 0): 2, (0, 1): 0, (0, 3): 6, (1, 0): 1, (1, 2): 1, (2, 1): 2, (4, 0): 10}
)
# a C_ab curve over GF(9) with one full x-line and one point on another,
# whose monic equation has a term x^3 outside the ambient staircase, so
# its tail is reduced by the other two elements
CAB_GF9_REDUCED = (2, 3, {(0, 2): 7, (3, 0): 3, (0, 1): 0, (1, 1): 7})


def _cab_gf16(m, curve=CAB_GF16):
    a, b, terms = curve
    return codec.make_curve_code(field_new(2, 4, [1, 1, 0, 0, 1]), curve_spec(a, b, terms), m)


def _hermitian(p, deg, poly, m):
    f = field_new(p, deg, poly)
    return codec.make_curve_code(f, hermitian_curve(f), m)


@pytest.mark.parametrize(
    "build",
    [
        lambda: _hermitian(2, 4, [1, 1, 0, 0, 1], 20),
        lambda: codec.make_hcrs_code(field_new(2, 4, [1, 1, 0, 0, 1]), 12),
        lambda: _hermitian(5, 2, [2, 1, 1], 30),
        lambda: _hermitian(7, 2, [3, 1, 1], 56),
        lambda: _cab_gf16(5),
        lambda: _cab_gf16(12),
        lambda: _cab_gf16(7, CAB_GF16_TAILS),
    ],
    ids=[
        "hermitian-q16", "hcrs-q16", "hermitian-q25", "hermitian-q49",
        "cab-q16-m5", "cab-q16-m12", "cab-q16-tails",
    ],
)
def test_construction_bases_equal_synthesis(build):
    _assert_bases_equal_synthesis(build())


def test_ambient_basis_of_a_curve_keeps_more_elements():
    spec = _cab_gf16(5)
    assert [g.lt for g in spec.basis_all.elements] == [(0, 2), (7, 0), (6, 1)]
    assert spec.n == len(spec.basis_all.delta) == 13
    spec = _cab_gf16(7, CAB_GF16_TAILS)
    assert [g.lt for g in spec.basis_all.elements] == [(0, 3), (2, 2), (5, 0), (4, 1)]
    assert spec.n == len(spec.basis_all.delta) == 11


def test_construction_basis_checks_fire(herm, monkeypatch):
    # an x-line with more points than the curve's y-degree is neither full
    # nor partial: hermitian-q9's points and a fourth on its first line
    x = herm.points[0].x
    extra = next(Point(x, y) for y in range(8) if Point(x, y) not in herm.points)
    with pytest.raises(AssertionError, match="staircase size"):
        codec._ambient_basis(F9, herm.order, herm.curve, list(herm.points) + [extra])
    # three points on each of eight x-lines, but off the curve: x times
    # alpha turns x^4 into -x^4 over GF(9), and no point has y^3 + y = 0
    moved = [Point((p.x + 1) % 8, p.y) for p in herm.points]
    with pytest.raises(AssertionError, match="ambient basis element does not vanish"):
        codec._ambient_basis(F9, herm.order, herm.curve, moved)

    # each element still vanishes, but the curve keeps its term x^3
    # outside the staircase, the element of the partial scan's last corner
    # goes missing, or the scan's elements are scaled by alpha
    a, b, terms = CAB_GF9_REDUCED
    curve, order = curve_spec(a, b, terms), WeightedCurveOrder(a, b)
    points, _ = enumerate_points(curve, F9)
    assert (3, 0) not in codec._ambient_basis(F9, order, curve, points).delta
    real_scan = codec.vanishing_ideal_basis

    def dropping(*args):
        basis = real_scan(*args)
        return bms.GroebnerBasis(basis.elements[:-1], basis.delta, basis.order)

    def unreduced(f, poly, basis, key):
        return poly

    def scaled(*args):
        basis = real_scan(*args)
        elements = tuple(
            bms.BivariatePoly({c: (v + 1) % 8 for c, v in g.coeffs.items()}, order)
            for g in basis.elements
        )
        return bms.GroebnerBasis(elements, basis.delta, basis.order)

    stubs = [
        ("_normal_form", unreduced),
        ("vanishing_ideal_basis", dropping),
        ("vanishing_ideal_basis", scaled),
    ]
    for name, stub in stubs:
        with monkeypatch.context() as patched:
            patched.setattr(codec, name, stub)
            with pytest.raises(AssertionError, match="not monic at each corner"):
                codec._ambient_basis(F9, order, curve, points)

    real_tails = codec._corner_tails

    def skewed(f, rows, lead):
        # every solved tail times alpha: each element keeps its terms and
        # its corner, and is (1 - alpha) x^L at every kept point
        tails = real_tails(f, rows, lead)
        return {L: [v if v == ZERO else (v + 1) % (f.q - 1) for v in a] for L, a in tails.items()}

    with monkeypatch.context() as patched:
        patched.setattr(codec, "_corner_tails", skewed)
        for name in ("hermitian-q9", "hcrs-q9"):
            with pytest.raises(AssertionError, match="basis element does not vanish"):
                codec.preset(name)

    # phi = (0, 0) ... (3, 0) is a lower set, and four points with distinct
    # x make its evaluation matrix invertible, so the walk keeps them all.
    # But their staircase under the graded order is not phi: y minus the
    # cubic in x through the points lies in the ideal, led by x^3, not by
    # phi's corner (0, 1)
    order = WeightedCurveOrder(1, 1)
    points = [Point(0, 0), Point(1, 3), Point(2, 1), Point(3, 6)]
    phi = [(0, 0), (1, 0), (2, 0), (3, 0)]
    assert set(bms.vanishing_ideal_basis(points, order, F9).delta) != set(phi)
    with pytest.raises(AssertionError, match="basis element is not led by its corner"):
        codec._select_redundant_points(F9, points, phi, order)


def test_redundant_point_basis_equals_the_scan():
    # The walk's back-substitution and the monomial scan of the kept
    # points (Moeller and Buchberger) give the same reduced basis, in the
    # same element and staircase order.
    f16, f25 = field_new(2, 4, [1, 1, 0, 0, 1]), field_new(5, 2, [2, 1, 1])
    specs = [codec.make_hcrs_code(F9, m) for m in range(2, 65)]
    specs += [codec.make_hcrs_code(f16, m) for m in (5, 12, 30, 60, 120, 200)]
    specs += [codec.preset("hermitian-q9", m=m) for m in range(5, 30)]
    specs.append(_hermitian(2, 4, [1, 1, 0, 0, 1], 20))
    specs += [_hermitian(5, 2, [2, 1, 1], m) for m in (30, 40, 70, 100)]
    specs.append(_hermitian(2, 6, [1, 1, 0, 0, 0, 0, 1], 72))
    specs.append(_cab_gf16(7, CAB_GF16_TAILS))
    for spec in specs:
        scan = bms.vanishing_ideal_basis(list(spec.wp), spec.order, spec.field)
        where = (spec.kind, spec.field.q, spec.m)
        assert spec.basis_wp.elements == scan.elements, where
        assert spec.basis_wp.delta == scan.delta, where
        assert spec.basis_wp.serialize() == scan.serialize(), where


def test_hcrs_bases_lie_below_their_leading_cells():
    # The redundant points of an hcrs code are the grid cells of its
    # defining set, a lower set, and every term of every basis element
    # lies componentwise at or below the element's leading cell, a corner
    # of the staircase.  So the ideals' initial ideals are the same under
    # every monomial order, and the bases do not depend on which one hcrs
    # takes.  hcrs-q9 at every m that constructs, and hcrs-q16 up to the
    # largest m the suite builds.
    f16 = field_new(2, 4, [1, 1, 0, 0, 1])
    specs = [codec.make_hcrs_code(F9, m) for m in range(2, 65)]
    specs += [codec.make_hcrs_code(f16, m) for m in (5, 12, 30, 60, 120, 200)]
    for spec in specs:
        where = (spec.field.q, spec.m)
        assert {(p.x, p.y) for p in spec.wp} == set(spec.phi), where
        for basis in (spec.basis_wp, spec.basis_all):
            corners = set(minimal_outside_scan(basis.delta, spec.field.q - 1))
            for g in basis.elements:
                assert g.lt in corners, (where, g.lt)
                assert all(i <= g.lt[0] and j <= g.lt[1] for i, j in g.coeffs), (where, g)


def test_hermitian_walk_keeps_the_first_points_of_each_x_line():
    # The greedy walk keeps, on the c-th distinct x of spec.points in walk
    # order, the first h_c points of that x-line, where h_c is the height
    # of column c of the defining set.  Every x-line of a Hermitian curve
    # is long enough, so the walk never mixes lines; hcrs is pinned by
    # test_hcrs_bases_lie_below_their_leading_cells.
    specs = [codec.preset("hermitian-q9", m=m) for m in range(5, 30)]
    specs.append(_hermitian(2, 4, [1, 1, 0, 0, 1], 20))
    specs += [_hermitian(5, 2, [2, 1, 1], m) for m in (30, 40, 70, 100)]
    for spec in specs:
        lines: dict = {}
        for p in spec.points:
            lines.setdefault(p.x, []).append(p)
        heights = Counter(i for i, _ in spec.phi)
        kept = [p for c, line in enumerate(lines.values()) for p in line[: heights[c]]]
        assert list(spec.wp) == kept, (spec.field.q, spec.m)


def test_walk_adds_one_row_per_kept_point(monkeypatch):
    # Every x-line of these codes holds at least its column height of
    # points, so the walk skips each line's tail once the line has given
    # its height: one _Echelon.add per defining-set cell, none for a
    # point it rejects.  Each add hands over the kept point's row on phi
    # and its monomials at phi's corners.  In a build only the walk calls
    # codec's _Echelon.
    adds = []

    class Counting(bms._Echelon):
        def add(self, vec, combo):
            adds.append((list(vec), dict(combo)))
            return super().add(vec, combo)

    monkeypatch.setattr(codec, "_Echelon", Counting)
    f16, f25 = field_new(2, 4, [1, 1, 0, 0, 1]), field_new(5, 2, [2, 1, 1])
    builds = [(codec.make_hcrs_code, F9, m) for m in range(2, 65)]
    builds += [(codec.make_hcrs_code, f16, m) for m in (5, 12, 30, 60, 120, 200)]
    builds += [(codec.make_curve_code, F9, hermitian_curve(F9), m) for m in range(5, 30)]
    builds += [
        (codec.make_curve_code, f16, hermitian_curve(f16), 20),
        (codec.make_curve_code, f25, hermitian_curve(f25), 30),
    ]
    for build, *args in builds:
        adds.clear()
        spec = build(*args)
        f = spec.field
        lead = minimal_outside_scan(spec.phi, f.q - 1)
        kept = [
            (monomial_logs(f, p, spec.phi), dict(zip(lead, monomial_logs(f, p, lead))))
            for p in spec.wp
        ]
        assert adds == kept, (spec.kind, f.q, spec.m)


def _random_cab_curve(rng, f):
    # y^a, x^b and one to three terms below their weight, each with a
    # random nonzero coefficient
    a, b = rng.choice([(2, 3), (2, 5), (3, 4)])
    terms = {(0, a): rng.randrange(f.q - 1), (b, 0): rng.randrange(f.q - 1)}
    low = [(i, j) for i in range(b) for j in range(a) if a * i + b * j < a * b]
    terms.update((c, rng.randrange(f.q - 1)) for c in rng.sample(low, rng.randrange(1, 4)))
    return curve_spec(a, b, terms)


def test_ambient_basis_equals_synthesis_on_random_cab_curves():
    # basis_all is the x-line construction on the code's points, and must
    # equal the full-array synthesis of the same points.  The sample holds
    # curves with every x-line full, with some full and with none full,
    # and curves whose equation's tail is reduced by the other elements.
    rng = random.Random(28)
    cases = Counter()
    for f in (F9, field_new(2, 4, [1, 1, 0, 0, 1]), field_new(5, 2, [2, 1, 1])):
        n = f.q - 1
        built = 0
        while built < 40:
            curve = _random_cab_curve(rng, f)
            points, _ = enumerate_points(curve, f)
            if not points:
                continue
            built += 1
            order = WeightedCurveOrder(curve.a, curve.b)
            basis = codec._ambient_basis(f, order, curve, points)
            oracle = synthesis_basis(points, order, f)
            assert basis.serialize() == oracle.serialize(), (f.q, curve)
            assert basis.delta == oracle.delta, (f.q, curve)
            lines = Counter(p.x for p in points).values()
            full = sum(size == curve.a for size in lines)
            cases["all" if full == len(lines) else "some" if full else "none"] += 1
            poly = curve.poly_dict()
            lead = poly[(0, curve.a)]
            monic = {c: (v - lead) % n for c, v in poly.items() if v != ZERO}
            cases["reduced"] += full > 0 and monic not in [g.coeffs for g in basis.elements]
    assert all(cases[c] >= 3 for c in ("all", "some", "none", "reduced")), cases


def test_walk_matches_the_plain_walk_on_random_cab_curves():
    # On a C_ab curve an x-line can hold fewer points than the height of
    # its defining-set column; from the first such line on the walk
    # evaluates every point.  Its choice must still be the plain walk's.
    rng = random.Random(25)
    for f in (F9, field_new(2, 4, [1, 1, 0, 0, 1]), field_new(5, 2, [2, 1, 1])):
        built = short = 0
        while built < 35:
            curve = _random_cab_curve(rng, f)
            try:
                m = rng.randrange(2 * curve.genus - 1, 3 * curve.b)
                spec = codec.make_curve_code(f, curve, m)
            except (NonGenericSupport, ValueError):  # rank deficient, or phi too large
                continue
            built += 1
            assert list(spec.wp) == plain_walk(f, spec.points, spec.phi), (f.q, curve, spec.m)
            lines = Counter(p.x for p in spec.points)
            heights = Counter(i for i, _ in spec.phi)
            short += any(len_c < heights[c] for c, len_c in enumerate(lines.values()))
        assert short >= 3, (f.q, short)  # the walk's fallback ran on these


@pytest.fixture(scope="module")
def herm256():
    # the largest field: GF(2^8) from x^8 + x^4 + x^3 + x^2 + 1, m = 300
    return _hermitian(2, 8, [1, 0, 1, 1, 1, 0, 0, 0, 1], 300)


def test_hermitian_gf256_builds(herm256):
    spec = herm256
    assert (spec.n, spec.k, spec.t_capability) == (4080, 3899, 30)
    assert [g.lt for g in spec.basis_all.elements] == [(0, 16), (255, 0)]
    assert len(spec.basis_all.delta) == 4080


def test_construction_builds_no_transform_table(monkeypatch, herm256):
    # the packed transform tables grow with about q^3 (20 MB at q = 256),
    # so only a full transform builds them, never a code's construction.
    # The presets share one GF(9), which an earlier test may have
    # transformed, so its table is cleared and the table builder raises
    # while the codes are built.
    assert herm256.field.transform_table is None

    def refuse(f):
        raise AssertionError(f"construction built a transform table over GF({f.q})")

    monkeypatch.setattr(transform, "_packed_kernels", refuse)
    monkeypatch.setattr(codec._PRESET_FIELD, "transform_table", None)
    _hermitian(5, 2, [2, 1, 1], 30)
    for name in codec.PRESETS:
        codec.preset(name)


def test_presets_share_one_field_and_gf9_stays_fresh():
    fields = {id(codec.preset(name).field) for name in codec.PRESETS}
    assert fields == {id(codec.preset("rs-q9").field)}
    assert gf9() is not gf9()


def test_curve_build_computes_the_defining_set_once(monkeypatch):
    calls = []
    monkeypatch.setattr(
        codec, "defining_set", lambda *args: calls.append(args) or defining_set(*args)
    )
    spec = codec.make_curve_code(F9, hermitian_curve(F9), 11)
    assert len(calls) == 1 and len(spec.phi) == 9


@pytest.mark.parametrize("name", codec.PRESETS)
def test_spec_hashable_and_sets_not_shared_mutably(name):
    spec = codec.preset(name)
    assert hash(spec) == hash(spec)
    assert {spec: name}[spec] == name
    parity, info = spec.parity_positions(), spec.info_positions()
    assert sorted(parity + info) == list(range(spec.n))
    parity.append(-1)
    info.clear()
    assert spec.parity_positions() == parity[:-1]
    assert spec.info_positions() == sorted(set(range(spec.n)) - set(parity))
    cells = spec.point_cells()
    assert cells == {(p.x, p.y) for p in spec.points}
    assert isinstance(cells, frozenset)


# -- check matrix ------------------------------------------------------------


def test_check_matrix_first_column_all_one(herm):
    h = codec.check_matrix(herm)
    assert herm.phi[0] == (0, 0)
    assert all(row[0] == 0 for row in h)


def test_check_matrix_zero_point_entries(herm):
    h = codec.check_matrix(herm)
    assert len(h) == 27
    row = h[24 + 1]  # the point (0, alpha^2)
    assert herm.zero_points[1] == Point(ZERO, 2)
    for l, (i, j) in enumerate(herm.phi):
        want = F9.mul(F9.pow(ZERO, i), F9.pow(2, j))
        assert row[l] == want
    # (i,j)=(0,2) column gives (alpha^2)^2 = alpha^4; any i>0 gives zero
    l02 = list(herm.phi).index((0, 2))
    assert row[l02] == 4
    l10 = list(herm.phi).index((1, 0))
    assert row[l10] == ZERO


def test_check_matrix_rank(herm):
    h = codec.check_matrix(herm)[: herm.n]
    assert codec.matrix_rank(F9, h) == 9
    assert codec.matrix_rank(F9, [h[3], h[5], h[3]]) == 2
    assert codec.matrix_rank(F9, [h[0]] * 4) == 1
    assert codec.matrix_rank(F9, []) == 0


def test_solve_square():
    a = [[0, 1], [2, ZERO]]
    rhs = [5, 3]
    x = codec._solve_square(F9, a, rhs)
    for row, r in zip(a, rhs):
        assert F9.add(F9.mul(row[0], x[0]), F9.mul(row[1], x[1])) == r
    with pytest.raises(RankDeficient):
        codec._solve_square(F9, [[0, 1], [0, 1]], rhs)
    with pytest.raises(RankDeficient):
        codec._solve_square(F9, [[0, ZERO], [3, ZERO]], rhs)


# -- encoders ----------------------------------------------------------------


def test_oracle_zero_info(herm):
    assert codec.encode_matrix_oracle(herm, [ZERO] * herm.k) == [ZERO] * herm.n


def test_oracle_parity_random(herm):
    rng = random.Random(1)
    for _ in range(200):
        word = codec.encode_matrix_oracle(herm, rand_info(rng, herm.k))
        sv = codec.syndromes(herm, word)
        assert all(v == ZERO for v in sv)


def test_nonsystematic_zero_info(herm):
    k = len(herm.carrier_cells("nonsystematic"))
    assert k == herm.k
    assert codec.encode_nonsystematic(herm, [ZERO] * k) == [ZERO] * herm.n


def test_nonsystematic_parity_and_injectivity(herm):
    rng = random.Random(2)
    for _ in range(100):
        info = rand_info(rng, herm.k)
        word = codec.encode_nonsystematic(herm, info)
        sv = codec.syndromes(herm, word)
        assert all(v == ZERO for v in sv)
        if any(v != ZERO for v in info):
            assert any(v != ZERO for v in word)


def test_systematic_equals_oracle(herm):
    rng = random.Random(3)
    for _ in range(200):
        info = rand_info(rng, herm.k)
        assert codec.encode_systematic(herm, info) == codec.encode_matrix_oracle(
            herm, info
        )


def test_systematic_carries_info_verbatim(herm, hcrs):
    rng = random.Random(4)
    for spec in (herm, hcrs):
        info_idx = spec.info_positions()
        for _ in range(20):
            info = rand_info(rng, spec.k)
            word = codec.encode_systematic(spec, info)
            assert [word[h] for h in info_idx] == info


def test_encoder_linearity(herm):
    rng = random.Random(5)
    f = F9
    for _ in range(20):
        a = rand_info(rng, herm.k)
        b = rand_info(rng, herm.k)
        lam = rng.randrange(0, 8)
        comb = [f.add(x, f.mul(lam, y)) for x, y in zip(a, b)]
        wa = codec.encode_systematic(herm, a)
        wb = codec.encode_systematic(herm, b)
        wc = codec.encode_systematic(herm, comb)
        assert wc == [f.add(x, f.mul(lam, y)) for x, y in zip(wa, wb)]


# -- transform count ---------------------------------------------------------


@pytest.mark.parametrize("name", ["hermitian-q9", "hcrs-q9"])
def test_one_inverse_transform_per_encode_and_decode(monkeypatch, name):
    # Syndromes are evaluated on the defining set only, and the decoder
    # locates and solves its error array without a transform: a systematic
    # encode (the lengthened one too) makes exactly one full transform, an
    # inverse one, and a decode none, clean or at t errors.
    spec = codec.preset(name)
    calls = {"dft2": 0, "idft2": 0}
    for module in (codec, bms):
        for fname in calls:

            def counted(*args, _fn=getattr(module, fname), _name=fname):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(module, fname, counted)
    info = [v % 9 - 1 for v in range(spec.k)]
    word = codec.encode_systematic(spec, info)
    assert calls == {"dft2": 0, "idft2": 1}
    calls.update(dft2=0, idft2=0)
    assert codec.decode(spec, word) == (word, info)
    assert calls == {"dft2": 0, "idft2": 0}
    noisy = list(word)
    for pos in range(spec.t_capability):
        noisy[pos] = F9.add(noisy[pos], pos)
    assert codec.decode(spec, noisy) == (word, info)
    assert calls == {"dft2": 0, "idft2": 0}
    if spec.zero_points:
        calls.update(dft2=0, idft2=0)
        codec.encode_systematic(spec, info + [ONE] * len(spec.zero_points))
        assert calls == {"dft2": 0, "idft2": 1}


def test_tracer_span_points_resolve():
    # perfbench/tracer.py rebinds these module globals to time the layers;
    # a name the package stops binding would break every traced run.  The
    # table is read from the source, without running the benchmark code.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    tree = ast.parse(path.read_text())
    (table,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "SPAN_POINTS" for t in node.targets)
    ]
    points = ast.literal_eval(table)
    assert points
    modules = {"codec": codec, "bms": bms}
    for module, attr, _ in points:
        assert callable(getattr(modules[module], attr, None)), (module, attr)


# -- syndromes ---------------------------------------------------------------


def test_syndromes_single_error_closed_form(herm):
    word = [ZERO] * herm.n
    h = 7
    word[h] = 3
    p = herm.points[h]
    sv = codec.syndromes(herm, word)
    for (i, j), v in zip(herm.phi, sv):
        assert v == (3 + p.x * i + p.y * j) % 8


def _check_matrix_product(spec, word):
    # the oracle: the word times check_matrix(spec), one location at a time
    f = spec.field
    out = [ZERO] * len(spec.phi)
    for v, row in zip(word, codec.check_matrix(spec)):
        out = [f.add(acc, f.mul(v, e)) for acc, e in zip(out, row)]
    return out


def test_syndromes_match_check_matrix_all_families(herm, hcrs, rs4):
    rng = random.Random(6)
    for spec in (herm, hcrs, rs4):
        length = spec.n + len(spec.zero_points)
        for _ in range(100):
            # the lengthened word's tail holds the zero-point values
            word = [rng.randrange(-1, 8) for _ in range(length)]
            plain = word[: spec.n]
            assert codec.syndromes(spec, plain) == _check_matrix_product(spec, plain)
            assert codec.syndromes(spec, word) == _check_matrix_product(spec, word)


def _cab_code_with_partial_lines():
    # a code on a random C_ab curve over GF(16) with an x-line that holds
    # fewer than a points, an x-line with no point and a zero point
    rng = random.Random(35)
    f = field_new(2, 4, [1, 1, 0, 0, 1])
    while True:
        curve = _random_cab_curve(rng, f)
        try:
            spec = codec.make_curve_code(f, curve, rng.randrange(2 * curve.genus - 1, 3 * curve.b))
        except (NonGenericSupport, ValueError):  # rank deficient, or phi too large
            continue
        lines = Counter(p.x for p in spec.points).values()
        if len(lines) < f.q - 1 and min(lines) < curve.a and spec.zero_points:
            return spec


SYNDROME_CODES = {
    "hermitian-q16": lambda: _hermitian(2, 4, [1, 1, 0, 0, 1], 20),
    "hermitian-q25": lambda: _hermitian(5, 2, [2, 1, 1], 30),
    "hermitian-q64": lambda: _hermitian(2, 6, [1, 1, 0, 0, 0, 0, 1], 72),
    "hcrs-q16": lambda: codec.make_hcrs_code(field_new(2, 4, [1, 1, 0, 0, 1]), 12),
    "hcrs-q27": lambda: codec.make_hcrs_code(field_new(3, 3, [1, 2, 0, 1]), 20),
    "cab-q16-partial-lines": _cab_code_with_partial_lines,
}


@pytest.mark.parametrize("name", list(SYNDROME_CODES))
def test_syndromes_match_check_matrix_on_larger_fields(name):
    # plain and lengthened words; then the nonsystematic readout of a
    # codeword is dft2 of its point array at the carrier cells
    spec = SYNDROME_CODES[name]()
    f = spec.field
    rng = random.Random(36)
    length = spec.n + len(spec.zero_points)
    for _ in range(3):
        word = [rng.randrange(-1, f.q - 1) for _ in range(length)]
        plain = word[: spec.n]
        assert codec.syndromes(spec, plain) == _check_matrix_product(spec, plain)
        assert codec.syndromes(spec, word) == _check_matrix_product(spec, word)
    sent = codec.encode_systematic(spec, [rng.randrange(-1, f.q - 1) for _ in range(spec.k)])
    full = dft2(f, codec.point_array(spec, sent))
    _, info = codec.decode(spec, sent, mode="nonsystematic")
    assert info == [full[i][j] for i, j in spec.carrier_cells("nonsystematic")]


# -- decode ------------------------------------------------------------------


def test_decode_clean_roundtrip(herm, hcrs, rs4):
    rng = random.Random(7)
    for spec in (herm, hcrs, rs4):
        info = rand_info(rng, spec.k)
        word = codec.encode_systematic(spec, info)
        got, ginfo = codec.decode(spec, word)
        assert got == word
        assert ginfo == info


def test_systematic_equals_oracle_hcrs(hcrs):
    rng = random.Random(21)
    for _ in range(30):
        info = rand_info(rng, hcrs.k)
        assert codec.encode_systematic(hcrs, info) == codec.encode_matrix_oracle(
            hcrs, info
        )


def _minimum_distance(spec):
    """The least weight of a nonzero codeword, by brute force over every
    codeword whose first nonzero information symbol is 1 (every other
    nonzero codeword is a multiple of one of these)."""
    f = spec.field
    add_t, mul_t = f.add_table, f.mul_table
    rows = [
        codec.encode_matrix_oracle(spec, [ONE if i == k else ZERO for i in range(spec.k)])
        for k in range(spec.k)
    ]
    best = spec.n
    span = [[ZERO] * spec.n]  # every combination of the rows after the first
    for row in reversed(rows):
        for word in span:
            best = min(best, sum(add_t[r][v] != ZERO for r, v in zip(row, word)))
        if row is rows[0]:
            break
        span = [
            [add_t[v][mul_t[s][r]] for v, r in zip(word, row)]
            for word in span
            for s in range(-1, f.q - 1)
        ]
    return best


# every code of the two 2-D preset families with 1 <= k <= 5
SMALL_CODES = [
    ("hermitian-q9", m) for m in range(21, 29)
] + [("hcrs-q9", m) for m in range(49, 65)]


def test_t_capability_within_brute_force_minimum_distance():
    # t <= (d - 1) // 2, with d the true minimum distance: a word within t
    # of a codeword is within t of no other, so a refusal there is the
    # decoder's fault, not t's.  At hermitian-q9 m = 21, 23, 25, 27 the
    # bound is tight.
    distances = {}
    for name, m in SMALL_CODES:
        spec = codec.preset(name, m=m)
        assert 1 <= spec.k <= 5
        d = _minimum_distance(spec)
        assert spec.t_capability <= (d - 1) // 2, (name, m, d)
        distances[name, m] = d
    assert [distances["hermitian-q9", m] for m in (21, 23, 25, 27)] == [17, 20, 21, 24]


def test_decode_hermitian_all_weights(herm):
    rng = random.Random(22)
    for t in range(4):
        for _ in range(25):
            info = rand_info(rng, herm.k)
            word = codec.encode_systematic(herm, info)
            rx = add_errors(rng, F9, word, t)
            got, ginfo = codec.decode(herm, rx)
            assert got == word
            assert ginfo == info


def test_decode_hermitian_three_errors(herm):
    rng = random.Random(8)
    for _ in range(150):
        info = rand_info(rng, herm.k)
        word = codec.encode_systematic(herm, info)
        rx = add_errors(rng, F9, word, 3)
        got, ginfo = codec.decode(herm, rx)
        assert got == word
        assert ginfo == info


def test_decode_hcrs_four_errors(hcrs):
    rng = random.Random(9)
    for _ in range(100):
        info = rand_info(rng, hcrs.k)
        word = codec.encode_systematic(hcrs, info)
        rx = add_errors(rng, F9, word, 4)
        got, ginfo = codec.decode(hcrs, rx)
        assert got == word
        assert ginfo == info


def test_decode_structured_error_patterns(herm, hcrs):
    # worst-case shapes: all errors on one coordinate line / one grid row
    rng = random.Random(24)
    x_lines = {}
    for h, p in enumerate(herm.points):
        x_lines.setdefault(p.x, []).append(h)
    for line in list(x_lines.values())[:4]:
        info = rand_info(rng, herm.k)
        word = codec.encode_systematic(herm, info)
        rx = list(word)
        for h in line[:3]:
            rx[h] = F9.add(rx[h], rng.randrange(0, 8))
        got, _ = codec.decode(herm, rx)
        assert got == word

    for row in (0, 3, 7):
        info = rand_info(rng, hcrs.k)
        word = codec.encode_systematic(hcrs, info)
        rx = list(word)
        positions = [h for h, p in enumerate(hcrs.points) if p.x == row][:4]
        for h in positions:
            rx[h] = F9.add(rx[h], rng.randrange(0, 8))
        got, _ = codec.decode(hcrs, rx)
        assert got == word


def test_decode_nonsystematic_mode(herm):
    rng = random.Random(10)
    for _ in range(30):
        info = rand_info(rng, herm.k)
        word = codec.encode_nonsystematic(herm, info)
        rx = add_errors(rng, F9, word, 3)
        got, ginfo = codec.decode(herm, rx, mode="nonsystematic")
        assert got == word
        assert ginfo == info


def test_decode_never_returns_unparityed(herm):
    rng = random.Random(11)
    for _ in range(40):
        info = rand_info(rng, herm.k)
        word = codec.encode_systematic(herm, info)
        rx = add_errors(rng, F9, word, 5)
        try:
            got, _ = codec.decode(herm, rx)
        except DecodingFailure:
            continue
        sv = codec.syndromes(herm, got)
        assert all(v == ZERO for v in sv)


def test_decode_rejects_extended_words(herm):
    with pytest.raises(ExtendedDecodeUnsupported):
        codec.decode(herm, [ZERO] * 27)


def test_non_preset_parameters_roundtrip():
    # above m = 12 the weighted defining set skips off-strip cells of
    # equal weight; those gaps are filled by the curve recurrence
    from agcodes.geometry import hermitian_curve

    rng = random.Random(23)
    for spec, reps in (
        (codec.make_curve_code(F9, hermitian_curve(F9), 13), 5),
        (codec.make_hcrs_code(F9, 7), 5),
    ):
        for _ in range(reps):
            info = rand_info(rng, spec.k)
            word = codec.encode_systematic(spec, info)
            rx = add_errors(rng, F9, word, spec.t_capability)
            got, ginfo = codec.decode(spec, rx)
            assert got == word
            assert ginfo == info


def test_hermitian_gf49_scale_point():
    # Hermitian over GF(49) from x^2 + x + 3, m = 56: n 336, k 300, t 7,
    # with 7 zero-coordinate points.  Every encoder, decode at exactly t,
    # and the contract beyond it: a refusal or a codeword within t.
    from agcodes.geometry import hermitian_curve

    f = field_new(7, 2, [3, 1, 1])
    spec = codec.make_curve_code(f, hermitian_curve(f), 56)
    t = spec.t_capability
    assert (spec.n, spec.k, t) == (336, 300, 7)
    rng = random.Random(49)

    def corrupt(word, weight):
        out = list(word)
        for p in rng.sample(range(spec.n), weight):
            out[p] = f.add(out[p], rng.randrange(f.q - 1))
        return out

    for _ in range(3):
        info = [rng.randrange(-1, f.q - 1) for _ in range(spec.k)]
        word = codec.encode_systematic(spec, info)
        assert word == codec.encode_matrix_oracle(spec, info)
        plain = codec.encode_nonsystematic(spec, info)
        assert codec.decode(spec, plain, mode="nonsystematic") == (plain, info)
        assert codec.decode(spec, corrupt(word, t)) == (word, info)
    ext = info + [rng.randrange(-1, f.q - 1) for _ in spec.zero_points]
    lengthened = codec.encode_systematic(spec, ext)
    assert codec.syndromes(spec, lengthened) == [ZERO] * len(spec.phi)
    rx = corrupt(word, t + 1)
    try:
        got, _ = codec.decode(spec, rx)
    except DecodingFailure:
        return
    assert all(v == ZERO for v in codec.syndromes(spec, got))
    assert sum(a != b for a, b in zip(got, rx)) <= t


# -- zero-coordinate encoding ------------------------------------------------


def test_analogue_dft_quoted_rows(herm):
    a = codec.analogue_dft(herm, Point(ZERO, 2), 5)
    assert a[0] == [5, 7, 1, 3, 5, 7, 1, 3]
    assert all(v == ZERO for row in a[1:] for v in row)

    a = codec.analogue_dft(herm, Point(ZERO, 6), 2)
    assert a[0] == [2, 0, 6, 4, 2, 0, 6, 4]
    assert all(v == ZERO for row in a[1:] for v in row)

    a = codec.analogue_dft(herm, Point(ZERO, ZERO), 7)
    assert a[0][0] == 7
    assert sum(1 for row in a for v in row if v != ZERO) == 1


def test_analogue_dft_rejects_nonzero_point(herm):
    with pytest.raises(NotAZeroPoint):
        codec.analogue_dft(herm, Point(0, 4), 5)


def test_analogue_dft_rejects_a_point_off_the_zero_points(herm, hcrs, rs4):
    # (0, 1) is off the Hermitian curve; hcrs and rs have no zero points
    for spec, point in ((herm, Point(ZERO, 1)), (hcrs, Point(ZERO, 3)), (rs4, Point(ZERO, 3))):
        with pytest.raises(ValueError, match="not a zero point of this code"):
            codec.analogue_dft(spec, point, 2)


def test_2d_arrays_are_lists_of_rows(herm):
    # every 2-D array the package hands out is q-1 plain lists of q-1 logs
    f = herm.field
    rx = codec.encode_systematic(herm, rand_info(random.Random(8), herm.k))
    rx[3] = f.add(rx[3], 2)
    known = dict(zip(herm.phi, codec.syndromes(herm, rx)))
    err = bms.bms_with_voting(
        f, known, herm.t_capability, ambient=herm.basis_all, support=herm.point_cells()
    )
    arrays = {
        "extend": bms.extend({c: ZERO for c in herm.basis_all.delta}, herm.basis_all, f),
        "bms_with_voting": err,
        "idft2": transform.idft2(f, err),
        "point_array": codec.point_array(herm, rx),
        "analogue_dft": codec.analogue_dft(herm, herm.zero_points[0], 5),
    }
    for name, a in arrays.items():
        assert type(a) is list and len(a) == 8, name
        assert all(type(row) is list and len(row) == 8 for row in a), name
    assert [p for p in herm.points if err[p.x][p.y] != ZERO] == [herm.points[3]]


def test_extended_systematic_single_symbol(herm):
    nz = len(herm.zero_points)
    info = [ZERO] * (herm.k + nz)
    info[herm.k] = 7  # value alpha^7 at the (0, 0) zero point
    word = codec.encode_systematic(herm, info)
    assert len(word) == 27
    assert word[24] == 7
    h = codec.check_matrix(herm)
    for l in range(len(herm.phi)):
        acc = ZERO
        for pos in range(27):
            acc = F9.add(acc, F9.mul(word[pos], h[pos][l]))
        assert acc == ZERO


def test_extended_systematic_builds_no_check_matrix(herm, monkeypatch):
    def refuse(spec):
        raise AssertionError("check_matrix called")

    monkeypatch.setattr(codec, "check_matrix", refuse)
    info = rand_info(random.Random(13), herm.k + len(herm.zero_points))
    word = codec.encode_systematic(herm, info)
    assert codec.syndromes(herm, word) == [ZERO] * len(herm.phi)


def test_extended_systematic_random(herm):
    rng = random.Random(12)
    nz = len(herm.zero_points)
    h = codec.check_matrix(herm)
    info_idx = herm.info_positions()
    for _ in range(100):
        info = rand_info(rng, herm.k + nz)
        word = codec.encode_systematic(herm, info)
        # lengthened parity
        for l in range(len(herm.phi)):
            acc = ZERO
            for pos in range(27):
                acc = F9.add(acc, F9.mul(word[pos], h[pos][l]))
            assert acc == ZERO
        # systematic at information points and zero points
        assert [word[p] for p in info_idx] == info[: herm.k]
        assert word[24:] == info[herm.k :]


# -- RS operations -------------------------------------------------------------


def test_rs_gen_poly():
    assert codec.rs_gen_poly(F9, 1) == [4, 0]  # x - 1
    assert codec.rs_gen_poly(F9, 2) == [1, 3, 0]  # x^2 + alpha^3 x + alpha
    for r in range(1, 8):
        g = codec.rs_gen_poly(F9, r)
        assert g[-1] == 0  # monic
        for i in range(r):  # all designated roots
            acc = ZERO
            for d, c in enumerate(g):
                acc = F9.add(acc, F9.mul(c, (d * i) % 8))
            assert acc == ZERO
    with pytest.raises(BadRedundancy):
        codec.rs_gen_poly(F9, 0)
    with pytest.raises(BadRedundancy):
        codec.rs_gen_poly(F9, 8)


@pytest.mark.parametrize(
    "encode", [codec.rs_encode_euclid, codec.rs_encode_idft, codec.rs_encode_dh]
)
@pytest.mark.parametrize("r", [-1, 0, 8, 9])
def test_rs_encoders_reject_redundancy_out_of_range(encode, r):
    # the redundancy is checked before the info length it implies, so an
    # info of that length does not get past it either
    for length in (8 - r, 0):
        with pytest.raises(BadRedundancy, match=rf"need 1 <= r < 8, got {r}"):
            encode(F9, r, [ZERO] * max(length, 0))


def test_rs_encode_euclid_systematic_and_parity():
    rng = random.Random(13)
    for r in (2, 4, 6):
        for _ in range(50):
            info = rand_info(rng, 8 - r)
            word = codec.rs_encode_euclid(F9, r, info)
            assert word[r:] == info
            s = dft1(F9, word)
            assert all(v == ZERO for v in s[:r])
    assert codec.rs_encode_euclid(F9, 4, [ZERO] * 4) == [ZERO] * 8


def test_rs_encode_idft():
    rng = random.Random(14)
    r = 4
    # delta info at index r -> c_h = alpha^(-rh)
    info = [0, ZERO, ZERO, ZERO]
    word = codec.rs_encode_idft(F9, r, info)
    assert word == [(-r * h) % 8 for h in range(8)]
    for _ in range(50):
        info = rand_info(rng, 8 - r)
        word = codec.rs_encode_idft(F9, r, info)
        s = dft1(F9, word)
        assert all(v == ZERO for v in s[:r])
        # c(alpha^i) = -info_i for the information band
        for t, v in enumerate(info):
            assert s[r + t] == F9.neg(v)
    assert codec.rs_encode_idft(F9, r, [ZERO] * 4) == [ZERO] * 8


def test_rs_dh_equals_euclid():
    rng = random.Random(15)
    for r in (2, 4, 6):
        for _ in range(200):
            info = rand_info(rng, 8 - r)
            assert codec.rs_encode_dh(F9, r, info) == codec.rs_encode_euclid(
                F9, r, info
            )


def test_rs_dh_sequence_is_remainder_transform():
    # d_h = R(alpha^h) for every h, not only below the redundancy
    rng = random.Random(16)
    for r in (2, 4, 6):
        for _ in range(50):
            info = rand_info(rng, 8 - r)
            word = codec.rs_encode_euclid(F9, r, info)
            rem = [F9.neg(v) for v in word[:r]]  # R = I - c on low coeffs
            coeffs = [ZERO] * r + list(info)
            g = codec.rs_gen_poly(F9, r)
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
            for h in range(8):
                acc = ZERO
                for t, c in enumerate(rem):
                    acc = F9.add(acc, F9.mul(c, (t * h) % 8))
                assert d[h] == acc


def test_rs_matrix_oracle_agreement(rs4):
    rng = random.Random(17)
    for _ in range(100):
        info = rand_info(rng, rs4.k)
        assert codec.encode_matrix_oracle(rs4, info) == codec.rs_encode_euclid(
            F9, 4, info
        )


def test_rs_decode(rs4):
    rng = random.Random(18)
    for _ in range(200):
        info = rand_info(rng, rs4.k)
        word = codec.rs_encode_euclid(F9, 4, info)
        rx = add_errors(rng, F9, word, rng.randrange(0, 3))
        got, ginfo = codec.decode(rs4, rx)
        assert got == word
        assert ginfo == info


def test_rs_decode_nonsystematic(rs4):
    rng = random.Random(19)
    for _ in range(50):
        info = rand_info(rng, rs4.k)
        word = codec.rs_encode_idft(F9, 4, info)
        rx = add_errors(rng, F9, word, 2)
        got, ginfo = codec.decode(rs4, rx, mode="nonsystematic")
        assert got == word
        assert ginfo == info


def _rs_weight_check_oracle(spec, received):
    """The refusal an rs decode made before its error-weight check, or
    None: "locator degree" when Berlekamp-Massey's L exceeds t, "not
    cyclic" when the continuation of the syndromes by the locator fails
    to hold cyclically.  The decoder no longer makes either check, since
    an error of weight w <= t gives L <= w and a cyclic continuation."""
    f = spec.field
    n, r = f.q - 1, spec.r
    s = codec.syndromes(spec, received)
    cpoly, bpoly = {0: ONE}, {0: ONE}
    big_l, gap, bdisc = 0, 1, ONE
    for i in range(r):
        d = s[i]
        for j in range(1, big_l + 1):
            d = f.add(d, f.mul(cpoly.get(j, ZERO), s[i - j]))
        if d == ZERO:
            gap += 1
            continue
        updated = dict(cpoly)
        for j, bj in bpoly.items():
            updated[j + gap] = f.sub(updated.get(j + gap, ZERO), f.mul(f.div(d, bdisc), bj))
        if 2 * big_l <= i:
            bpoly, bdisc, gap, big_l = cpoly, d, 1, i + 1 - big_l
        else:
            gap += 1
        cpoly = updated
    if big_l > spec.t_capability:
        return "locator degree"
    taps = [cpoly.get(j, ZERO) for j in range(big_l + 1)]
    ext = list(s)
    for i in range(r, n):
        acc = ZERO
        for j in range(1, big_l + 1):
            acc = f.add(acc, f.mul(taps[j], ext[i - j]))
        ext.append(f.neg(acc))
    for i in range(n):
        acc = ZERO
        for j in range(big_l + 1):
            acc = f.add(acc, f.mul(taps[j], ext[(i - j) % n]))
        if acc != ZERO:
            return "not cyclic"
    return None


def test_rs_decode_refuses_where_the_dropped_checks_fired():
    # The locator-degree and cyclic checks are gone from the rs decoder:
    # every word either of them refused is still refused, by the
    # error-weight check.
    fired = {"locator degree": 0, "not cyclic": 0}
    for f, rs in ((F9, range(1, 8)), (field_new(2, 4, [1, 1, 0, 0, 1]), (2, 4, 6, 9))):
        for r in rs:
            spec = codec.make_rs_code(f, r)
            rng = random.Random(100 * f.q + r)
            for _ in range(20):
                sent = codec.encode_systematic(spec, rand_info_q(rng, f.q, spec.k))
                words = [rand_info_q(rng, f.q, spec.n)]
                for weight in range(min(r + 3, spec.n) + 1):
                    received = list(sent)
                    for pos in rng.sample(range(spec.n), weight):
                        received[pos] = f.add(received[pos], rng.randrange(f.q - 1))
                    words.append(received)
                for received in words:
                    reason = _rs_weight_check_oracle(spec, received)
                    if reason is None:
                        continue
                    fired[reason] += 1
                    with pytest.raises(DecodingFailure, match="error estimate exceeds"):
                        codec.decode(spec, received)
    assert all(fired.values()), fired


def test_rs_layout_and_nonsystematic_dispatch(rs4):
    # location h is the point (alpha^h, 1), and the parity sits on the
    # first r positions, as rs_encode_euclid places it
    assert rs4.points == tuple(Point(h, ONE) for h in range(8))
    assert rs4.wp == rs4.points[:4] and rs4.wp_prime == rs4.points[4:]
    assert rs4.parity_positions() == [0, 1, 2, 3]
    assert rs4.info_positions() == [4, 5, 6, 7]
    rng = random.Random(21)
    for _ in range(20):
        info = rand_info(rng, rs4.k)
        assert codec.encode_nonsystematic(rs4, info) == codec.rs_encode_idft(F9, 4, info)


def test_rs_has_no_information_array(rs4):
    # basis_all is None for rs, and its k information symbols sit on
    # positions, not cells
    for mode in ("systematic", "nonsystematic"):
        with pytest.raises(ValueError, match="rs has no 2-D information array"):
            rs4.carrier_cells(mode)


def test_carrier_cells(herm, hcrs):
    for spec in (herm, hcrs):
        assert spec.carrier_cells("systematic") == [(p.x, p.y) for p in spec.wp_prime]
        with pytest.raises(ValueError, match="unknown mode"):
            spec.carrier_cells("other")


@pytest.mark.parametrize(
    "name, kwargs, unused",
    [("rs-q9", {"m": 5}, "m"), ("hermitian-q9", {"r": 3}, "r"), ("hcrs-q9", {"r": 3}, "r")],
)
def test_preset_rejects_parameter_its_family_does_not_take(name, kwargs, unused):
    with pytest.raises(ValueError, match=f"not {unused}"):
        codec.preset(name, **kwargs)


def test_make_curve_code_enumerates_points_once(monkeypatch):
    calls = []
    real = codec.enumerate_points

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(codec, "enumerate_points", counted)
    spec = codec.preset("hermitian-q9")
    assert len(calls) == 1
    assert len(spec.points) == 24 and len(spec.zero_points) == 3


def test_encode_systematic_checks_full_support(herm, monkeypatch):
    # the redundancy array must vanish off the redundant points, also at
    # cells that are no code point at all (not only at information points)
    off_i, off_j = next(
        (i, j) for i in range(8) for j in range(8) if (i, j) not in herm.point_cells()
    )
    real = codec.idft2

    def stray(f, arr):
        out = real(f, arr)
        out[off_i][off_j] = 0
        return out

    info = [ZERO] * herm.k
    monkeypatch.setattr(codec, "idft2", stray)
    with pytest.raises(AssertionError, match="off the redundant points"):
        codec.encode_systematic(herm, info)
    with pytest.raises(AssertionError, match="off the redundant points"):
        codec.encode_systematic(herm, info + [ZERO] * 3)


# -- persistence ---------------------------------------------------------------


def test_spec_save_load_roundtrip(tmp_path, herm, hcrs, rs4):
    rng = random.Random(20)
    for spec in (herm, hcrs, rs4, _hermitian(2, 4, [1, 1, 0, 0, 1], 20)):
        path = str(tmp_path / f"{spec.kind}.spec")
        codec.save_spec(spec, path)
        again = codec.load_spec(path)
        # equal by value: a fresh field and fresh basis polynomials
        assert again.field is not spec.field
        assert again == spec and hash(again) == hash(spec)
        assert (again.n, again.k, again.kind) == (spec.n, spec.k, spec.kind)
        assert again.points == spec.points
        assert again.wp == spec.wp
        info = rand_info(rng, spec.k)
        assert codec.encode_systematic(again, info) == codec.encode_systematic(
            spec, info
        )


@pytest.mark.parametrize(
    ("build", "digest"),
    [
        (
            lambda: _hermitian(2, 4, [1, 1, 0, 0, 1], 20),
            "edd0975b819d18c3c11796311b65084e5ad3e796c21b463c711c1cb0523ce26c",
        ),
        (
            lambda: codec.make_hcrs_code(field_new(2, 4, [1, 1, 0, 0, 1]), 12),
            "245e7566b4fad4b69e05d10a551c06f0366ffaf20229d466080698c76611b8fe",
        ),
        (
            lambda: _hermitian(5, 2, [2, 1, 1], 30),
            "97ec893b324db96e3e71d43c12c0368e6e042a69481aa3669e44bf6fa6291388",
        ),
    ],
    ids=["hermitian-q16", "hcrs-q16", "hermitian-q25"],
)
def test_scale_spec_files_pinned(tmp_path, build, digest):
    # the larger-field codes the benchmark builds: their redundant points,
    # both bases and every other line of the spec file stay byte-identical
    path = tmp_path / "code.spec"
    codec.save_spec(build(), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_curve_spec_without_zero_points_rejected(tmp_path, herm):
    # the zero points belong to every curve code, so the file must list them
    path = tmp_path / "h.spec"
    codec.save_spec(herm, str(path))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(ln for ln in lines if not ln.startswith("zero_points")) + "\n")
    with pytest.raises(ValueError, match="missing key 'zero_points'"):
        codec.load_spec(str(path))


@pytest.mark.parametrize("name", codec.PRESETS)
@pytest.mark.parametrize("bad", [99, -5, 1.5], ids=["99", "-5", "1.5"])
def test_decode_rejects_non_element_symbols(name, bad):
    spec = codec.preset(name)
    with pytest.raises(ValueError, match="element log"):
        codec.decode(spec, [bad] * spec.n)
    # the public helpers validate their symbols the same way
    with pytest.raises(ValueError, match="element log"):
        codec.syndromes(spec, [bad] * spec.n)
    with pytest.raises(ValueError, match="element log"):
        codec.syndromes(spec, [bad] * (spec.n + len(spec.zero_points)))
    for zp in spec.zero_points:
        with pytest.raises(ValueError, match="element log"):
            codec.analogue_dft(spec, zp, bad)


@pytest.mark.parametrize("name", codec.PRESETS)
def test_syndromes_reject_wrong_length(name):
    # a word is the n point values, optionally followed by the zero-point
    # values; any other length is refused, rs included
    spec = codec.preset(name)
    n, full = spec.n, spec.n + len(spec.zero_points)
    for length in (n, full):
        assert codec.syndromes(spec, [ZERO] * length) == [ZERO] * len(spec.phi)
    for length in sorted({3, n - 1, n + 1, full - 1, full + 1} - {n, full}):
        with pytest.raises(ValueError, match="length"):
            codec.syndromes(spec, [ZERO] * length)


@pytest.mark.parametrize("name", codec.PRESETS)
def test_decode_rejects_unknown_mode_before_decoding(name):
    # a word beyond t, which a known mode refuses
    spec = codec.preset(name)
    rng = random.Random(1)
    sent = codec.encode_systematic(spec, rand_info(rng, spec.k))
    received = add_errors(rng, spec.field, sent, spec.t_capability + 2)
    with pytest.raises(DecodingFailure):
        codec.decode(spec, received)
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        codec.decode(spec, received, mode="bogus")


@pytest.mark.parametrize("name", codec.PRESETS)
def test_encoders_reject_out_of_range_info(name):
    spec = codec.preset(name)
    f = spec.field
    encoders = [codec.encode_systematic, codec.encode_matrix_oracle]
    if spec.kind == "rs":
        encoders += [
            lambda s, i: codec.rs_encode_euclid(s.field, s.r, i),
            lambda s, i: codec.rs_encode_idft(s.field, s.r, i),
            lambda s, i: codec.rs_encode_dh(s.field, s.r, i),
        ]
    else:
        encoders.append(codec.encode_nonsystematic)
    for bad in (f.q - 1, -2, 0.0):
        for encode in encoders:
            info = [ZERO] * spec.k  # as many nonsystematic carriers as k
            info[-1] = bad
            with pytest.raises(ValueError, match="element log"):
                encode(spec, info)
    if spec.zero_points:
        info = [ZERO] * (spec.k + len(spec.zero_points))
        info[-1] = f.q - 1  # a zero-point symbol
        with pytest.raises(ValueError, match="element log"):
            codec.encode_systematic(spec, info)


def test_encode_systematic_takes_the_plain_and_the_lengthened_layout(herm, hcrs, rs4):
    # k symbols give a plain word, k + |zero_points| a lengthened one, in
    # the wording of syndromes(); hcrs and rs have no zero points
    plain = codec.encode_systematic(herm, [ZERO] * 15)
    lengthened = codec.encode_systematic(herm, [ZERO] * 15 + [3, 5, 7])
    assert plain == [ZERO] * 24
    assert len(lengthened) == 27 and lengthened[24:] == [3, 5, 7]
    assert codec.syndromes(herm, lengthened) == [ZERO] * len(herm.phi)
    for length in (14, 16, 19):
        with pytest.raises(ValueError, match=r"^info must have length 15 or 18$"):
            codec.encode_systematic(herm, [ZERO] * length)
    for spec in (hcrs, rs4):
        with pytest.raises(ValueError, match=rf"^info must have length {spec.k}$"):
            codec.encode_systematic(spec, [ZERO] * (spec.k + 1))
    # a bad zero-point symbol is named before a bad length
    with pytest.raises(ValueError, match=r"^info symbol 8 is not an element log"):
        codec.encode_systematic(herm, [ZERO] * 16 + [8])


# -- pinned outputs ------------------------------------------------------------


def _pinned_lines(spec, rng, words):
    """Codewords of every encoder, and for each received word at weights
    0..t+2 the decode result or failure message in both modes (the stats
    dict is left out: it describes how a decode got there, not what it
    returned)."""
    f = spec.field
    nz = len(spec.zero_points)
    for _ in range(words):
        info = rand_info(rng, spec.k)
        sent = codec.encode_systematic(spec, info)
        if spec.kind == "rs":
            other = codec.rs_encode_idft(f, spec.r, info)
        else:
            cells = spec.carrier_cells("nonsystematic")
            other = codec.encode_nonsystematic(spec, rand_info(rng, len(cells)))
        yield f"sys {sent} non {other}"
        if nz:
            info_ext = info + rand_info(rng, nz)
            yield f"ext {codec.encode_systematic(spec, info_ext)}"
        for weight in range(spec.t_capability + 3):
            received = add_errors(rng, f, sent, weight)
            for mode in ("systematic", "nonsystematic"):
                try:
                    out = codec.decode(spec, received, mode)
                except DecodingFailure as e:
                    out = f"DecodingFailure: {e}"
                yield f"{weight} {mode} {received} {out}"


# (first seed, [(build, words)]) per digest: the presets at their default
# m, and the bigger codes, each with a larger t than the presets: the
# benchmark's three scale codes, hermitian-q9 at m = 21 and hcrs-q9 at
# m = 40
_PINNED_CODES = {
    "presets": (8100, [(functools.partial(codec.preset, name), 40) for name in codec.PRESETS]),
    "bigger": (
        8200,
        [
            (lambda: _hermitian(2, 4, [1, 1, 0, 0, 1], 20), 12),
            (lambda: codec.make_hcrs_code(field_new(2, 4, [1, 1, 0, 0, 1]), 12), 12),
            (lambda: _hermitian(5, 2, [2, 1, 1], 30), 12),
            (lambda: codec.preset("hermitian-q9", m=21), 12),
            (lambda: codec.preset("hcrs-q9", m=40), 6),
        ],
    ),
}


@functools.lru_cache(maxsize=None)
def _pinned_digests(codes: str = "presets") -> tuple[str, str]:
    """(successes, refusals): the digest of the codeword and decode-result
    lines, and the digest of the DecodingFailure lines."""
    successes, refusals = hashlib.sha256(), hashlib.sha256()
    first, builds = _PINNED_CODES[codes]
    for seed, (build, words) in enumerate(builds, start=first):
        for line in _pinned_lines(build(), random.Random(seed), words):
            h = refusals if " DecodingFailure: " in line else successes
            h.update(line.encode() + b"\n")
    return successes.hexdigest(), refusals.hexdigest()


def test_outputs_pinned():
    # A digest of fixed-seed encoder outputs and successful decodes on the
    # presets.  A change that is meant to keep every output byte-identical
    # keeps this digest; a change that moves it says why.
    assert _pinned_digests()[0] == (
        "0fb82451ba12ac6d64a6ce42f0cdc8f5523380c900c370dfd12b2d68681bec0f"
    )


def test_refusals_pinned():
    # The failure messages of the same fixed-seed decodes, pinned apart
    # from the successes so that a reworded refusal moves this digest only.
    assert _pinned_digests()[1] == (
        "0d469b041fb48d946b969113779a82b4249290d2e36383639a73a9d6487c2295"
    )


def test_bigger_code_outputs_pinned():
    # The successes of the same fixed-seed run on the bigger codes; the
    # refusals are pinned apart, as for the presets.
    assert _pinned_digests("bigger")[0] == (
        "900d96151d57e93e81990d2e8b8ce43528ced1ddba4d0b10e0c557661530fa5c"
    )


def test_bigger_code_refusals_pinned():
    assert _pinned_digests("bigger")[1] == (
        "e177f6b0038459793efbae1412425d6b1d133b2bc23066a535c6fdecab3f7159"
    )
