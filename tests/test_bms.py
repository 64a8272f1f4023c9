import random
import re
from collections import Counter
from functools import partial
from typing import Iterable

import pytest

from agcodes import bms as bms_module
from agcodes.bms import (
    BivariatePoly,
    GroebnerBasis,
    SakataState,
    _Echelon,
    _enumeration,
    _fill_by_recurrences,
    _leq,
    _solved_rules,
    bms_with_voting,
    extend,
    grid_cells,
    vanishing_ideal_basis,
)
from agcodes import codec
from agcodes.errors import (
    DecodingFailure,
    IncompleteCover,
    InconsistentKnownValues,
    ZeroCoordinatePoint,
)
from agcodes.galois import ONE, ZERO, Elt, Field, field_new, gf9
from agcodes.geometry import (
    Cell,
    Point,
    WeightedCurveOrder,
    curve_spec,
    defining_set,
    enumerate_points,
    hermitian_curve,
    minimal_outside,
)
from agcodes.transform import Array2D, dft2, idft2
from oracles import bms, sakata_basis, synthesis_basis, synthesize_full

F9 = gf9()
WORDER = WeightedCurveOrder(3, 4)
HERM_POINTS = enumerate_points(hermitian_curve(F9), F9)
STRIP = [(i, j) for i in range(8) for j in range(3)]


def all_cells():
    return [(i, j) for i in range(8) for j in range(8)]


def values_of(arr, cells):
    return {c: arr[c] for c in cells}


# Independent oracle: Buchberger-Moeller directly on point-evaluation
# vectors (no DFT, no shift functionals).
def bm_moeller_oracle(points, order, f):
    cands = sorted(((i, j) for i in range(9) for j in range(9)), key=order.key)
    rows = []  # (vector, pivot, combo)
    lts, delta, basis = [], [], []
    for t in cands:
        if any(L[0] <= t[0] and L[1] <= t[1] for L in lts):
            continue
        vec = [f.mul(f.pow(p.x, t[0]), f.pow(p.y, t[1])) for p in points]
        combo = {t: ONE}
        for rvec, ridx, rcombo in rows:
            cc = vec[ridx]
            if cc == ZERO:
                continue
            fac = f.div(cc, rvec[ridx])
            vec = [f.sub(a, f.mul(fac, b)) for a, b in zip(vec, rvec)]
            for s, rc in rcombo.items():
                combo[s] = f.sub(combo.get(s, ZERO), f.mul(fac, rc))
        piv = next((k for k, v in enumerate(vec) if v != ZERO), None)
        if piv is None:
            basis.append({s: c for s, c in combo.items() if c != ZERO})
            lts.append(t)
        else:
            rows.append((vec, piv, combo))
            delta.append(t)
    return basis, delta


def test_echelon_relations_and_rank():
    rng = random.Random(4)
    echelon = _Echelon(F9)
    vecs = {}
    relations = 0
    for label in range(12):
        if label % 3 == 2:  # dependent by construction
            c = rng.randrange(8)
            pairs = zip(vecs[label - 1], vecs[label - 2])
            vec = [F9.add(a, F9.mul(c, b)) for a, b in pairs]
        else:
            vec = [rng.randrange(-1, 8) for _ in range(6)]
        vecs[label] = vec
        relation = echelon.add(list(vec), label)
        if relation is None:
            continue
        relations += 1
        assert relation[label] == ONE
        for k in range(6):
            acc = ZERO
            for other, c in relation.items():
                acc = F9.add(acc, F9.mul(c, vecs[other][k]))
            assert acc == ZERO
    assert relations >= 4
    assert len(echelon.rows) + relations == 12
    assert len(echelon.rows) == 6


def test_vanishing_basis_hermitian_exact():
    basis = vanishing_ideal_basis(HERM_POINTS, WORDER, F9)
    coeff_sets = sorted(tuple(sorted(p.coeffs.items())) for p in basis.elements)
    # x^8 - 1  and  y^3 + y - x^4  (coefficient logs; -1 = alpha^4)
    assert coeff_sets == [
        (((0, 0), 4), ((8, 0), 0)),
        (((0, 1), 0), ((0, 3), 0), ((4, 0), 4)),
    ]
    assert set(basis.delta) == set(STRIP)
    assert len(basis.delta) == 24


F16 = field_new(2, 4, [1, 1, 0, 0, 1])
F25 = field_new(5, 2, [2, 1, 1])
# (field, order, points): the Hermitian points over GF(9), the hcrs grid
# over GF(16) under the graded order and the Hermitian points over GF(25)
ORACLE_POINT_SETS = [
    (F9, WORDER, HERM_POINTS),
    (F16, WeightedCurveOrder(1, 1), [Point(x, y) for x in range(15) for y in range(15)]),
    (F25, WeightedCurveOrder(5, 6), enumerate_points(hermitian_curve(F25), F25)),
]


def test_vanishing_basis_matches_independent_oracle():
    # the monomial scan equals the full-array synthesis, element by element
    # and delta by delta, on random subsets and on the full point sets,
    # whose bases are led at (q-1, 0); on GF(9) it also equals a
    # Buchberger-Moeller elimination written with field powers
    rng = random.Random(3)
    for f, order, points in ORACLE_POINT_SETS:
        for size in (1, 2, 3, 5, 9, 16, 24, len(points) // 2, len(points)):
            pts = rng.sample(points, size)
            basis = vanishing_ideal_basis(pts, order, f)
            oracle = synthesis_basis(pts, order, f)
            assert basis.serialize() == oracle.serialize(), (f.q, size)
            assert basis.delta == oracle.delta, (f.q, size)
            if f is F9:
                oracle_basis, oracle_delta = bm_moeller_oracle(pts, order, f)
                assert list(basis.delta) == oracle_delta
                got = sorted(tuple(sorted(p.coeffs.items())) for p in basis.elements)
                want = sorted(tuple(sorted(b.items())) for b in oracle_basis)
                assert got == want
        assert (f.q - 1, 0) in [g.lt for g in basis.elements]
        # no points: the ideal is everything, with basis {1}
        empty = vanishing_ideal_basis([], order, f)
        assert empty.serialize() == synthesis_basis([], order, f).serialize()
        assert [g.coeffs for g in empty.elements] == [{(0, 0): ONE}]
        assert empty.delta == ()


def test_vanishing_basis_single_point():
    basis = vanishing_ideal_basis([Point(0, 0)], WORDER, F9)
    coeff_sets = sorted(tuple(sorted(p.coeffs.items())) for p in basis.elements)
    # x - 1 and y - 1 (in logs: -1 = alpha^4)
    assert coeff_sets == [(((0, 0), 4), ((0, 1), 0)), (((0, 0), 4), ((1, 0), 0))]
    assert basis.delta == ((0, 0),)


def test_vanishing_basis_properties():
    rng = random.Random(11)
    for size in range(1, 25):  # every size once, random subsets
        pts = rng.sample(HERM_POINTS, size)
        basis = vanishing_ideal_basis(pts, WORDER, F9)
        assert len(basis.delta) == size
        for poly in basis.elements:
            for p in pts:
                assert poly.evaluate(F9, p.x, p.y) == ZERO


def test_vanishing_basis_rejects_zero_coordinates():
    with pytest.raises(ZeroCoordinatePoint):
        vanishing_ideal_basis([Point(ZERO, 2)], WORDER, F9)


def test_bms_full_array_single_error():
    e = Array2D.zeros(9)
    e[(3, 5)] = 0  # value alpha^0 at point (alpha^3, alpha^5)
    u = dft2(F9, e)
    basis = bms(F9, values_of(u, all_cells()), WORDER)
    assert basis.delta == ((0, 0),)
    for poly in basis.elements:
        assert poly.evaluate(F9, 3, 5) == ZERO
    lts = sorted(p.lt for p in basis.elements)
    assert lts == [(0, 1), (1, 0)]
    with pytest.raises(ValueError, match="every grid cell"):
        bms(F9, values_of(u, grid_cells(9, WORDER)[:10]), WORDER)


def test_bms_empty_and_constant_prefixes():
    arr = Array2D.zeros(9)
    basis = sakata_basis(SakataState(F9, WORDER))
    assert basis.delta == ()
    # all-zero full array: no failures, trivial ideal (basis contains 1)
    basis = bms(F9, values_of(arr, all_cells()), WORDER)
    assert basis.delta == ()
    assert any(p.lt == (0, 0) for p in basis.elements)
    # single known nonzero value must not crash
    state = SakataState(F9, WORDER)
    state.process((0, 0), 5)
    assert (0, 0) in sakata_basis(state).delta


def test_bms_prefix_requires_enumeration_prefix():
    arr = Array2D.zeros(9)
    with pytest.raises(ValueError):
        bms(F9, values_of(arr, [(5, 5)]), WORDER)


def test_bms_three_error_prefix_locators():
    # a fixed 3-error pattern whose syndromes on the weight-11 prefix
    # already determine the locator ideal (not every pattern does; the
    # decoder's voting stage exists for the rest)
    err_pts = [HERM_POINTS[2], HERM_POINTS[22], HERM_POINTS[17]]
    e = Array2D.zeros(9)
    for v, p in zip((6, 4, 3), err_pts):
        e[(p.x, p.y)] = v
    u = dft2(F9, e)
    phi = defining_set(WORDER, 11, F9)
    prefix = grid_cells(9, WORDER)[: len(phi)]
    assert set(prefix) == set(phi)
    state = SakataState(F9, WORDER)
    for c in prefix:
        state.process(c, u[c])
    basis = sakata_basis(state)
    assert len(basis.delta) == 3
    for poly in basis.elements:
        for p in err_pts:
            assert poly.evaluate(F9, p.x, p.y) == ZERO


def test_bms_determinism():
    rng = random.Random(17)
    pts = rng.sample(HERM_POINTS, 7)
    b1 = vanishing_ideal_basis(pts, WORDER, F9)
    b2 = vanishing_ideal_basis(pts, WORDER, F9)
    assert b1.serialize() == b2.serialize()


def parse_basis(text: str, order: WeightedCurveOrder) -> GroebnerBasis:
    """Inverse of GroebnerBasis.serialize (delta recomputed from LTs)."""
    polys: list[BivariatePoly] = []
    cur: dict[Cell, Elt] | None = None
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("basis"):
            continue
        if line == "poly":
            if cur:
                polys.append(BivariatePoly(cur, order))
            cur = {}
            continue
        i, j, c = line.split()
        assert cur is not None
        cur[(int(i), int(j))] = int(c)
    if cur:
        polys.append(BivariatePoly(cur, order))
    lts = [p.lt for p in polys]
    bound = max(max(t) for t in lts)
    delta = [
        (i, j)
        for i in range(bound + 1)
        for j in range(bound + 1)
        if not any(t[0] <= i and t[1] <= j for t in lts)
    ]
    delta.sort(key=order.key)
    return GroebnerBasis(tuple(polys), tuple(delta), order)


def test_basis_serialization_roundtrip():
    basis = vanishing_ideal_basis(HERM_POINTS[:9], WORDER, F9)
    text = basis.serialize()
    again = parse_basis(text, WORDER)
    assert again.serialize() == text
    assert set(again.delta) == set(basis.delta)


# -- extend -----------------------------------------------------------------


@pytest.fixture(scope="module")
def basis_all():
    return vanishing_ideal_basis(HERM_POINTS, WORDER, F9)


def test_extend_all_zero(basis_all):
    out = extend({c: ZERO for c in STRIP}, basis_all, F9)
    assert out == Array2D.zeros(9)


def test_extend_hermitian_recurrence_identity(basis_all):
    rng = random.Random(23)
    vals = {c: rng.randrange(-1, 8) for c in STRIP}
    arr = extend(vals, basis_all, F9)
    # cells with j >= 3 satisfy u[i][j] = u[(i+4) mod 8][j-3] - u[i][j-2]
    for i in range(8):
        for j in range(3, 8):
            want = F9.sub(arr[((i + 4) % 8, j - 3)], arr[(i, j - 2)])
            assert arr[(i, j)] == want
    for c in STRIP:
        assert arr[c] == vals[c]


def test_extend_schedule_independence(basis_all):
    rng = random.Random(29)
    for _ in range(100):
        vals = {c: rng.randrange(-1, 8) for c in STRIP}
        assert extend(vals, basis_all, F9) == extend(vals, basis_all, F9, "rowmajor")


def test_extend_idempotent(basis_all):
    rng = random.Random(31)
    vals = {c: rng.randrange(-1, 8) for c in STRIP}
    arr = extend(vals, basis_all, F9)
    again = extend(values_of(arr, all_cells()), basis_all, F9)
    assert again == arr


def test_extend_incomplete_cover():
    # only the curve polynomial: row cells j < 3 are unreachable
    full = vanishing_ideal_basis(HERM_POINTS, WORDER, F9)
    curve_only = GroebnerBasis(
        tuple(p for p in full.elements if p.lt == (0, 3)), full.delta, WORDER
    )
    with pytest.raises(IncompleteCover):
        extend({(0, 0): 3}, curve_only, F9)


def test_extend_inconsistent_known_values(basis_all):
    rng = random.Random(37)
    vals = {c: rng.randrange(-1, 8) for c in STRIP}
    arr = extend(vals, basis_all, F9)
    bad = arr.copy()
    bad[(0, 5)] = F9.add(bad[(0, 5)], 0)  # plus 1: breaks the recurrences
    with pytest.raises(InconsistentKnownValues):
        extend(values_of(bad, all_cells()), basis_all, F9)


# Independent oracle for extend: every recurrence checked at every
# cyclic shift of a full grid.
def _verify_recurrences(
    f: Field,
    q: int,
    grid: list[list[Elt]],
    elems: Iterable[tuple[Cell, dict[Cell, Elt]]],
) -> bool:
    """True when every recurrence holds at every cyclic shift of the grid."""
    n = q - 1
    add_t, mul_t = f.add_table, f.mul_table
    # rows repeated twice, and the grid too, so no index needs a modulo
    wrapped = [row * 2 for row in grid] * 2
    for lt, coeffs in elems:
        terms = [(s0 % n, s1 % n, mul_t[cf]) for (s0, s1), cf in coeffs.items()]
        for d0 in range(n):
            rows = [(wrapped[s0 + d0], s1, mc) for s0, s1, mc in terms]
            for d1 in range(n):
                acc = ZERO
                for row, s1, mc in rows:
                    acc = add_t[acc][mc[row[s1 + d1]]]
                if acc != ZERO:
                    return False
    return True


@pytest.mark.parametrize("ideal", ["basis_all", "basis_wp"])
@pytest.mark.parametrize("name", ["hermitian-q9", "hcrs-q9", "hermitian-q16"])
def test_extend_agrees_with_cyclic_oracle(name, ideal):
    # extend reads only the staircase cells and compares the others with
    # the fill; the oracle re-checks every recurrence at every shift.
    spec = _hermitian_q16() if name == "hermitian-q16" else codec.preset(name)
    f, basis = spec.field, getattr(spec, ideal)
    n = f.q - 1
    elems = [(p.lt, p.coeffs) for p in basis.elements]
    cells = [(i, j) for i in range(n) for j in range(n)]
    rng = random.Random(f"{name}-{ideal}")
    delta = list(basis.delta)
    outside = sorted(set(cells) - set(delta))
    for _ in range(4):
        vals = {c: rng.randrange(-1, n) for c in delta}
        arr = extend(vals, basis, f)
        assert _verify_recurrences(f, f.q, arr.data, elems)
        assert all(arr[c] == v for c, v in vals.items())
        assert extend(values_of(arr, cells), basis, f) == arr
        if outside:  # hcrs-q9 has a point on every cell: delta is the grid
            bad = arr.copy()
            c = rng.choice(outside)
            bad[c] = f.add(bad[c], rng.randrange(0, n))
            assert not _verify_recurrences(f, f.q, bad.data, elems)
            with pytest.raises(InconsistentKnownValues):
                extend(values_of(bad, cells), basis, f)
        del vals[rng.choice(delta)]
        with pytest.raises(IncompleteCover):
            extend(vals, basis, f)


# -- voting ------------------------------------------------------------------


def _syndromes_of(err_cells, phi):
    e = Array2D.zeros(9)
    for cell, v in err_cells.items():
        e[cell] = v
    u = dft2(F9, e)
    return u, values_of(u, phi)


def _locator(err, order):
    """The locator basis: the vanishing ideal of the error array's support."""
    support = [Point(i, j) for i in range(8) for j in range(8) if err[(i, j)] != ZERO]
    return vanishing_ideal_basis(support, order, F9)


def test_voting_zero_syndromes(basis_all):
    phi = defining_set(WORDER, 11, F9)
    _, pa = _syndromes_of({}, phi)
    err = bms_with_voting(
        F9, pa, WORDER, 3, ambient=basis_all, support={(p.x, p.y) for p in HERM_POINTS}
    )
    assert err == Array2D.zeros(9)
    assert _locator(err, WORDER).delta == ()


def test_voting_single_error_closed_form(basis_all):
    phi = defining_set(WORDER, 11, F9)
    p = HERM_POINTS[5]
    u, pa = _syndromes_of({(p.x, p.y): 3}, phi)
    support = {(pt.x, pt.y) for pt in HERM_POINTS}
    err = bms_with_voting(F9, pa, WORDER, 3, ambient=basis_all, support=support)
    ext = dft2(F9, err)
    assert ext == u  # full array equals alpha^3 * dft2(point indicator)
    assert [(c, err[c]) for c in all_cells() if err[c] != ZERO] == [((p.x, p.y), 3)]
    assert len(_locator(err, WORDER).delta) == 1
    for i in range(8):
        for j in range(8):
            assert ext[(i, j)] == (3 + p.x * i + p.y * j) % 8


def test_voting_three_errors_matches_truth(basis_all):
    rng = random.Random(41)
    phi = defining_set(WORDER, 11, F9)
    support = {(pt.x, pt.y) for pt in HERM_POINTS}
    for _ in range(50):
        pts = rng.sample(HERM_POINTS, 3)
        errs = {(p.x, p.y): rng.randrange(0, 8) for p in pts}
        u, pa = _syndromes_of(errs, phi)
        err = bms_with_voting(F9, pa, WORDER, 3, ambient=basis_all, support=support)
        assert dft2(F9, err) == u
        assert {c: err[c] for c in all_cells() if err[c] != ZERO} == errs
        for poly in _locator(err, WORDER).elements:
            for p in pts:
                assert poly.evaluate(F9, p.x, p.y) == ZERO


def test_voting_prefix_validation(basis_all):
    arr = Array2D.zeros(9)
    support = {(p.x, p.y) for p in HERM_POINTS}
    # a lone far cell, and the hermitian defining set with a hole at (1, 0)
    holed = [c for c in defining_set(WORDER, 11, F9) if c != (1, 0)]
    for cells in ([(7, 7)], holed):
        with pytest.raises(ValueError, match="lower set"):
            bms_with_voting(
                F9, values_of(arr, cells), WORDER, 3, ambient=basis_all, support=support
            )


def test_hcrs_defining_set_passes_the_cover_check():
    # hcrs-q9's defining set is a lower set, though no prefix of the graded
    # order it is decoded in: (2, 2) of degree 4 lies outside it, (7, 0) in it
    spec = codec.preset("hcrs-q9")
    assert spec.order == WeightedCurveOrder(1, 1)
    assert (2, 2) not in spec.phi and (7, 0) in spec.phi
    known = {c: ZERO for c in spec.phi}
    err = bms_with_voting(
        F9, known, spec.order, spec.t_capability,
        ambient=spec.basis_all, support=spec.point_cells(),
    )
    assert err == Array2D.zeros(9)


@pytest.mark.parametrize(
    "order", [WORDER, WeightedCurveOrder(1, 1)], ids=["weighted", "graded"]
)
def test_sakata_validity_invariant_weighted_order(order):
    # For a translation-invariant order, every minimal polynomial must
    # pass every computable test at the cells processed so far, be monic
    # at its leading cell, and lead at a corner of the staircase.  The
    # failure records stay at their span frontier: the spans are pairwise
    # incomparable, one record per span.
    rng = random.Random(43)
    cells = grid_cells(9, order)
    for _ in range(50):
        state = SakataState(F9, order)
        for c in cells[:20]:
            state.process(c, rng.randrange(-1, 8))
            spans = [r.span for r in state.G]
            for k, s in enumerate(spans):
                assert not any(_leq(s, o) for o in spans[:k] + spans[k + 1 :]), spans
            corners = sorted(minimal_outside(state.delta, 8), key=order.key)
            assert [lt for lt, _ in state.F] == corners
            for lt, co in state.F:
                assert co[lt] == ONE
                assert all(order.key(s) < order.key(lt) for s in co if s != lt)
                for w in all_cells():
                    if state.grid[w[0]][w[1]] is None or not _leq(lt, w):
                        continue
                    d = state._test(lt, co, w)
                    assert d is None or d == ZERO, (lt, w)


def _hermitian_q16():
    f = field_new(2, 4, [1, 1, 0, 0, 1])
    return codec.make_curve_code(f, hermitian_curve(f), 20)


# a larger m per 2-D preset, where tests read cells past the grid within t
LARGER_M = {"hermitian-q9": 21, "hcrs-q9": 16}


@pytest.mark.parametrize("name", [*codec.PRESETS, "hermitian-q16"])
def test_sakata_never_skips_a_test_within_radius(monkeypatch, name):
    # The decoder processes an order prefix of N^2, so every cell a test
    # reads has already been processed and no test is ever skipped.
    specs = [_hermitian_q16() if name == "hermitian-q16" else codec.preset(name)]
    if name in LARGER_M:
        specs.append(codec.preset(name, m=LARGER_M[name]))
    test, process = SakataState._test, SakataState.process
    processed = set()
    past_grid = Counter()

    def checked_test(self, lt, coeffs, w):
        reads = {(s0 + w[0] - lt[0], s1 + w[1] - lt[1]) for s0, s1 in coeffs}
        assert reads <= processed, (lt, w, reads - processed)
        past_grid["reads"] += any(max(c) >= self.n for c in reads)
        return test(self, lt, coeffs, w)

    def recording(self, c, value):
        processed.add(c)
        process(self, c, value)

    monkeypatch.setattr(SakataState, "_test", checked_test)
    monkeypatch.setattr(SakataState, "process", recording)
    rng = random.Random(47)
    for spec in specs:
        f = spec.field
        for weight in range(spec.t_capability + 1):
            for _ in range(20):
                info = [rng.randrange(-1, f.q - 1) for _ in range(spec.k)]
                sent = codec.encode_matrix_oracle(spec, info)
                received = list(sent)
                for pos in rng.sample(range(spec.n), weight):
                    received[pos] = f.add(received[pos], rng.randrange(f.q - 1))
                processed.clear()
                assert codec.decode(spec, received)[0] == sent
    assert past_grid["reads"] > 0 or name not in LARGER_M


@pytest.mark.parametrize("name", ["hermitian-q9", "hcrs-q9", "hermitian-q16"])
def test_error_support_locator_equals_full_synthesis(name):
    # The locator is the vanishing ideal of the error array's support;
    # it is the reduced basis the full synthesis of the completed array
    # gives, whose staircase has one cell per error point.
    spec = _hermitian_q16() if name == "hermitian-q16" else codec.preset(name)
    f = spec.field
    rng = random.Random(53)
    for weight in range(spec.t_capability + 1):
        for _ in range(4):
            word = [ZERO] * spec.n
            for pos in rng.sample(range(spec.n), weight):
                word[pos] = rng.randrange(f.q - 1)
            known = dict(zip(spec.phi, codec.syndromes(spec, word)))
            err = bms_with_voting(
                f,
                known,
                spec.order,
                spec.t_capability,
                ambient=spec.basis_all,
                support=spec.point_cells(),
            )
            assert [err[(p.x, p.y)] for p in spec.points] == word
            located = [Point(*c) for c in grid_cells(f.q, spec.order) if err[c] != ZERO]
            assert len(located) == weight
            locator = vanishing_ideal_basis(located, spec.order, f).serialize()
            full = dft2(f, err)
            assert locator == synthesize_full(f, full.data, spec.order).serialize()


def test_voting_collinear_errors(basis_all):
    # errors sharing a coordinate line exercise the class-mate votes
    phi = defining_set(WORDER, 11, F9)
    support = {(pt.x, pt.y) for pt in HERM_POINTS}
    x_lines = {}
    for p in HERM_POINTS:
        x_lines.setdefault(p.x, []).append(p)
    line = next(pts for pts in x_lines.values() if len(pts) == 3)
    errs = {(p.x, p.y): v for p, v in zip(line, (1, 2, 7))}
    u, pa = _syndromes_of(errs, phi)
    err = bms_with_voting(F9, pa, WORDER, 3, ambient=basis_all, support=support)
    assert dft2(F9, err) == u


# -- the fill-based certificate as an oracle -----------------------------------


def _fill_certificate(state, known, support, max_errors):
    """bms._certificate by completion instead of location: the grid and
    every known syndrome, completed by the recurrences of F, must have an
    inverse transform (the error array) with at most max_errors nonzero
    cells, all in support; None when a cell stays unreachable or the
    error array fails."""
    f = state.f
    full = [row[:] for row in state.grid]
    for (i, j), v in known.items():
        full[i][j] = v
    if not _fill_by_recurrences(f, full, state.F, grid_cells(f.q, state.order)):
        return None
    err = idft2(f, Array2D(f.q, full))
    hits = [(i, j) for i, r in enumerate(err.data) for j, v in enumerate(r) if v != ZERO]
    if len(hits) > max_errors or any(c not in support for c in hits):
        return None
    return err


# the benchmark's scale codes: (p, m, primitive polynomial, family, degree)
SCALE_CODES = {
    "hermitian-q16": (2, 4, [1, 1, 0, 0, 1], "curve", 20),
    "hcrs-q16": (2, 4, [1, 1, 0, 0, 1], "hcrs", 12),
    "hermitian-q25": (5, 2, [2, 1, 1], "curve", 30),
}


def _code(name):
    if name in codec.PRESETS:
        return codec.preset(name)
    p, m, poly, family, deg = SCALE_CODES[name]
    f = field_new(p, m, poly)
    if family == "hcrs":
        return codec.make_hcrs_code(f, deg)
    return codec.make_curve_code(f, hermitian_curve(f), deg)


def _received(spec, rng, weight):
    """A systematic codeword and the same word with weight nonzero errors."""
    f = spec.field
    sent = codec.encode_systematic(spec, [rng.randrange(-1, f.q - 1) for _ in range(spec.k)])
    received = list(sent)
    for pos in rng.sample(range(spec.n), weight):
        received[pos] = f.add(received[pos], rng.randrange(f.q - 1))
    return sent, received


def _decode_outcome(spec, received):
    """The corrected word, or the failure message."""
    try:
        return codec.decode(spec, received)[0]
    except DecodingFailure as e:
        return str(e)


@pytest.mark.parametrize("name", [*codec.PRESETS, *SCALE_CODES])
def test_located_certificate_agrees_with_fill_oracle(monkeypatch, name):
    # Locating the errors at the common zeros of F and solving on them
    # accepts exactly the words the completion by F and its inverse
    # transform accepted, with the same corrected word or failure message,
    # at every weight 0..t+2.  An acceptance may come later: a polynomial
    # set can complete the grid correctly before it vanishes at every
    # error point, so only the voted-cell count may differ.
    spec = _code(name)
    t = spec.t_capability
    rng = random.Random(f"fill-oracle-{name}")
    words = 10 if name in codec.PRESETS else 3
    for weight in range(t + 3):
        for _ in range(words):
            _, received = _received(spec, rng, weight)
            located = _decode_outcome(spec, received)
            with monkeypatch.context() as m:
                m.setattr(bms_module, "_certificate", _fill_certificate)
                filled = _decode_outcome(spec, received)
            assert located == filled, (weight, located, filled)


# -- the refusal at |delta| > t -----------------------------------------------

# rs-q9 decodes by 1-D Berlekamp-Massey and never reaches Sakata's update
TWO_D_CODES = [name for name in (*codec.PRESETS, *SCALE_CODES) if name != "rs-q9"]


@pytest.mark.parametrize("name", TWO_D_CODES)
def test_staircase_never_exceeds_error_weight(monkeypatch, name):
    # The lemma behind the refusal: on the prefix of dft2(e) that the
    # decoder processes, Sakata's staircase never holds more cells than e
    # has errors, so the refusal at |delta| > t never fires within t.
    spec = _code(name)
    sizes = []
    process = SakataState.process

    def recording(self, c, value):
        process(self, c, value)
        sizes.append(len(self.delta))

    monkeypatch.setattr(SakataState, "process", recording)
    rng = random.Random(f"staircase-lemma-{name}")
    words = 10 if name in codec.PRESETS else 3
    for weight in range(spec.t_capability + 1):
        for _ in range(words):
            sent, received = _received(spec, rng, weight)
            sizes.clear()
            assert codec.decode(spec, received)[0] == sent
            assert max(sizes, default=0) <= weight, (weight, max(sizes))


@pytest.mark.parametrize("name", TWO_D_CODES)
def test_staircase_refusal_loses_no_success(monkeypatch, name):
    # With the refusal switched off, every decode that succeeds (a
    # miscorrection included) gives the same word with it on, and every
    # word it refuses is refused without it too.  Weight t is in the
    # sample because beyond it the 2-D decoders almost never succeed, so
    # only there would a refusal that fires too early lose a success.
    spec = _code(name)
    t = spec.t_capability
    rng = random.Random(f"no-success-lost-{name}")
    words = 10 if name in codec.PRESETS else 3
    fired = 0
    for weight in range(t, t + 4):
        for _ in range(words):
            _, received = _received(spec, rng, weight)
            with_rule = _decode_outcome(spec, received)
            with monkeypatch.context() as m:
                m.setattr(bms_module, "_refuse_beyond_radius", lambda c: None)
                without = _decode_outcome(spec, received)
            if isinstance(with_rule, str) and isinstance(without, str):
                fired += with_rule.startswith("staircase exceeds t")
            else:
                assert with_rule == without, (weight, with_rule, without)
    assert fired > 0


def test_end_of_grid_certificate_decides_when_nothing_is_voted():
    # At m = 29 hermitian-q9 has k = 0: every cell outside the defining
    # set is derived from the point ideal, so no cell is voted, no early
    # certificate is tried, and only the certificate after the loop can
    # accept, at every weight up to t = 12.
    spec = codec.preset("hermitian-q9", m=29)
    assert (spec.k, spec.t_capability) == (0, 12)
    f = spec.field
    rng = random.Random("end-of-grid")
    for weight in range(spec.t_capability + 1):
        for _ in range(25):
            received = [ZERO] * spec.n
            for pos in rng.sample(range(spec.n), weight):
                received[pos] = rng.randrange(f.q - 1)
            stats = {}
            assert codec.decode(spec, received, stats=stats)[0] == [ZERO] * spec.n
            assert stats == {"voted_cells": 0, "early_certificate": False}


# -- decoding within t at every m ----------------------------------------------

# the zero codeword plus t errors, as cell (log x, log y): value log; on the
# (q-1) x (q-1) torus both were refused at cell (7, 1), the first cell after
# (8, 0), which the torus never processes
REPRODUCERS = {
    ("hcrs-q9", 12): {(0, 3): 0, (3, 4): 3, (5, 1): 6, (6, 0): 1, (7, 5): 6},
    ("hermitian-q9", 21): {
        (1, 3): 1, (2, 4): 0, (2, 7): 2, (3, 0): 3,
        (5, 0): 1, (5, 3): 5, (6, 5): 4, (6, 7): 0,
    },
}


@pytest.mark.parametrize("key", sorted(REPRODUCERS), ids="{0[0]}-m{0[1]}".format)
def test_reproducer_within_t_decodes(key):
    spec = codec.preset(key[0], m=key[1])
    errors = REPRODUCERS[key]
    received = [errors.get((p.x, p.y), ZERO) for p in spec.points]
    assert sum(v != ZERO for v in received) == spec.t_capability
    assert codec.decode(spec, received)[0] == [ZERO] * spec.n


# hermitian-q9 at every m up to 29, where k reaches 0 (a larger m gives the
# same code), and hcrs-q9 up to m = 52, the largest m README's guarantee
# covers: three words per weight up to m = 22, one from m = 23 on
SWEEP = [("hermitian-q9", m, 3) for m in range(5, 30)] + [
    ("hcrs-q9", m, 3 if m <= 22 else 1) for m in range(2, 53)
]


def test_decodes_every_weight_up_to_t_across_m():
    # Words at each weight 0..t at each m: none is refused or miscorrected.
    for name, m, words in SWEEP:
        spec = codec.preset(name, m=m)
        f = spec.field
        rng = random.Random(f"sweep-{name}-{m}")
        for weight in range(spec.t_capability + 1):
            for _ in range(words):
                info = [rng.randrange(-1, f.q - 1) for _ in range(spec.k)]
                sent = codec.encode_systematic(spec, info) if spec.k else [ZERO] * spec.n
                received = list(sent)
                for pos in rng.sample(range(spec.n), weight):
                    received[pos] = f.add(received[pos], rng.randrange(f.q - 1))
                assert _decode_outcome(spec, received) == sent, (name, m, weight)


@pytest.mark.xfail(
    raises=DecodingFailure,
    strict=True,
    reason="at hcrs-q9 m >= 53 the order prefix does not determine F (ROADMAP item 6)",
)
def test_hcrs_q9_m62_word_within_t_decodes():
    # 29 errors against t = 30: refused with "completed syndrome array
    # fails the final checks"; the marker comes off when the residue is fixed
    spec = codec.preset("hcrs-q9", m=62)
    sent, received = _received(spec, random.Random("residue-hcrs-q9-62-0"), 29)
    assert codec.decode(spec, received)[0] == sent


# -- refusals that a syndrome array off the support reaches ---------------------


def test_no_votes_and_final_checks_refuse_an_error_off_the_support():
    # With the error's point left out of support no certificate accepts.
    # hcrs-q9 at m = 2 knows only u[0, 0]; one nonzero value there makes
    # (0, 0) the staircase, which holds a part of every split of (1, 0),
    # so nothing votes.  hermitian-q9 at m = 29 votes no cell, so its one
    # error runs the whole prefix to the certificate after the loop.
    cases = [("hcrs-q9", 2, "no votes for cell (1, 0)"),
             ("hermitian-q9", 29, "completed syndrome array fails the final checks")]
    for name, m, message in cases:
        spec = codec.preset(name, m=m)
        word = [ZERO] * spec.n
        word[0] = 3
        known = dict(zip(spec.phi, codec.syndromes(spec, word)))
        p = spec.points[0]
        with pytest.raises(DecodingFailure, match=re.escape(message)):
            bms_with_voting(
                F9, known, spec.order, 1,
                ambient=spec.basis_all, support=spec.point_cells() - {(p.x, p.y)},
            )


# -- the vote ------------------------------------------------------------------

# what the symbolic vote read: "past the grid" counts predictions that read
# a defined cell past the grid, "derived" the voting class cells other than
# c that the ambient rules reach
SYMBOLIC_READS: Counter = Counter()


def _symbolic_vote(state, amb_rules, top, cls, c):
    """bms._vote on symbols: a cell value is a pair (A, B) standing for
    A + B*X, X = u[c], read from the grid mod q-1 or found by applying the
    ambient rules recursively (memo and cycle guard), and a prediction
    evaluates a polynomial of F on such pairs.  A split counts when
    neither part is in the staircase or at or above top, the curve
    equation's leading cell (None for hcrs)."""
    f, grid, n = state.f, state.grid, state.n
    add_t, mul_t = f.add_table, f.mul_table
    neg = f.sub_table[ZERO]
    sym_memo = {}

    def sym(cell):
        c0, c1 = cell
        v = grid[c0 % n][c1 % n]
        if v is not None:
            return (v, ZERO)
        if cell == c:
            return (ZERO, ONE)
        if cell in sym_memo:
            return sym_memo[cell]
        sym_memo[cell] = None  # cycle guard
        result = None
        for lt, tail in amb_rules:
            if not _leq(lt, cell):
                continue
            acc_a = acc_b = ZERO
            for e0, e1, row in tail:
                child = sym(((c0 + e0) % n, (c1 + e1) % n))
                if child is None:
                    break
                acc_a = add_t[acc_a][row[child[0]]]
                acc_b = add_t[acc_b][row[child[1]]]
            else:
                result = (acc_a, acc_b)
                break
        sym_memo[cell] = result
        return result

    # prediction of X from minimal polynomial index fi tested at w
    pred_memo = {}

    def predict(fi, w):
        if (fi, w) in pred_memo:
            return pred_memo[fi, w]
        lt, coeffs = state.F[fi]
        acc_a = acc_b = ZERO
        d0, d1 = w[0] - lt[0], w[1] - lt[1]
        defined = True
        for (s0, s1), cf in coeffs.items():
            child = sym((s0 + d0, s1 + d1))
            if child is None:
                defined = False
                break
            if s0 + d0 >= n or s1 + d1 >= n:
                SYMBOLIC_READS["past the grid"] += 1
            mc = mul_t[cf]
            acc_a = add_t[acc_a][mc[child[0]]]
            acc_b = add_t[acc_b][mc[child[1]]]
        result = None
        if defined and acc_b != ZERO:
            result = f.div(neg[acc_a], acc_b)
        pred_memo[fi, w] = result
        return result

    delta = state.delta

    def basis_part(a):
        return a not in delta and not (top is not None and _leq(top, a))

    tally = {}
    for w in cls:
        if grid[w[0] % n][w[1] % n] is not None:
            continue
        if sym(w) is None:
            continue
        if w != c:
            SYMBOLIC_READS["derived"] += 1
        w0, w1 = w
        for a0 in range(w0 + 1):
            for a1 in range(w1 + 1):
                if not (basis_part((a0, a1)) and basis_part((w0 - a0, w1 - a1))):
                    continue
                value = None
                for fi, (lt, _) in enumerate(state.F):
                    if lt[0] <= a0 and lt[1] <= a1:
                        value = predict(fi, w)
                        if value is not None:
                            break
                if value is not None:
                    tally[value] = tally.get(value, 0) + 1
    if not tally:
        raise DecodingFailure(f"no votes for cell {c}")
    ranked = sorted(tally.items(), key=lambda kv: (-kv[1], kv[0]))
    if len(ranked) > 1 and ranked[0][1] == ranked[1][1]:
        raise DecodingFailure(f"voting tie at cell {c}")
    return ranked[0][0]


# the five 2-D benchmark codes, and larger m, where the vote derives class
# cells and reads cells past the grid
VOTE_CODES = [*TWO_D_CODES, ("hermitian-q9", 21), ("hermitian-q9", 25),
              ("hcrs-q9", 12), ("hcrs-q9", 16)]


def _vote_code(key):
    return _code(key) if isinstance(key, str) else codec.preset(key[0], m=key[1])


def _decode_with_stats(spec, received):
    """The corrected word or the failure message, and the decode stats."""
    stats = {}
    try:
        return codec.decode(spec, received, stats=stats)[0], stats
    except DecodingFailure as e:
        return str(e), stats


def test_vote_agrees_with_symbolic_oracle(monkeypatch):
    # The vote on numbers and the vote on symbols give the same corrected
    # word or failure message and the same voted-cell count, at every
    # weight 0..t+3.  At the larger m the sample holds predictions that
    # read a cell past the grid, and class cells derived from the ambient
    # rules, so a vote that dropped either would disagree here.
    SYMBOLIC_READS.clear()
    for key in VOTE_CODES:
        spec = _vote_code(key)
        rng = random.Random(f"symbolic-vote-{key}")
        words = 2 if isinstance(key, str) else 10
        for weight in range(spec.t_capability + 4):
            for _ in range(words):
                _, received = _received(spec, rng, weight)
                numeric = _decode_with_stats(spec, received)
                with monkeypatch.context() as m:
                    m.setattr(bms_module, "_vote", _symbolic_vote)
                    symbolic = _decode_with_stats(spec, received)
                assert numeric == symbolic, (key, weight, numeric, symbolic)
    assert SYMBOLIC_READS["past the grid"] > 0
    assert SYMBOLIC_READS["derived"] > 0


def test_vote_leaves_unprocessed_cells_open(monkeypatch):
    # Whether the vote returns or raises, the grid holds None at c and at
    # every cell after it in the processing enumeration, as before the call.
    vote = bms_module._vote
    outcomes = Counter()

    def checked(state, amb_rules, top, cls, c):
        cells = grid_cells(state.f.q, state.order)
        try:
            value = vote(state, amb_rules, top, cls, c)
            outcomes["returned"] += 1
            return value
        except DecodingFailure:
            outcomes["raised"] += 1
            raise
        finally:
            later = cells[cells.index(c):]
            assert all(state.grid[i][j] is None for i, j in later), c

    monkeypatch.setattr(bms_module, "_vote", checked)
    for key in VOTE_CODES:
        spec = _vote_code(key)
        rng = random.Random(f"vote-restores-{key}")
        for weight in range(spec.t_capability, spec.t_capability + 4):
            for _ in range(2):
                _decode_outcome(spec, _received(spec, rng, weight)[1])
    assert outcomes["returned"] and outcomes["raised"]


def test_vote_counts_a_split_through_an_ambient_cell_off_the_y_axis():
    # y^2 + y + x^3 + alpha^3 x over GF(16): the ambient basis is led by
    # (0, 2), (7, 0) and (6, 1), and (6, 1) is a basis monomial of the
    # order domain.  An error on the 12 points over the six x with two
    # points each has the staircase [0, 5] x [0, 1].  At (12, 1) every
    # split with both parts outside it and below (0, 2) passes through
    # (6, 0) and (6, 1), so the vote exists only if such splits count.
    f = field_new(2, 4, [1, 1, 0, 0, 1])
    curve = curve_spec(2, 3, {(0, 2): ONE, (0, 1): ONE, (3, 0): ONE, (1, 0): 3})
    spec = codec.make_curve_code(f, curve, 5)
    assert [g.lt for g in spec.basis_all.elements] == [(0, 2), (7, 0), (6, 1)]
    xs = Counter(p.x for p in spec.points)
    err = Array2D.zeros(f.q)
    for p in spec.points:
        if xs[p.x] == 2:
            err[(p.x, p.y)] = ONE
    u = dft2(f, err)
    _, prefix, classes = _enumeration(f.q, spec.order)
    c = (12, 1)
    state = SakataState(f, spec.order)
    for cell in prefix[: prefix.index(c)]:
        state.process(cell, u[(cell[0] % 15, cell[1] % 15)])
    assert sorted(state.delta) == [(i, j) for i in range(6) for j in range(2)]
    amb_rules = _solved_rules(f, [(g.lt, g.coeffs) for g in spec.basis_all.elements])
    cls = classes[spec.order.weight(c)]
    assert bms_module._vote(state, amb_rules, (0, 2), cls, c) == u[c]


def test_vote_is_passed_the_curve_leading_cell(monkeypatch):
    # bms_with_voting hands _vote the ambient leading cell on the y-axis
    # inside the grid: (0, a) of the curve, none for hcrs
    vote = bms_module._vote
    tops = set()

    def spy(state, amb_rules, top, cls, c):
        tops.add(top)
        return vote(state, amb_rules, top, cls, c)

    monkeypatch.setattr(bms_module, "_vote", spy)
    f16 = field_new(2, 4, [1, 1, 0, 0, 1])
    curve = curve_spec(2, 3, {(0, 2): ONE, (0, 1): ONE, (3, 0): ONE, (1, 0): 3})
    cases = [(codec.make_curve_code(f16, curve, 9), (0, 2)),
             (codec.preset("hermitian-q9"), (0, 3)), (codec.preset("hcrs-q9"), None)]
    for spec, want in cases:
        tops.clear()
        rng = random.Random(f"vote-top-{spec.kind}-{spec.field.q}")
        for _ in range(5):
            _decode_outcome(spec, _received(spec, rng, spec.t_capability)[1])
        assert tops == {want}, spec.kind


# -- out-of-grid cells --------------------------------------------------------


@pytest.mark.parametrize("bad", [(-1, 0), (8, 0), (0, 8)])
def test_out_of_grid_cells_rejected(bad):
    # a negative index would silently land in the last row, and one past
    # the edge raised IndexError
    spec = codec.preset("hermitian-q9")
    values = {c: ZERO for c in spec.phi}
    values[bad] = 3
    msg = rf"cell \({bad[0]}, {bad[1]}\) lies outside the 8x8 grid"
    with pytest.raises(ValueError, match=msg):
        extend(values, spec.basis_wp, F9)
    with pytest.raises(ValueError, match=msg):
        bms_with_voting(
            F9, values, spec.order, spec.t_capability,
            ambient=spec.basis_all, support=spec.point_cells(),
        )


# -- the memoized enumeration ---------------------------------------------------

# q -> constructors of the orders of the Hermitian and hcrs codes over
# GF(q); each is called twice to build equal orders separately
MEMO_ORDERS = {
    q: (
        partial(WeightedCurveOrder, u, u + 1),
        partial(WeightedCurveOrder, 1, 1),  # the graded order of hcrs codes
    )
    for q, u in ((9, 3), (16, 4), (25, 5))
}


@pytest.mark.parametrize("q", sorted(MEMO_ORDERS))
def test_grid_cells_memo_matches_fresh_sort(q):
    n = q - 1
    for make in MEMO_ORDERS[q]:
        order, twin = make(), make()
        fresh = sorted(((i, j) for i in range(n) for j in range(n)), key=order.key)
        cells = grid_cells(q, order)
        assert isinstance(cells, tuple)
        assert list(cells) == fresh
        # an equal order built separately reuses the same entry
        assert twin == order and hash(twin) == hash(order)
        assert grid_cells(q, order) is cells
        assert grid_cells(q, twin) is cells
        # the prefix is every cell of N^2 up to the last grid cell's key,
        # and its weight classes, in ascending weight, concatenate to it
        _, prefix, classes = _enumeration(q, order)
        last = order.key(fresh[-1])
        box = [(i, j) for i in range(last[0] + 1) for j in range(last[0] + 1)]
        assert list(prefix) == sorted((c for c in box if order.key(c) <= last), key=order.key)
        assert [c for w in sorted(classes) for c in classes[w]] == list(prefix)
        for w, members in classes.items():
            assert all(order.weight(c) == w for c in members)
        with pytest.raises(TypeError):
            classes[-1] = ()

