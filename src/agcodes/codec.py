"""Encoders and decoders for the three code families.

A CodeSpec fully instantiates a code: the field, the monomial order and
defining set, the code locations, the redundant/information point split
with its precomputed vanishing-ideal bases, and the derived (n, k).  The
basis of all code points is built from the curve's x-lines: the full
lines give a product of linear factors in x, and the point-ideal scan
(bms.vanishing_ideal_basis) runs on the points of the other lines only.
That of the redundant points is read off the greedy walk that picks
them: the elimination of their evaluation rows on the defining set also
reduces their corner monomials, and back-substitution gives each
element's tail on the defining set, which the checks prove is the
staircase.

Families:

* curve  - code on the nonzero-coordinate rational points of a plane
           curve (Hermitian over GF(9) is the shipped preset), weighted
           monomial order, parity on the cells of weight <= m.
* hcrs   - hyperbolic cascaded RS code on all (q-1)^2 grid positions,
           graded order WeightedCurveOrder(1, 1), parity on the cells of
           product weight (i+1)(j+1) < m, which lists the defining set
           and the nonsystematic carriers by that weight.
* rs     - classical RS code of length q-1, one-dimensional.

Codewords are lists of element logs, one per location (kind rs/curve/
hcrs alike); information vectors are lists of logs.  Where each symbol
lives is decided here only.  Location h of every word is the point
spec.points[h], at grid cell (log x, log y) in point_array(); an rs
location h is the point (alpha^h, 1).  A word of the code lengthened by
the zero-coordinate points appends one value per spec.zero_points.  A
systematic word has its parity at the redundant points spec.wp, listed
by spec.parity_positions(), and its information at the rest (rs: the
first r locations, and the rest).  The one systematic encoder takes
both layouts, as syndromes() and check_matrix() do: k information
symbols give a plain word, and k symbols followed by one per zero point
a lengthened one.  In a 2-D information array the
symbols sit on spec.carrier_cells(mode): the information points' cells
(systematic) or the free staircase cells, the point-ideal staircase
minus the defining set (nonsystematic).  An rs code has no such array,
and both raise ValueError for it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import zip_longest
from typing import Sequence

from .bms import (
    BivariatePoly,
    GroebnerBasis,
    _Echelon,
    _monic,
    _normal_form,
    bms_with_voting,
    extend,
    vanishing_ideal_basis,
)
from .errors import (
    BadRedundancy,
    DecodingFailure,
    ExtendedDecodeUnsupported,
    MTooSmall,
    NonGenericSupport,
    NotAZeroPoint,
    RankDeficient,
)
from .galois import Elt, Field, ONE, ZERO, field_new, gf9
from .geometry import (
    Cell,
    CurveSpec,
    Point,
    WeightedCurveOrder,
    corners,
    curve_spec,
    defining_set,
    enumerate_points,
    hermitian_curve,
    hyperbolic_set,
    monomial_logs,
    poly_values,
)
# dft2 stays bound here: perfbench/tracer.py and the transform-count test rebind it
from .transform import Array2D, dft1, dft2, dft2_cells, idft1, idft2

Word = list  # list[Elt], one value per code location
Info = list  # list[Elt], one value per information position


@dataclass(frozen=True)
class CodeSpec:
    """A fully instantiated code; immutable and safe to share."""

    field: Field
    kind: str  # "curve" | "hcrs" | "rs"
    order: WeightedCurveOrder | None
    m: int  # degree parameter; for rs this is the redundancy r
    curve: CurveSpec | None
    points: tuple[Point, ...]
    zero_points: tuple[Point, ...]
    phi: tuple[Cell, ...]
    wp: tuple[Point, ...]  # redundant-point set, size n-k
    wp_prime: tuple[Point, ...]  # information-point set
    basis_wp: GroebnerBasis | None
    basis_all: GroebnerBasis | None
    n: int
    k: int
    t_capability: int

    @property
    def r(self) -> int:
        return self.m

    def carrier_cells(self, mode: str) -> list[Cell]:
        """The cells of a 2-D code's information array that carry the
        information symbols in mode, in information-vector order."""
        if self.kind == "rs":
            raise ValueError("rs has no 2-D information array")
        if mode == "systematic":
            return [(p.x, p.y) for p in self.wp_prime]
        if mode == "nonsystematic":
            phi = set(self.phi)
            cells = self.basis_all.delta
            if self.kind == "hcrs":  # every grid cell, listed as hcrs lists phi
                cells = hyperbolic_set(self.field.q ** 2, self.field)
            return [c for c in cells if c not in phi]
        raise ValueError(f"unknown mode {mode!r}")

    def point_cells(self) -> frozenset[Cell]:
        return self._point_cells

    def parity_positions(self) -> list[int]:
        return list(self._positions[0])

    def info_positions(self) -> list[int]:
        return list(self._positions[1])

    # computed on first use, once per spec; the methods above hand out
    # immutable or copied views, so no caller can alter the shared sets

    @cached_property
    def _point_cells(self) -> frozenset[Cell]:
        return frozenset((p.x, p.y) for p in self.points)

    @cached_property
    def _wp_cells(self) -> frozenset[Cell]:
        return frozenset((p.x, p.y) for p in self.wp)

    @cached_property
    def _positions(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(parity, information) positions: indices of the points in wp,
        and of the rest."""
        wpset = set(self.wp)
        parity = tuple(h for h, p in enumerate(self.points) if p in wpset)
        info = tuple(h for h, p in enumerate(self.points) if p not in wpset)
        return parity, info


def _check_symbols(f: Field, symbols: Sequence, what: str) -> None:
    """Raise ValueError unless every symbol is an element log in [-1, q-2]."""
    top = f.q - 2
    for v in symbols:
        if not isinstance(v, int) or not -1 <= v <= top:
            raise ValueError(f"{what} symbol {v!r} is not an element log in [-1, {top}]")


def _check_layout(f: Field, symbols: Sequence, what: str, length: int, extra: int = 0) -> None:
    """Raise ValueError unless symbols are length element logs, or length +
    extra (a lengthened layout); a bad symbol is reported before a bad
    length."""
    _check_symbols(f, symbols, what)
    if len(symbols) not in (length, length + extra):
        lengthened = f" or {length + extra}" if extra else ""
        raise ValueError(f"{what} must have length {length}{lengthened}")


def _check_redundancy(f: Field, r: int) -> None:
    """Raise BadRedundancy unless an rs code over f has redundancy r."""
    if not 1 <= r < f.q - 1:
        raise BadRedundancy(f"need 1 <= r < {f.q - 1}, got {r}")


# ---------------------------------------------------------------------------
# construction


def _corner_tails(
    f: Field, rows: Sequence[tuple[list[Elt], list[int], dict]], lead: Sequence[Cell]
) -> dict[Cell, list[Elt]]:
    """For each corner L, the a_L indexed like phi with M a_L = (x(P)^L)_P,
    from the echelon rows of M, the kept points' square, invertible
    evaluation matrix on phi.

    The walk's row operations act on each row's combo as on its vector,
    so the rows are R = T M and the combos C = T B, B the points' corner
    monomials, for one invertible T, and R a_L = C_L.  A row is zero at
    the pivots of the rows before it and every column is a pivot, so the
    rows solved last first give each pivot's entry of a_L from entries
    already found.
    """
    sub_t, mul_t = f.sub_table, f.mul_table
    tails = {L: [ZERO] * len(rows) for L in lead}
    for rvec, support, combo in reversed(rows):
        piv, rest = support[0], support[1:]
        scale = mul_t[f.inv(rvec[piv])]
        for L, a in tails.items():
            acc = combo[L]
            for k in rest:
                acc = sub_t[acc][mul_t[rvec[k]][a[k]]]
            a[piv] = scale[acc]
    return tails


def _select_redundant_points(
    f: Field, points: Sequence[Point], phi: Sequence[Cell], order: WeightedCurveOrder
) -> tuple[list[Point], list[Point], GroebnerBasis]:
    """Pick the redundant-point set whose vanishing-ideal staircase is the
    defining set, and that ideal's reduced Groebner basis.

    Greedy rank selection: walk the points in order and keep each one
    whose defining-set evaluation row is independent of the rows kept so
    far, until n-k are kept, so that the kept points' evaluation matrix M
    on phi is invertible.

    The points come x-major (enumerate_points, make_hcrs_code), so the
    walk meets the x-lines x_0, x_1, ... one after another.  While every
    earlier line c' has given h_c' kept points, h_c' the height of column
    c' of phi, a line that has given its h_c is skipped to its end
    unevaluated: every point left on it is dependent.  This is the Newton
    form (Gasca and Sauer 2000): V = span{x^i y^j : (i, j) in phi} has
    the basis prod_{d<i} (x - x_d) * y^j, so g in V is sum_i r_i(y) *
    prod_{d<i} (x - x_d) with deg r_i < h_i.  If g vanishes at the kept
    points, then r_0(y) = g(x_0, y) has h_0 roots and is zero, then r_1,
    ..., up to r_c, and g vanishes on the whole line x_c.  After the first
    line that ends short of its height the proviso is off for good, and
    every later point is evaluated.  The skip drops only points the full
    walk would reject, so the choice is the same.

    The basis comes from the walk's own elimination.  Each point's row
    carries its corner monomials {L: x(P)^L}, L over the corners of the
    lower set phi, and once M is complete _corner_tails solves
    M a_L = (x(P)^L)_P for every L.  So g_L = x^L - sum_c a_L[c] x^c
    vanishes at the kept points wp.  Each g_L is checked to be led by L
    and to vanish at every point of wp, and these checks prove that the
    g_L are the reduced basis of I(wp) with staircase phi:

    * every cell outside phi lies at or above a corner of phi, so LT(I(wp))
      holds every cell outside phi, and the staircase of I(wp) lies in phi;
    * a point ideal's staircase holds one cell per point, here |wp| =
      |phi| of them, so the staircase is phi;
    * the reduced element led by a corner L is the one element of I(wp)
      monic at L with its tail in the staircase: g_L.

    Elements come in the key order of their corners and delta is phi in
    key order, as bms.vanishing_ideal_basis() gives them.
    """
    nk = len(phi)
    heights = Counter(i for i, _ in phi)
    lead = corners([heights[i] for i in range(len(heights))])
    chosen: list[Point] = []
    echelon = _Echelon(f)
    # newton: every x-line before line c gave its column height
    newton, c, x, on_line = True, -1, None, 0
    for p in points:
        if newton and p.x != x:
            newton = c < 0 or on_line == heights[c]
            c, x, on_line = c + 1, p.x, 0
        if newton and on_line == heights[c]:
            continue
        monomials = dict(zip(lead, monomial_logs(f, p, lead)))
        if echelon.add(monomial_logs(f, p, phi), monomials) is None:
            chosen.append(p)
            on_line += 1
            if len(chosen) == nk:
                break
    if len(chosen) < nk:
        raise NonGenericSupport("defining-set evaluation matrix is rank deficient")
    tails = _corner_tails(f, echelon.rows, lead)
    neg = f.sub_table[ZERO]
    elements = []
    for L in sorted(lead, key=order.key):
        coeffs = {cell: neg[a] for cell, a in zip(phi, tails[L])}
        coeffs[L] = ONE
        g = BivariatePoly(coeffs, order)
        if g.lt != L:
            raise AssertionError("a redundant-point basis element is not led by its corner")
        elements.append(g)
    if any(v != ZERO for g in elements for v in poly_values(f, g.coeffs, chosen)):
        raise AssertionError("a redundant-point basis element does not vanish")
    basis = GroebnerBasis(tuple(elements), tuple(sorted(phi, key=order.key)), order)
    wpset = set(chosen)
    return chosen, [p for p in points if p not in wpset], basis


def _ambient_basis(
    f: Field, order: WeightedCurveOrder, curve: CurveSpec | None, points: Sequence[Point]
) -> GroebnerBasis:
    """The reduced Groebner basis of the ideal of all code points, from the
    curve's x-lines.

    C is the curve equation, or y^(q-1) - 1 for hcrs codes: of degree a in
    y, and monic in y up to a constant.  An x-line is full when it holds a
    points.  P(x) is the product of (x - x_c) over the F full lines, and
    "partial" the points on the other lines.  Then I(all) = (C) + P *
    I(partial): a polynomial reduced modulo C is sum_{j<a} r_j(x) y^j, and
    it vanishes on a full line x_c exactly when every r_j has the root
    x_c, since the line's a points are a distinct roots in y.  So P
    divides every r_j, and the quotient vanishes at the partial points.

    The basis is P * h for each element h of the partial points' basis
    (bms.vanishing_ideal_basis) and, when F > 0, the monic C with its tail
    reduced by the others, in place of the h led by (0, a) if there is
    one.  Its staircase delta is [0, F) x [0, a) and (F, 0) + the partial
    staircase.  A line of more than a points lies off C and is left out,
    so the size check fails.  The checks prove the elements are the
    reduced basis of I(all):

    * each vanishes at every point, so it lies in I(all);
    * each is monic at a corner of delta, one per corner, with its other
      terms in delta, so the staircase of I(all) lies in delta;
    * delta holds one cell per point, as that staircase does, so the two
      are equal.

    Elements come in the key order of their leading cells and delta in
    key order, as bms.vanishing_ideal_basis() gives them.
    """
    if curve is None:
        a, c = f.q - 1, {(0, f.q - 1): ONE, (0, 0): f.neg(ONE)}
    else:
        a, c = curve.a, curve.poly_dict()
    add_t, sub_t, mul_t = f.add_table, f.sub_table, f.mul_table
    lines = Counter(p.x for p in points)
    # P(x), lowest degree first, one factor (x - x_c) per full line
    p_coeffs = [ONE]
    for x, size in lines.items():
        if size == a:
            pairs = zip_longest([ZERO] + p_coeffs, p_coeffs, fillvalue=ZERO)
            p_coeffs = [sub_t[s][mul_t[x][v]] for s, v in pairs]
    full = len(p_coeffs) - 1
    partial = vanishing_ideal_basis([p for p in points if lines[p.x] < a], order, f)
    elements = []
    for h in partial.elements:
        if full and h.lt == (0, a):
            continue
        coeffs: dict[Cell, Elt] = {}
        for (i, j), v in h.coeffs.items():
            mv = mul_t[v]
            for k, pk in enumerate(p_coeffs):
                coeffs[(i + k, j)] = add_t[coeffs.get((i + k, j), ZERO)][mv[pk]]
        elements.append(BivariatePoly(coeffs, order))
    if full:
        scale = mul_t[f.inv(c[(0, a)])]
        monic = {s: scale[v] for s, v in c.items()}
        others = [_monic(f, g) for g in elements]
        elements.append(BivariatePoly(_normal_form(f, monic, others, order.key), order))
    elements.sort(key=lambda g: order.key(g.lt))
    cells = [(i, j) for i in range(full) for j in range(a)]
    cells += [(full + i, j) for i, j in partial.delta]
    delta = sorted(cells, key=order.key)
    if len(delta) != len(points):
        raise AssertionError("staircase size must equal the point count")
    heights = Counter(i for i, _ in delta)
    lead = sorted(corners([heights[i] for i in range(len(heights))]), key=order.key)
    inside = set(delta)
    if [g.lt for g in elements] != lead or any(
        g.coeffs[g.lt] != ONE or any(s not in inside for s in g.coeffs if s != g.lt)
        for g in elements
    ):
        raise AssertionError("the ambient basis is not monic at each corner, tails in delta")
    if any(v != ZERO for g in elements for v in poly_values(f, g.coeffs, points)):
        raise AssertionError("an ambient basis element does not vanish")
    return GroebnerBasis(tuple(elements), tuple(delta), order)


def _make_2d_code(
    f: Field,
    kind: str,
    order: WeightedCurveOrder,
    m: int,
    curve: CurveSpec | None,
    points: Sequence[Point],
    zero_points: Sequence[Point],
    phi: Sequence[Cell],
    t: int,
) -> CodeSpec:
    """A 2-D code on points with defining set phi: both vanishing-ideal
    bases and the redundant/information point split."""
    basis_all = _ambient_basis(f, order, curve, points)
    wp, wpp, basis_wp = _select_redundant_points(f, points, phi, order)
    return CodeSpec(
        field=f,
        kind=kind,
        order=order,
        m=m,
        curve=curve,
        points=tuple(points),
        zero_points=tuple(zero_points),
        phi=tuple(phi),
        wp=tuple(wp),
        wp_prime=tuple(wpp),
        basis_wp=basis_wp,
        basis_all=basis_all,
        n=len(points),
        k=len(points) - len(phi),
        t_capability=t,
    )


def make_curve_code(f: Field, curve: CurveSpec, m: int) -> CodeSpec:
    """Code on the nonzero-coordinate points of the curve with parameter m;
    the points with a zero coordinate are kept apart for the lengthened
    code."""
    _check_symbols(f, [c for _, c in curve.defining_poly], "curve coefficient")
    order = WeightedCurveOrder(curve.a, curve.b)
    points, zero_points = enumerate_points(curve, f)
    if m <= 2 * curve.genus - 2:
        raise MTooSmall(f"m={m} must exceed 2g-2={2 * curve.genus - 2}")
    phi = defining_set(order, m, f)
    if len(phi) > len(points):
        raise ValueError("defining set larger than the code length")
    t = max((m - 2 * curve.genus + 1) // 2, 0)
    return _make_2d_code(f, "curve", order, m, curve, points, zero_points, phi, t)


def make_hcrs_code(f: Field, m: int) -> CodeSpec:
    """Hyperbolic cascaded RS code on all (q-1)^2 grid positions, under
    the graded order."""
    n_side = f.q - 1
    points = [Point(i, j) for i in range(n_side) for j in range(n_side)]
    phi = hyperbolic_set(m, f)
    if not 0 < len(phi) < len(points):
        raise ValueError(f"m={m} gives a degenerate defining set")
    return _make_2d_code(
        f, "hcrs", WeightedCurveOrder(1, 1), m, None, points, (), phi, (m - 1) // 2
    )


def make_rs_code(f: Field, r: int) -> CodeSpec:
    """Classical RS code of length q-1 with redundancy r: location h is
    the point (alpha^h, 1), and the parity sits at the first r."""
    _check_redundancy(f, r)
    n = f.q - 1
    points = tuple(Point(h, ONE) for h in range(n))
    return CodeSpec(
        field=f,
        kind="rs",
        order=None,
        m=r,
        curve=None,
        points=points,
        zero_points=(),
        phi=tuple((i, 0) for i in range(r)),
        wp=points[:r],
        wp_prime=points[r:],
        basis_wp=None,
        basis_all=None,
        n=n,
        k=n - r,
        t_capability=r // 2,
    )


def make_code(f: Field, kind: str, param: int, curve: CurveSpec | None = None) -> CodeSpec:
    """The code of a kind over f: param is m for curve and hcrs, the
    redundancy r for rs; curve is the curve of the curve kind."""
    if kind == "curve":
        return make_curve_code(f, curve, param)
    if kind == "hcrs":
        return make_hcrs_code(f, param)
    if kind == "rs":
        return make_rs_code(f, param)
    raise ValueError(f"unknown kind {kind!r}")


# preset name -> (kind, default m, or r for rs), over the canonical GF(9)
_PRESET_KINDS = {"hermitian-q9": ("curve", 11), "hcrs-q9": ("hcrs", 9), "rs-q9": ("rs", 4)}
PRESETS = tuple(_PRESET_KINDS)
# built once: every preset runs over this field and shares its transform tables
_PRESET_FIELD = gf9()


def preset(name: str, m: int | None = None, r: int | None = None) -> CodeSpec:
    """Named code constructions over the canonical GF(9).  The rs preset
    takes r only, the 2-D presets m only."""
    if name not in _PRESET_KINDS:
        raise ValueError(f"unknown preset {name!r}; have {', '.join(PRESETS)}")
    kind, default = _PRESET_KINDS[name]
    param, other = (r, m) if kind == "rs" else (m, r)
    if other is not None:
        raise ValueError(f"preset {name} takes {'r, not m' if kind == 'rs' else 'm, not r'}")
    f = _PRESET_FIELD
    curve = hermitian_curve(f) if kind == "curve" else None
    return make_code(f, kind, default if param is None else param, curve)


# ---------------------------------------------------------------------------
# parity checks


def check_matrix(spec: CodeSpec) -> list[list[Elt]]:
    """One row per location of a lengthened word, spec.points then
    spec.zero_points, and one column per defining-set cell: entry =
    x(P)^i * y(P)^j with 0^0 = 1."""
    return [monomial_logs(spec.field, p, spec.phi) for p in spec.points + spec.zero_points]


def point_array(spec: CodeSpec, word: Word) -> Array2D:
    """The word at its point cells, zero elsewhere: q-1 rows of q-1
    element logs, the value of point P at [P.x][P.y]."""
    n = spec.field.q - 1
    arr = [[ZERO] * n for _ in range(n)]
    for p, v in zip(spec.points, word):
        arr[p.x][p.y] = v
    return arr


def syndromes(spec: CodeSpec, word: Word) -> list[Elt]:
    """The word's transform on the defining set, one value per cell of phi:
    the word times check_matrix(spec).

    word holds the n point values, optionally followed by one value per
    zero point (a lengthened word).  The point values give the first r
    entries of their DFT for rs, and for 2-D kinds r(alpha^i, alpha^j) of
    the word embedded at its point cells, evaluated at the defining-set
    cells only (dft2_cells).  Each zero point Z with value v then adds
    v * x(Z)^i * y(Z)^j, its transform analogue.
    """
    f = spec.field
    n = spec.n
    _check_layout(f, word, "word", n, len(spec.zero_points))
    if spec.kind == "rs":
        out = dft1(f, list(word))[: spec.r]
    else:
        out = dft2_cells(f, point_array(spec, word), list(spec.phi))
    add_t, mul_t = f.add_table, f.mul_table
    for z, v in zip(spec.zero_points, word[n:]):
        mv = mul_t[v]
        out = [add_t[acc][mv[e]] for acc, e in zip(out, monomial_logs(f, z, spec.phi))]
    return out


# ---------------------------------------------------------------------------
# linear algebra (for the generator-matrix oracle)


def matrix_rank(f: Field, rows: list[list[Elt]]) -> int:
    echelon = _Echelon(f)
    for k, row in enumerate(rows):
        echelon.add(row[:], {k: ONE})
    return len(echelon.rows)


def _solve_square(f: Field, a: list[list[Elt]], rhs: list[Elt]) -> list[Elt]:
    """Solve a square system; raises RankDeficient when singular."""
    dim = len(a)
    echelon = _Echelon(f)
    for col in range(dim):
        if echelon.add([row[col] for row in a], {col: ONE}) is not None:
            raise RankDeficient("parity system is singular")
    # rhs + sum_col c_col * A[:, col] = 0, so x = -c
    relation = echelon.add(list(rhs), {dim: ONE})
    neg = f.sub_table[ZERO]
    return [neg[relation.get(col, ZERO)] for col in range(dim)]


def encode_matrix_oracle(spec: CodeSpec, info: Info) -> Word:
    """Systematic encoding through the parity-check matrix directly.

    Information symbols go verbatim to the information positions; the
    redundant positions are solved from the linear parity system.  This
    is the independent reference for every other encoder.
    """
    f = spec.field
    parity_idx = spec.parity_positions()
    info_idx = spec.info_positions()
    _check_layout(f, info, "info", len(info_idx))
    h = check_matrix(spec)[: spec.n]
    nphi = len(spec.phi)
    add_t, mul_t, neg = f.add_table, f.mul_table, f.sub_table[ZERO]
    rhs = []
    for l in range(nphi):
        acc = ZERO
        for pos, v in zip(info_idx, info):
            acc = add_t[acc][mul_t[v][h[pos][l]]]
        rhs.append(neg[acc])
    a = [[h[pos][l] for pos in parity_idx] for l in range(nphi)]
    par = _solve_square(f, a, rhs)
    word = [ZERO] * spec.n
    for pos, v in zip(info_idx, info):
        word[pos] = v
    for pos, v in zip(parity_idx, par):
        word[pos] = v
    return word


# ---------------------------------------------------------------------------
# transform-based encoders


def _check_support(arr: Array2D, cells: frozenset[Cell], what: str) -> None:
    """AssertionError naming what unless arr is zero off the given cells."""
    for i, row in enumerate(arr):
        for j, v in enumerate(row):
            if v != ZERO and (i, j) not in cells:
                raise AssertionError(what)


def encode_nonsystematic(spec: CodeSpec, info: Info) -> Word:
    """Place information on the free staircase cells, extend by the point
    ideal, inverse-transform, read off the point cells.  For rs codes this
    is rs_encode_idft."""
    if spec.kind == "rs":
        return rs_encode_idft(spec.field, spec.r, info)
    f = spec.field
    cells = spec.carrier_cells("nonsystematic")
    _check_layout(f, info, "info", len(cells))
    values = {c: ZERO for c in spec.phi}
    values.update(zip(cells, info))
    cw = idft2(f, extend(values, spec.basis_all, f))
    _check_support(cw, spec.point_cells(), "inverse transform nonzero off the point cells")
    return [cw[p.x][p.y] for p in spec.points]


def encode_systematic(spec: CodeSpec, info: Info) -> Word:
    """Information verbatim at the information positions, redundancy
    generated by the recurrence of the redundant-point ideal (for rs codes
    this is rs_encode_euclid, the generator polynomial it generalizes).

    A 2-D code takes k symbols, the plain code's layout, or k symbols
    followed by one per zero point, the code lengthened by the
    zero-coordinate points; any other length is a ValueError naming the
    two.  info[:k] goes verbatim to the information positions and info[k:]
    after the n point values, so the word has the layout syndromes()
    reads.  The syndromes of that word, zero at the redundant points, are
    extended by the redundant-point basis; the inverse transform of the
    extension is the array red supported on the redundant points with
    those syndromes, and the codeword carries -red there.
    """
    if spec.kind == "rs":
        return rs_encode_euclid(spec.field, spec.r, info)
    f = spec.field
    _check_layout(f, info, "info", spec.k, len(spec.zero_points))
    word = [ZERO] * spec.n
    for h, v in zip(spec.info_positions(), info):
        word[h] = v
    word += info[spec.k :]
    known = dict(zip(spec.phi, syndromes(spec, word)))
    red = idft2(f, extend(known, spec.basis_wp, f))
    _check_support(red, spec._wp_cells, "redundancy array nonzero off the redundant points")
    neg = f.sub_table[ZERO]
    for h in spec.parity_positions():
        p = spec.points[h]
        word[h] = neg[red[p.x][p.y]]
    if any(v != ZERO for v in syndromes(spec, word)):
        raise AssertionError("systematic encoder produced a parity violation")
    return word


# ---------------------------------------------------------------------------
# zero-coordinate locations (lengthened code)


def analogue_dft(spec: CodeSpec, point: Point, value: Elt) -> Array2D:
    """Transform-analogue array of one symbol at one of the code's zero
    points, q-1 rows of q-1 element logs: out[i][j] = value * x^i * y^j
    with 0^0 = 1, so the support is a single row, column or cell."""
    f = spec.field
    _check_symbols(f, [value], "value")
    if point.x != ZERO and point.y != ZERO:
        raise NotAZeroPoint(f"{point} has no zero coordinate")
    if point not in spec.zero_points:
        raise ValueError(f"{point} is not a zero point of this code")
    n_side = f.q - 1
    mv = f.mul_table[value]
    rows = [monomial_logs(f, point, [(i, j) for j in range(n_side)]) for i in range(n_side)]
    return [[mv[e] for e in row] for row in rows]


# ---------------------------------------------------------------------------
# decoding


def decode(
    spec: CodeSpec,
    received: Word,
    mode: str = "systematic",
    stats: dict | None = None,
) -> tuple[Word, Info]:
    """Correct a received word and return (codeword, information).

    mode selects how the information is read back: "systematic" from the
    information positions, "nonsystematic" from the corrected word's
    transform at the free staircase cells (for rs, the negated transform
    at r..n-1).  The mode, the length and the symbols are checked before
    anything is decoded.  For 2-D codes the syndromes are the received
    word's transform on the defining set only, and the voting pass locates
    the errors and solves for their values, so a decode makes no full
    transform; rs codes use 1-D Berlekamp-Massey.  The corrected word
    always re-passes the parity check before it is returned.  When a dict
    is passed as stats a 2-D decode reports how many syndrome cells
    actually needed a vote ("voted_cells") and whether the certificate
    accepted before every cell was processed ("early_certificate").
    """
    f = spec.field
    if mode not in ("systematic", "nonsystematic"):
        raise ValueError(f"unknown mode {mode!r}")
    if len(received) == spec.n + len(spec.zero_points) and spec.zero_points:
        raise ExtendedDecodeUnsupported(
            "decoding of words with zero-coordinate positions is not supported"
        )
    if len(received) != spec.n:
        raise ValueError(f"received word must have length {spec.n}")
    s = syndromes(spec, received)  # validates the symbols
    if spec.kind == "rs":
        corrected = _rs_decode(spec, list(received), s)
    else:
        err = bms_with_voting(
            f, dict(zip(spec.phi, s)), spec.t_capability,
            ambient=spec.basis_all, support=spec.point_cells(), stats=stats,
        )
        sub_t = f.sub_table
        corrected = [sub_t[v][err[p.x][p.y]] for v, p in zip(received, spec.points)]
    if any(v != ZERO for v in syndromes(spec, corrected)):
        raise DecodingFailure("corrected word fails the parity check")
    if mode == "systematic":
        info = [corrected[h] for h in spec.info_positions()]
    elif spec.kind == "rs":
        neg = f.sub_table[ZERO]
        info = [neg[v] for v in dft1(f, corrected)[spec.r :]]
    else:
        info = dft2_cells(f, point_array(spec, corrected), spec.carrier_cells("nonsystematic"))
    return corrected, info


# ---------------------------------------------------------------------------
# RS codes


def rs_gen_poly(f: Field, r: int) -> list[Elt]:
    """Generator polynomial (x-1)(x-alpha)...(x-alpha^(r-1)), ascending
    coefficient logs, monic of degree r."""
    _check_redundancy(f, r)
    add_t, mul_t, neg = f.add_table, f.mul_table, f.sub_table[ZERO]
    g = [ONE]
    for i in range(r):
        m_root = mul_t[neg[i]]  # times -alpha^i
        nxt = [ZERO] * (len(g) + 1)
        for d, c in enumerate(g):
            nxt[d + 1] = add_t[nxt[d + 1]][c]
            nxt[d] = add_t[nxt[d]][m_root[c]]
        g = nxt
    return g


def rs_encode_euclid(f: Field, r: int, info: Info) -> Word:
    """Systematic RS encoding by Euclidean division: c = I - (I mod G).

    info occupies coefficients r..n-1; parity lands on 0..r-1.
    """
    n = f.q - 1
    _check_redundancy(f, r)
    _check_layout(f, info, "info", n - r)
    g = rs_gen_poly(f, r)
    sub_t, mul_t = f.sub_table, f.mul_table
    # remainder of I(x) = sum info[t] x^(r+t) modulo monic g
    rem = [ZERO] * r + list(info)
    for d in range(n - 1, r - 1, -1):
        c = rem[d]
        if c == ZERO:
            continue
        mc = mul_t[c]
        for t, gc in enumerate(g):
            rem[d - r + t] = sub_t[rem[d - r + t]][mc[gc]]
    neg = sub_t[ZERO]
    return [neg[v] for v in rem[:r]] + list(info)


def rs_encode_idft(f: Field, r: int, info: Info) -> Word:
    """Non-systematic RS encoding c_h = sum_i I_i alpha^(-ih) with the
    information on indices r..n-1."""
    n = f.q - 1
    _check_redundancy(f, r)
    _check_layout(f, info, "info", n - r)
    coeffs = [ZERO] * r + list(info)
    neg = f.sub_table[ZERO]
    return [neg[v] for v in idft1(f, coeffs)]


def rs_encode_dh(f: Field, r: int, info: Info) -> Word:
    """Systematic RS encoding through the shift-register sequence d_h.

    d_h = I(alpha^h) for h < r and then continues by the recursion with
    the generator coefficients; the inverse transform of (d_h) recovers
    the remainder R(x), and c = I - R.  Must match rs_encode_euclid.
    """
    n = f.q - 1
    _check_redundancy(f, r)
    _check_layout(f, info, "info", n - r)
    g = rs_gen_poly(f, r)
    add_t, sub_t, mul_t = f.add_table, f.sub_table, f.mul_table
    neg = sub_t[ZERO]
    coeffs = [ZERO] * r + list(info)
    d = []
    for h in range(r):
        acc = ZERO  # I(alpha^h)
        for t, c in enumerate(coeffs):
            if c != ZERO:
                acc = add_t[acc][(c + t * h) % n]
        d.append(acc)
    for h in range(r, n):
        acc = ZERO
        for i in range(r):
            acc = add_t[acc][mul_t[g[i]][d[i + h - r]]]
        d.append(neg[acc])
    rem = idft1(f, d)
    return [sub_t[c][rv] for c, rv in zip(coeffs, rem)]


def _rs_decode(spec: CodeSpec, received: Word, s: list[Elt]) -> Word:
    """The corrected word of a received rs word with syndromes s (1-D
    Berlekamp-Massey)."""
    f = spec.field
    add_t, sub_t, mul_t = f.add_table, f.sub_table, f.mul_table
    neg = sub_t[ZERO]
    n = f.q - 1
    r = spec.r
    if all(v == ZERO for v in s):
        return list(received)
    # 1-D Berlekamp-Massey on the syndrome prefix
    cpoly = {0: ONE}
    bpoly = {0: ONE}
    big_l, gap, bdisc = 0, 1, ONE
    for i in range(r):
        d = s[i]
        for j in range(1, big_l + 1):
            cj = cpoly.get(j, ZERO)
            if cj != ZERO:
                d = add_t[d][mul_t[cj][s[i - j]]]
        if d == ZERO:
            gap += 1
            continue
        m_adj = mul_t[f.div(d, bdisc)]
        updated = dict(cpoly)
        for j, bj in bpoly.items():
            updated[j + gap] = sub_t[updated.get(j + gap, ZERO)][m_adj[bj]]
        if 2 * big_l <= i:
            bpoly, bdisc, gap, big_l = cpoly, d, 1, i + 1 - big_l
        else:
            gap += 1
        cpoly = updated
    # an error of weight w <= t has a transform of linear complexity w, so
    # L <= w, L + w <= r and this continuation is that transform
    taps = [mul_t[cpoly.get(j, ZERO)] for j in range(big_l + 1)]
    ext = list(s)
    for i in range(r, n):
        acc = ZERO
        for j in range(1, big_l + 1):
            acc = add_t[acc][taps[j][ext[i - j]]]
        ext.append(neg[acc])
    err = idft1(f, ext)
    if sum(1 for v in err if v != ZERO) > spec.t_capability:
        raise DecodingFailure("error estimate exceeds capability")
    return [sub_t[v][e] for v, e in zip(received, err)]


# ---------------------------------------------------------------------------
# persistence

_SPEC_HEADER = "# agcodes-spec v1"


def _spec_lines(spec: CodeSpec) -> list[str]:
    """The lines of the spec file of a code, header first."""
    f = spec.field
    lines = [_SPEC_HEADER]
    lines.append(f"field {f.p} {f.m} " + " ".join(map(str, f.primitive_poly)))
    lines.append(f"kind {spec.kind}")
    if spec.kind == "rs":
        lines.append(f"r {spec.r}")
        return lines
    lines.append(f"m {spec.m}")
    if spec.kind == "curve":
        terms = " ".join(f"{i},{j},{c}" for (i, j), c in spec.curve.defining_poly)
        lines.append(f"curve {spec.curve.a} {spec.curve.b} {terms}")
    lines.append("points " + " ".join(f"{p.x},{p.y}" for p in spec.points))
    if spec.zero_points:
        lines.append("zero_points " + " ".join(f"{p.x},{p.y}" for p in spec.zero_points))
    lines.append("wp " + " ".join(map(str, spec.parity_positions())))
    lines.append("[basis_wp]")
    lines += spec.basis_wp.serialize().splitlines()
    lines.append("[basis_all]")
    lines += spec.basis_all.serialize().splitlines()
    return lines


def save_spec(spec: CodeSpec, path: str) -> None:
    """Persist a CodeSpec as plain text (versioned header line)."""
    with open(path, "w") as fh:
        fh.write("\n".join(_spec_lines(spec)) + "\n")


def _spec_entries(path: str, lines: Sequence[str]) -> dict[str, list[str]]:
    """The keys and [sections] of a spec file body.  A key maps to the
    tokens of its line, a section to its nonblank lines with whitespace
    collapsed."""
    entries: dict[str, list[str]] = {}
    in_section = False
    for line in lines:
        toks = line.split()
        if not toks:
            continue
        if line.startswith("["):
            name, value, in_section = line.strip(), [], True
        elif in_section:
            entries[name].append(" ".join(toks))
            continue
        else:
            name, value = toks[0], toks[1:]
        if name in entries:
            raise ValueError(f"{path}: {name} appears twice")
        entries[name] = value
    return entries


def int_token(where: str, tok: str, what: str, count: int = 1, sep: str = ",") -> list[int]:
    """The count sep-separated integers of one token; ValueError naming
    where the token came from (a spec file key, a command-line flag)."""
    parts = tok.split(sep)
    try:
        if len(parts) == count:
            return [int(v) for v in parts]
    except ValueError:
        pass
    raise ValueError(f"{where} token {tok!r} must be {what}")


def load_spec(path: str) -> CodeSpec:
    """Read a spec file written by save_spec.

    The file names its construction: the code is rebuilt from field,
    kind, m (r for rs) and curve, and every key and section must then
    equal the rebuilt code's rendering.
    Construction is deterministic and a reduced Groebner basis is unique,
    so a file that matches holds exactly the constructed code, and
    nothing in it is re-proved.  ValueError names the file and the first
    key, section or token that is malformed, missing, extra or different.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != _SPEC_HEADER:
        raise ValueError(f"{path}: not an agcodes spec file")
    have = _spec_entries(path, lines[1:])

    def value(key: str) -> list[str]:
        if key not in have:
            raise ValueError(f"{path}: missing key {key!r}")
        return have[key]

    def num(key: str, tok: str) -> int:
        return int_token(f"{path}: {key}", tok, "an integer")[0]

    field_nums = [num("field", tok) for tok in value("field")]
    if len(field_nums) < 2:
        raise ValueError(f"{path}: field needs p, m and the polynomial coefficients")
    kind = " ".join(value("kind"))
    if kind not in ("curve", "hcrs", "rs"):
        raise ValueError(f"{path}: unknown kind {kind!r}")
    param = "r" if kind == "rs" else "m"
    m = num(param, " ".join(value(param)))
    curve = None
    if kind == "curve":
        toks = value("curve")
        if len(toks) < 2:
            raise ValueError(f"{path}: curve needs a, b and the polynomial terms")
        terms = {}
        for tok in toks[2:]:
            i, j, c = int_token(f"{path}: curve", tok, "three integers i,j,c", 3)
            terms[(i, j)] = c
        try:
            curve = curve_spec(num("curve", toks[0]), num("curve", toks[1]), terms)
        except ValueError as e:
            raise ValueError(f"{path}: curve: {e}") from None
    try:
        f = field_new(field_nums[0], field_nums[1], field_nums[2:])
        spec = make_code(f, kind, m, curve)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None

    want = _spec_entries(path, _spec_lines(spec)[1:])
    for key, want_toks in want.items():
        if key not in have:
            what = f"section {key}" if key.startswith("[") else f"key {key!r}"
            raise ValueError(f"{path}: missing {what}")
        for k, (tok, w) in enumerate(zip_longest(have[key], want_toks)):
            if tok != w:
                raise ValueError(
                    f"{path}: {key} token {tok!r} at position {k} differs from "
                    f"{w!r} in the code rebuilt from field, kind, m and curve"
                )
    for key in have:
        if key not in want:
            raise ValueError(f"{path}: {key} is not part of this {kind} spec")
    return spec
