"""Encoders and decoders for the three code families.

A CodeSpec fully instantiates a code: the field, the monomial order and
defining set, the code locations, the redundant/information point split
with its precomputed vanishing-ideal bases, and the derived (n, k).  The
basis of all code points is the reduced Groebner basis of its generators
(bms.groebner_basis); that of the redundant points is the monomial scan
of bms.vanishing_ideal_basis on them, checked to have the defining set
as its staircase.

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
first r locations, and the rest).  In a 2-D information array the
symbols sit on spec.carrier_cells(mode): the information points' cells
(systematic) or the free staircase cells, the point-ideal staircase
minus the defining set (nonsystematic).  An rs code has no such array,
and both raise ValueError for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import zip_longest
from typing import Sequence

from .bms import (
    GroebnerBasis,
    _Echelon,
    bms_with_voting,
    extend,
    groebner_basis,
    vanishing_ideal_basis,
)
from .errors import (
    BadRedundancy,
    DecodingFailure,
    ExtendedDecodeUnsupported,
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
    code_params,
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

    def info_cells(self) -> list[Cell]:
        """Carrier cells for non-systematic information symbols: the
        staircase of the full point ideal minus the defining set."""
        return self.carrier_cells("nonsystematic")

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


def _check_info(f: Field, info: Sequence, length: int) -> None:
    """Raise ValueError unless info is length element logs; a bad symbol
    is reported before a bad length."""
    _check_symbols(f, info, "info")
    if len(info) != length:
        raise ValueError(f"info must have length {length}")


def _check_redundancy(f: Field, r: int) -> None:
    """Raise BadRedundancy unless an rs code over f has redundancy r."""
    if not 1 <= r < f.q - 1:
        raise BadRedundancy(f"need 1 <= r < {f.q - 1}, got {r}")


# ---------------------------------------------------------------------------
# construction


def _select_redundant_points(
    f: Field, points: Sequence[Point], phi: Sequence[Cell], order: WeightedCurveOrder
) -> tuple[list[Point], list[Point], GroebnerBasis]:
    """Pick the redundant-point set whose vanishing-ideal staircase is the
    defining set, and that ideal's reduced Groebner basis.

    Greedy rank selection: walk the points in order and keep each one
    whose defining-set evaluation column is independent of the columns
    kept so far, until n-k are kept, so that the kept points' evaluation
    matrix on phi is invertible.

    The basis is vanishing_ideal_basis() of the kept points.  Its
    staircase is checked to be phi and each element to vanish at every
    kept point.
    """
    nk = len(phi)
    chosen: list[Point] = []
    echelon = _Echelon(f)
    for p in points:
        if echelon.add(monomial_logs(f, p, phi), p) is None:
            chosen.append(p)
            if len(chosen) == nk:
                break
    if len(chosen) < nk:
        raise NonGenericSupport("defining-set evaluation matrix is rank deficient")
    basis = vanishing_ideal_basis(chosen, order, f)
    if set(basis.delta) != set(phi):
        raise AssertionError("the redundant-point staircase is not the defining set")
    if any(v != ZERO for g in basis.elements for v in poly_values(f, g.coeffs, chosen)):
        raise AssertionError("a redundant-point basis element does not vanish")
    wpset = set(chosen)
    return chosen, [p for p in points if p not in wpset], basis


def _ambient_basis(
    f: Field, order: WeightedCurveOrder, curve: CurveSpec | None, points: Sequence[Point]
) -> GroebnerBasis:
    """The reduced Groebner basis of the ideal of all code points.

    It is generated by x^(q-1) - 1, y^(q-1) - 1 and, for curve codes, the
    curve equation: their common zeros are the code points, and the ideal
    is radical, since both univariate generators are squarefree
    (Seidenberg's lemma).  The staircase size and the vanishing of every
    element at every point are checked; together they prove the basis is
    that of the points' ideal.
    """
    n = f.q - 1
    minus_one = f.neg(ONE)
    gens = [{(n, 0): ONE, (0, 0): minus_one}, {(0, n): ONE, (0, 0): minus_one}]
    if curve is not None:
        gens.append(curve.poly_dict())
    basis = groebner_basis(f, gens, order)
    if len(basis.delta) != len(points):
        raise AssertionError("staircase size must equal the point count")
    if any(v != ZERO for g in basis.elements for v in poly_values(f, g.coeffs, points)):
        raise AssertionError("an ambient basis element does not vanish")
    return basis


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
    all_points = enumerate_points(curve, f, include_zero=True)
    points = [p for p in all_points if p.x != ZERO and p.y != ZERO]
    zero_points = [p for p in all_points if p.x == ZERO or p.y == ZERO]
    code_params(len(points), order, m, f, genus=curve.genus)  # rejects a bad m
    phi = defining_set(order, m, f)
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


def preset(name: str, m: int | None = None, r: int | None = None) -> CodeSpec:
    """Named code constructions over the canonical GF(9).  The rs preset
    takes r only, the 2-D presets m only."""
    if name not in _PRESET_KINDS:
        raise ValueError(f"unknown preset {name!r}; have {', '.join(PRESETS)}")
    kind, default = _PRESET_KINDS[name]
    param, other = (r, m) if kind == "rs" else (m, r)
    if other is not None:
        raise ValueError(f"preset {name} takes {'r, not m' if kind == 'rs' else 'm, not r'}")
    f = gf9()
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
    """The word at its point cells, zero elsewhere."""
    arr = Array2D.zeros(spec.field.q)
    data = arr.data
    for p, v in zip(spec.points, word):
        data[p.x][p.y] = v
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
    _check_symbols(f, word, "word")
    n, full = spec.n, spec.n + len(spec.zero_points)
    if len(word) not in (n, full):
        raise ValueError(f"word must have length {n}" + (f" or {full}" if full != n else ""))
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
        echelon.add(row[:], k)
    return len(echelon.rows)


def _solve_square(f: Field, a: list[list[Elt]], rhs: list[Elt]) -> list[Elt]:
    """Solve a square system; raises RankDeficient when singular."""
    dim = len(a)
    echelon = _Echelon(f)
    for col in range(dim):
        if echelon.add([row[col] for row in a], col) is not None:
            raise RankDeficient("parity system is singular")
    # rhs + sum_col c_col * A[:, col] = 0, so x = -c
    relation = echelon.add(list(rhs), dim)
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
    _check_info(f, info, len(info_idx))
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
    for i, row in enumerate(arr.data):
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
    cells = spec.info_cells()
    _check_info(f, info, len(cells))
    values = {c: ZERO for c in spec.phi}
    values.update(zip(cells, info))
    cw = idft2(f, extend(values, spec.basis_all, f))
    _check_support(cw, spec.point_cells(), "inverse transform nonzero off the point cells")
    return [cw[(p.x, p.y)] for p in spec.points]


def _encode_systematic(spec: CodeSpec, info: Info) -> Word:
    """The systematic encoder of a 2-D code, plain or lengthened.

    info[:k] goes verbatim to the information positions and info[k:] (the
    zero-point symbols of a lengthened word, if any) after the n point
    values.  The syndromes of that word, zero at the redundant points, are
    extended by the redundant-point basis; the inverse transform of the
    extension is the array red supported on the redundant points with
    those syndromes, and the codeword carries -red there.
    """
    f = spec.field
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
        word[h] = neg[red[(p.x, p.y)]]
    if any(v != ZERO for v in syndromes(spec, word)):
        raise AssertionError("systematic encoder produced a parity violation")
    return word


def encode_systematic(spec: CodeSpec, info: Info) -> Word:
    """Information verbatim at the information positions, redundancy
    generated by the recurrence of the redundant-point ideal (for rs codes
    this is rs_encode_euclid, the generator polynomial it generalizes)."""
    if spec.kind == "rs":
        return rs_encode_euclid(spec.field, spec.r, info)
    _check_info(spec.field, info, spec.k)
    return _encode_systematic(spec, info)


# ---------------------------------------------------------------------------
# zero-coordinate locations (lengthened code)


def analogue_dft(spec: CodeSpec, point: Point, value: Elt) -> Array2D:
    """Transform-analogue array of one symbol at one of the code's zero
    points: out[i][j] = value * x^i * y^j with 0^0 = 1, so the support is
    a single row, column or cell."""
    f = spec.field
    _check_symbols(f, [value], "value")
    if point.x != ZERO and point.y != ZERO:
        raise NotAZeroPoint(f"{point} has no zero coordinate")
    if point not in spec.zero_points:
        raise ValueError(f"{point} is not a zero point of this code")
    n_side = f.q - 1
    mv = f.mul_table[value]
    rows = [monomial_logs(f, point, [(i, j) for j in range(n_side)]) for i in range(n_side)]
    return Array2D(f.q, [[mv[e] for e in row] for row in rows])


def encode_systematic_extended(spec: CodeSpec, info: Info) -> Word:
    """Systematic encoding of the code lengthened by the zero-coordinate
    points.  info carries the information-point symbols followed by one
    symbol per zero point; the output word is the n point values followed
    by the zero-point values, the layout syndromes() reads."""
    if not spec.zero_points:
        _check_symbols(spec.field, info, "info")  # a bad symbol is named first
        raise ValueError("this code has no zero-coordinate points")
    _check_info(spec.field, info, spec.k + len(spec.zero_points))
    return _encode_systematic(spec, info)


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
            f, dict(zip(spec.phi, s)), spec.order, spec.t_capability,
            ambient=spec.basis_all, support=spec.point_cells(), stats=stats,
        )
        sub_t = f.sub_table
        corrected = [sub_t[v][err[(p.x, p.y)]] for v, p in zip(received, spec.points)]
    if any(v != ZERO for v in syndromes(spec, corrected)):
        raise DecodingFailure("corrected word fails the parity check")
    if mode == "systematic":
        info = [corrected[h] for h in spec.info_positions()]
    elif spec.kind == "rs":
        neg = f.sub_table[ZERO]
        info = [neg[v] for v in dft1(f, corrected)[spec.r :]]
    else:
        info = dft2_cells(f, point_array(spec, corrected), spec.info_cells())
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
    _check_info(f, info, n - r)
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
    _check_info(f, info, n - r)
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
    _check_info(f, info, n - r)
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
