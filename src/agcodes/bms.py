"""Two-dimensional linear-recurrence synthesis and Groebner bases of
vanishing ideals.

Everything here works on (q-1) x (q-1) arrays of field elements whose
recurrences live in the doubly cyclic ring K[x,y]/(x^(q-1)-1, y^(q-1)-1):
a polynomial f with leading cell t "holds at shift w" when
sum_s f_s * u[(s + w - t) mod (q-1)] = 0 (Sakata 1988).  Every recurrence
bms reads is held in that form, monic, as its leading cell lt and its
tail: the (e0, e1, coeff) offsets e = s - lt of its other terms.  It
holds at shift w when

    u[w] + sum coeff * u[(w + e) mod (q-1)] = 0,

so moving a polynomial to another leading cell changes only lt.  One
reader, _tail_sum(), gives the sum over a tail at w, or None when it
reads an unknown cell; Sakata's test, the vote's sums, the ambient
derivations and extend()'s fill plan all read through it.

Two synthesis entry points:

* SakataState is the entry point for an order prefix of N^2: cells fed
  to process() in the enumeration of a translation-invariant order run
  Sakata's incremental two-dimensional Berlekamp-Massey update (Sakata
  1988) on the periodic extension of the grid, reading every cell mod
  q-1.  A polynomial failing at cell c and moved to a new corner t2 is
  kept as it is when t2 is not <= c, and otherwise corrected by a
  failure recorded before c.  Every test reads only processed cells.
  The state is the grid, F, the failure records G and the column
  heights of the staircase, the union of G's rectangles [0, span].

* bms_with_voting() decodes syndrome arrays known only on the defining
  set: unknown cells are inferred one at a time by majority voting over
  Feng-Rao pair predictions drawn from the current minimal polynomial
  set F, until F locates the errors.  A vote (_vote) evaluates numbers:
  the predictions are affine in the unknown cell, so the values 0 and 1
  written there give them all.  A recurrence that holds on the
  transform of an error array vanishes at its nonzero cells (the 2-D
  locator ideal), so the certificate takes the code points where every
  polynomial of F vanishes, at most t of them, and solves for the error
  values there from the known syndromes with the one elimination kernel
  (the 2-D Forney step of Sakata, Jensen and Hoeholdt).  It returns the
  error array; no grid is completed and no inverse transform taken.  The
  full syndrome array is its dft2, and the locator basis is
  vanishing_ideal_basis() of its nonzero cells.  The locate step is a
  packed scan (_ZeroScan): a polynomial's values at every code point are
  one slot-wise sum of packed columns, in the transform's slot layout,
  decoded once, for every field.  A decode is refused at the first cell
  after which the staircase holds more than t cells: on a word within t
  of a codeword the votes are exact, every processed cell is a syndrome
  of its error, and the staircase of such a prefix never outgrows the
  error weight (Sakata's lower bound and Blahut's theorem).
  The cells processed are the order prefix of N^2 up to the last grid
  cell, the domain that Sakata's update and the Feng-Rao vote assume
  (Sakata, Justesen, Madelung, Jensen and Hoeholdt 1995); the (q-1) x
  (q-1) torus is not one.

Every order is a WeightedCurveOrder, translation invariant (s < t implies
s + d < t + d), and takes one code path through the point-ideal scan,
Sakata's update, the vote and extend(): a curve code's own weights, or
the graded WeightedCurveOrder(1, 1) of hcrs codes.

Construction takes its two point-ideal bases without any synthesis.
vanishing_ideal_basis() is the routine for the ideal of an arbitrary
point set: a monomial scan on the points' evaluation columns.  For all
code points codec scans only those off the curve's full x-lines, and
_normal_form() reduces the curve by the (lt, tail) forms of the products
it forms.  The redundant points' basis is read off the elimination of
codec's greedy walk, whose _Echelon rows carry each point's corner
monomials.  The CLI runs the scan on the located error points.

extend() fills a partially known array from its values on the basis
staircase, using the recurrences of the basis with cyclic index wrap;
no recurrence is re-checked afterwards, since the staircase values
determine the array.  Partial arrays are dicts from cell to value; a
grid (a list of rows, None where the value is unknown) is the working
store.  A cell is filled by the first recurrence led at or below it
whose tail reads are all known: it forces minus its tail sum there.
Which recurrence fills which cell depends only on the basis, never on
the values, so extend() takes that choice once per basis, in one pass
over the grid in the basis order on a grid holding ZERO at its known
cells, and replays the fill plan it gives on every call.  _forced()
makes the same choice on values: the decoder derives with it every cell
the ambient recurrences reach.

What the decoder reads of its ambient basis, the monic ambient rules
and the zero scan's columns, depends only on the basis, the field and
the support, never on a word.  So the first bms_with_voting() call
builds it (_decoder), never construction, and caches it on the basis
beside extend()'s plans, so it is freed with the code.  The columns
grow with the cells that F's polynomials touch, and level off after a
few words: with tracemalloc and sys.getsizeof, after 100 decodes at t
the columns held 5-12 KB on the benchmark's scale codes and 0.20 MB at
Hermitian GF(64) m = 150 (57 cells), and after 40 decodes 1.3 MB at
GF(256) m = 300 (38 cells); the slot layout adds 6-150 KB, 49 KB and
0.33 MB.

The grid's enumeration under an order depends only on q and the order,
never on a word, so grid_cells() memoizes it, keyed by the value of
(q, order): one entry per (q, order) in use, filled on first use, which
extend() and the decoder of a code share.  The entry also holds the
processed prefix and its weight classes, which the vote scans.  At
q = 256 the prefix holds 2.0 times the grid's 65,025 cells, and an entry
holds 13.6-14.5 MB, measured with tracemalloc, most of it the cell
tuples.  Every cell a caller hands in must lie in the grid; extend() and
bms_with_voting() reject any other with ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import groupby, product
from types import MappingProxyType
from typing import AbstractSet, Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    DecodingFailure,
    IncompleteCover,
    InconsistentKnownValues,
    ZeroCoordinatePoint,
)
from .galois import Elt, Field, ONE, ZERO
from .geometry import (
    Cell,
    Point,
    WeightedCurveOrder,
    corners,
    is_downward_closed,
    monomial_logs,
)
# dft2 and idft2 stay bound here although no bms path calls them:
# perfbench/tracer.py and the transform-count test rebind them
from .transform import Array2D, _slot_layout, dft2, idft2

# ---------------------------------------------------------------------------
# polynomials


class BivariatePoly:
    """Sparse bivariate polynomial with its leading cell under an order."""

    __slots__ = ("coeffs", "lt")

    def __init__(self, coeffs: dict[Cell, Elt], order: WeightedCurveOrder):
        self.coeffs = {s: c for s, c in coeffs.items() if c != ZERO}
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading term")
        self.lt = max(self.coeffs, key=order.key)

    # equal coefficients are the same polynomial; coeffs is never changed
    # after construction, so the hash holds
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        terms = ", ".join(f"({i},{j}):{c}" for (i, j), c in sorted(self.coeffs.items()))
        return f"BivariatePoly[{terms}]"


# a monic polynomial's terms other than its leading one, as (e0, e1,
# coeff): the term coeff * x^(lt + e)
Tail = tuple[tuple[int, int, Elt], ...]


def _monic(f: Field, poly: BivariatePoly) -> tuple[Cell, Tail]:
    """poly scaled to be monic, as its leading cell and tail."""
    lt = poly.lt
    scale = f.mul_table[f.inv(poly.coeffs[lt])]
    terms = poly.coeffs.items()
    return lt, tuple((s[0] - lt[0], s[1] - lt[1], scale[c]) for s, c in terms if s != lt)


def _tail_sum(f: Field, tail: Tail, grid: list[list], w: Cell) -> Elt | None:
    """sum coeff * u[(w + e) mod (q-1)] over the tail, reading the grid
    cyclically; None when it reads an unknown (None) cell."""
    add_t, mul_t = f.add_table, f.mul_table
    n = len(grid)
    w0, w1 = w
    acc = ZERO
    for e0, e1, c in tail:
        v = grid[(w0 + e0) % n][(w1 + e1) % n]
        if v is None:
            return None
        acc = add_t[acc][mul_t[c][v]]
    return acc


@dataclass(frozen=True)
class GroebnerBasis:
    """Minimal polynomial set with its staircase (delta set)."""

    elements: tuple[BivariatePoly, ...]
    delta: tuple[Cell, ...]
    order: WeightedCurveOrder
    # extend()'s fill plan per field, and bms_with_voting()'s _Decoder per
    # (field, support), built on first use; not part of the basis's value,
    # so equal bases keep their own
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _decoders: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def serialize(self) -> str:
        """Text form: one block per polynomial, lines of 'i j coefflog'."""
        lines = [f"basis elements={len(self.elements)} delta={len(self.delta)}"]
        for poly in self.elements:
            lines.append("poly")
            cells = sorted(poly.coeffs, key=self.order.key, reverse=True)
            for (i, j) in cells:
                lines.append(f"{i} {j} {poly.coeffs[(i, j)]}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# small helpers


def _leq(a: Cell, b: Cell) -> bool:
    return a[0] <= b[0] and a[1] <= b[1]


class _Enumeration(NamedTuple):
    """An order's enumeration: the (q-1) x (q-1) grid's cells, and the
    order prefix of N^2 that the decoder processes, with its weight
    classes (weight -> the prefix cells of that weight, in enumeration
    order).

    The prefix is every cell of N^2 whose key is at most the last grid
    cell's.  It is finite, since every weight is positive, and holds the
    grid.
    """

    grid: tuple[Cell, ...]
    prefix: tuple[Cell, ...]
    classes: Mapping[int, tuple[Cell, ...]]


@lru_cache(maxsize=None)
def _enumeration(q: int, order: WeightedCurveOrder) -> _Enumeration:
    n = q - 1
    grid = sorted(((i, j) for i in range(n) for j in range(n)), key=order.key)
    last = order.key(grid[-1])
    box = product(range(last[0] // order.a + 1), range(last[0] // order.b + 1))
    prefix = sorted((c for c in box if order.key(c) <= last), key=order.key)
    classes = {w: tuple(cs) for w, cs in groupby(prefix, key=order.weight)}
    return _Enumeration(tuple(grid), tuple(prefix), MappingProxyType(classes))


def grid_cells(q: int, order: WeightedCurveOrder) -> tuple[Cell, ...]:
    """Every grid cell, sorted by the order's key.

    Memoized together with the processed prefix and its weight classes,
    keyed by the value of (q, order), one entry per (q, order) in use: an
    equal order built elsewhere, say by load_spec, shares the entry, and
    every call returns the same immutable tuple.
    """
    return _enumeration(q, order).grid


def _check_in_grid(cells: Iterable[Cell], n: int) -> None:
    for c in cells:
        if not (0 <= c[0] < n and 0 <= c[1] < n):
            raise ValueError(f"cell {c} lies outside the {n}x{n} grid")


# ---------------------------------------------------------------------------
# the one elimination kernel


class _Echelon:
    """Incremental Gaussian elimination over a field, each row carrying a
    sparse vector of the caller's.

    add(vec, combo) reduces vec against the rows kept so far and applies
    the same row operations to combo, a dict from keys to elements (both
    in place; the caller hands them over).  If something nonzero is left
    of vec, it is kept as a new row with its combo, and None is returned.
    Otherwise vec depends on the vectors kept before it, and its reduced
    combo is returned.  Coefficients may be ZERO.  Dependent vectors are
    not kept, so len(rows) is the rank of everything added, and a row is
    zero at the pivots of the rows before it.

    With combo = {label: ONE} a row carries the labelled combination of
    inputs that formed it, and a returned relation {label: ONE, other:
    coeff} says sum(coeff * input vector) = 0, where every other label is
    one of a kept vector.
    """

    __slots__ = ("f", "rows")

    def __init__(self, f: Field):
        self.f = f
        # (reduced vector, indices of its nonzero entries with the pivot
        # first, the combo reduced with it)
        self.rows: list[tuple[list[Elt], list[int], dict]] = []

    def add(self, vec: list[Elt], combo: dict) -> dict | None:
        f = self.f
        sub_t, mul_t = f.sub_table, f.mul_table
        for rvec, support, rcombo in self.rows:
            c = vec[support[0]]
            if c == ZERO:
                continue
            mf = mul_t[f.div(c, rvec[support[0]])]
            for k in support:
                vec[k] = sub_t[vec[k]][mf[rvec[k]]]
            for s, rc in rcombo.items():
                combo[s] = sub_t[combo.get(s, ZERO)][mf[rc]]
        support = [k for k, v in enumerate(vec) if v != ZERO]
        if not support:
            return combo
        self.rows.append((vec, support, combo))
        return None


# ---------------------------------------------------------------------------
# the ideal of a point set


def vanishing_ideal_basis(
    points: Sequence[Point], order: WeightedCurveOrder, f: Field
) -> GroebnerBasis:
    """The reduced Groebner basis of the ideal of polynomials vanishing at
    all points, with its staircase (Moeller and Buchberger 1982).

    Monomial x^t maps to its evaluation column, x^t at each point; a
    polynomial lies in the ideal exactly when its combination of columns
    vanishes.  Cells are taken from a heap in the order, starting at
    (0, 0); one at or above a found leading cell is skipped.  An
    independent column joins the staircase and pushes (i+1, j) and
    (i, j+1).  A dependent column's relation, monic at t with its tail in
    the staircase, is the reduced element led by t.  So only the
    staircase cells and its corners are evaluated.  The points need
    nonzero coordinates, so x^(q-1) - 1 and y^(q-1) - 1 lie in the ideal
    and the scan ends; the staircase holds one cell per point.
    """
    if any(p.x == ZERO or p.y == ZERO for p in points):
        raise ZeroCoordinatePoint("vanishing ideal needs nonzero coordinates")
    if len(set(points)) != len(points):
        raise ValueError("duplicate points")
    key = order.key
    heap = [(key((0, 0)), (0, 0))]
    pushed = {(0, 0)}
    lts: list[Cell] = []
    basis: list[BivariatePoly] = []
    delta: list[Cell] = []
    echelon = _Echelon(f)
    while heap:
        t = heappop(heap)[1]
        if any(_leq(lt, t) for lt in lts):
            continue
        # x(P)^i * y(P)^j is symmetric in the cell and the point's logs,
        # so the kernel gives the column of t over the points
        relation = echelon.add(monomial_logs(f, t, points), {t: ONE})
        if relation is not None:
            basis.append(BivariatePoly(relation, order))
            lts.append(t)
            continue
        delta.append(t)
        for s in ((t[0] + 1, t[1]), (t[0], t[1] + 1)):
            if s not in pushed:
                pushed.add(s)
                heappush(heap, (key(s), s))
    if len(delta) != len(points):
        raise AssertionError("staircase size must equal the point count")
    return GroebnerBasis(tuple(basis), tuple(delta), order)


# ---------------------------------------------------------------------------
# reduction by a basis


def _normal_form(
    f: Field, poly: dict[Cell, Elt], basis: list[tuple[Cell, Tail]], key
) -> dict[Cell, Elt]:
    """The remainder of poly on full reduction by the monic (lt, tail)
    pairs of basis.

    The terms are taken largest first from a heap.  A term a * x^c with a
    leading cell at or below c is cancelled by that polynomial: a * coeff
    is subtracted at c + e for each tail term, which is smaller than c
    (the order is translation invariant).  Any other term is part of the
    remainder.
    """
    sub_t, mul_t = f.sub_table, f.mul_table
    work = dict(poly)
    heap = [(tuple(-v for v in key(c)), c) for c in work]
    heapify(heap)
    rem: dict[Cell, Elt] = {}
    while heap:
        c = heappop(heap)[1]
        a = work.pop(c, ZERO)
        if a == ZERO:  # cancelled after it was pushed
            continue
        red = next((g for g in basis if _leq(g[0], c)), None)
        if red is None:
            rem[c] = a
            continue
        ma = mul_t[a]
        for e0, e1, gc in red[1]:
            s = (c[0] + e0, c[1] + e1)
            old = work.get(s, ZERO)
            if old == ZERO:
                heappush(heap, (tuple(-v for v in key(s)), s))
            work[s] = sub_t[old][ma[gc]]
    return rem


# ---------------------------------------------------------------------------
# Sakata's incremental synthesis on an order prefix


@dataclass
class _Record:
    """A past failure: the tail of the polynomial led by lt, its nonzero
    discrepancy, and the span from lt to the cell lt + span where it
    failed."""

    tail: Tail
    lt: Cell
    disc: Elt
    span: Cell


class SakataState:
    """Minimal polynomial set F and auxiliary failures G, updated per cell.

    This is the entry point for an order prefix of N^2.  Cells arrive in
    the order's enumeration, and the array is periodic with period q-1 in
    each index: a value is kept in grid at the cell mod q-1 (None until
    processed), and every read takes its indices mod q-1.  Each element
    of F is a monic (lt, tail) pair, and the leading cells are the
    corners of the staircase.  A test at w reads u[w] and the cells
    w + e of the tail, each with key below w's by translation
    invariance, so on an order prefix every test is computed and none is
    skipped.

    The staircase is kept as column heights, (i, j) in it iff
    j < heights[i]: a failure at c of the polynomial led by lt raises
    heights[0 .. c0 - lt0] to at least c1 - lt1 + 1.  They do not
    increase, and geometry.corners lists the corners from them.

    When polynomials fail at cell c, each new corner t2 gets a surviving
    polynomial moved to t2 if one lies below it.  A move changes only the
    leading cell: t2 takes the very tail object.  Otherwise a failing
    polynomial f is moved to t2, and then:

    * t2 not <= c: f's tail is kept as it is; no test led by t2 reaches c
      yet.
    * t2 <= c: a failure g recorded before c whose span covers c - t2 is
      moved and scaled so that its discrepancy cancels f's at c, and its
      terms are merged into f's tail; the one with the largest span is
      taken.

    G keeps only its span frontier (pairwise incomparable spans), as
    Sakata keeps one record per staircase corner.  That takes the same
    record as keeping every failure: a span covered by another is never
    the largest key among the records covering a target, and of equal
    spans the older record, with the smaller leading cell, is kept.
    """

    def __init__(self, f: Field, order: WeightedCurveOrder):
        self.f = f
        self.order = order
        self.n = f.q - 1
        self.grid: list[list[Elt | None]] = [[None] * self.n for _ in range(self.n)]
        self.heights: list[int] = []
        # F as monic (lt, tail) pairs, kept sorted by order key of lt
        self.F: list[tuple[Cell, Tail]] = [((0, 0), ())]
        self.G: list[_Record] = []
        self.version = 0

    # -- discrepancies ----------------------------------------------------

    def _test(self, tail: Tail, w: Cell) -> Elt | None:
        """The recurrence sum u[w] + sum coeff * u[w + e] of a monic
        polynomial at a known cell w, reading mod q-1; None when a tail
        read is unknown."""
        grid, n = self.grid, self.n
        s = _tail_sum(self.f, tail, grid, w)
        return None if s is None else self.f.add_table[grid[w[0] % n][w[1] % n]][s]

    # -- the update -------------------------------------------------------

    def process(self, c: Cell, value: Elt) -> None:
        f, grid = self.f, self.grid
        grid[c[0] % self.n][c[1] % self.n] = value
        plus_u = f.add_table[value]
        fails: list[tuple[Cell, Tail, Elt]] = []
        for lt, tail in self.F:
            if lt[0] <= c[0] and lt[1] <= c[1]:
                # the test at c, as _test gives it: every cell it reads is
                # processed, so the tail sum is known
                d = plus_u[_tail_sum(f, tail, grid, c)]
                if d != ZERO:
                    fails.append((lt, tail, d))
        if not fails:
            return
        self.version += 1
        records = []
        heights = self.heights
        for lt, tail, d in fails:
            span = (c[0] - lt[0], c[1] - lt[1])
            heights.extend([0] * (span[0] + 1 - len(heights)))
            for i in range(span[0] + 1):
                heights[i] = max(heights[i], span[1] + 1)
            records.append(_Record(tail, lt, d, span))
        failed_lts = {lt for lt, _, _ in fails}
        kept = [(lt, tail) for lt, tail in self.F if lt not in failed_lts]
        self.F = [(t2, self._poly_for_corner(t2, c, fails, kept)) for t2 in corners(heights)]
        # the corners come by ascending i, not in the order
        self.F.sort(key=lambda e: self.order.key(e[0]))
        # only failures at cells before c may correct a failure at c
        for r in records:
            if not any(_leq(r.span, g.span) for g in self.G):
                self.G = [g for g in self.G if not _leq(g.span, r.span)]
                self.G.append(r)

    def _poly_for_corner(
        self,
        t2: Cell,
        c: Cell,
        fails: list[tuple[Cell, Tail, Elt]],
        kept: list[tuple[Cell, Tail]],
    ) -> Tail:
        """The tail of the minimal polynomial led by the new corner t2
        after failures at c."""
        f = self.f
        sub_t, mul_t = f.sub_table, f.mul_table
        key = self.order.key
        # no failure to correct: move a surviving polynomial
        cands = [(lt, tail) for lt, tail in kept if _leq(lt, t2)]
        if cands:
            return min(cands, key=lambda e: key(e[0]))[1]
        # t2 lies outside the old staircase, so it is above a failing corner
        _, tail, d = min((e for e in fails if _leq(e[0], t2)), key=lambda e: key(e[0]))
        target = (c[0] - t2[0], c[1] - t2[1])
        if target[0] < 0 or target[1] < 0:
            # t2 is not below c: no test of a polynomial led by t2 reaches c
            return tail
        # no test is skipped, so Sakata's theorem puts c - t2 in the old
        # staircase, which the records' spans cover; the spans are
        # distinct, so the largest one covering it decides
        r = max((r for r in self.G if _leq(target, r.span)), key=lambda r: key(r.span))
        # x^e g with e = span - (c - t2): its test at c is g's recorded
        # failing test, and its leading cell r.lt + r.span - (c - t2), the
        # offset r.lt + r.span - c from t2, lies below t2, since g failed
        # before c and the order is translation invariant; so the merged
        # tail stays monic at t2 with its test at c cancelled
        d0, d1 = r.lt[0] + r.span[0] - c[0], r.lt[1] + r.span[1] - c[1]
        mf = mul_t[f.div(d, r.disc)]
        h = {(e0, e1): v for e0, e1, v in tail}
        for e0, e1, rc in ((0, 0, ONE), *r.tail):
            s = (e0 + d0, e1 + d1)
            h[s] = sub_t[h.get(s, ZERO)][mf[rc]]
        return tuple((e0, e1, v) for (e0, e1), v in h.items() if v != ZERO)


# ---------------------------------------------------------------------------
# extension by recurrences


def _forced(
    f: Field, rules: list[tuple[Cell, Tail]], grid: list[list[Elt | None]], w: Cell
) -> Elt | None:
    """The value the first monic rule led at or below w whose reads are
    all known forces there, minus its tail sum, reading the grid
    cyclically; None when there is no such rule."""
    for lt, tail in rules:
        if lt[0] <= w[0] and lt[1] <= w[1]:
            s = _tail_sum(f, tail, grid, w)
            if s is not None:
                return f.sub_table[ZERO][s]
    return None


class _FillPlan(NamedTuple):
    """How extend() fills the grid from the staircase of a basis.

    free holds the staircase: the grid cells with no leading cell at or
    below them, the cells extend() takes from its values.  steps lists
    every other cell w in the basis order as (flat index i*(q-1) + j,
    reads), where reads holds, for each tail term (e, coeff) of the monic
    rule that fills it, the flat index of (w + e) mod (q-1) and the
    mul_table row of -coeff; the cell's value is the sum of row[value at
    index].
    """

    free: frozenset[Cell]
    steps: tuple[tuple[int, tuple[tuple[int, tuple[Elt, ...]], ...]], ...]


def _build_fill_plan(basis: GroebnerBasis, f: Field) -> _FillPlan:
    """extend()'s fill run on known/unknown flags instead of values: one
    pass over the grid in the basis order, each cell outside the
    staircase taking the first rule led at or below it whose reads are
    known, as _forced() takes it.

    One pass fills every cell.  A rule led by lt that fills w >= lt reads
    (w + e) mod (q-1) for its tail offsets e, where lt + e < lt.
    Translation invariance puts w + e before w, and taking an index mod
    q-1 only lowers the weight, so every read is a grid cell earlier in
    the order: in the staircase, or filled earlier in the pass.  So every
    rule led at or below w can fill it, and the scan takes the first.
    Raises IncompleteCover naming the cell where no rule can, which
    happens only when the elements were led under another order than
    basis.order."""
    n = f.q - 1
    neg, mul_t = f.sub_table[ZERO], f.mul_table
    rules = [_monic(f, p) for p in basis.elements]
    # a known cell holds ZERO, so a tail sum is None exactly when it reads
    # an unknown cell
    grid: list[list[Elt | None]] = [
        [None if any(_leq(lt, (i, j)) for lt, _ in rules) else ZERO for j in range(n)]
        for i in range(n)
    ]
    free = frozenset((i, j) for i in range(n) for j in range(n) if grid[i][j] is not None)
    steps = []
    for w in grid_cells(f.q, basis.order):
        if w in free:
            continue
        w0, w1 = w
        for (l0, l1), tail in rules:
            if l0 <= w0 and l1 <= w1 and _tail_sum(f, tail, grid, w) is not None:
                break
        else:
            raise IncompleteCover(f"cell {w} is not reachable by any recurrence")
        grid[w0][w1] = ZERO
        reads = [((w0 + e0) % n * n + (w1 + e1) % n, mul_t[neg[c]]) for e0, e1, c in tail]
        steps.append((w0 * n + w1, tuple(reads)))
    return _FillPlan(free, tuple(steps))


def extend(
    values: dict[Cell, Elt],
    basis: GroebnerBasis,
    f: Field,
) -> Array2D:
    """Complete an array known at the cells of values so every basis
    recurrence holds cyclically, returned as q-1 rows of q-1 element logs,
    u[i][j] at cell (i, j).

    The basis is taken to be the reduced Groebner basis of a point ideal
    (nonzero coordinates), as every basis the constructions build is.
    Its staircase is delta, the grid cells with no leading term at or
    below them.  By Macaulay's basis theorem the monomials of delta are a
    basis of K[x,y]/I, so each choice of values on delta extends to
    exactly one array on which every recurrence holds, and the fill by
    recurrences computes that array from the delta cells alone: each
    element, held monic as its leading cell lt and tail, sets u[w] to
    minus its tail sum, sum coeff * u[(w + e) mod (q-1)], at a cell
    w >= lt.  A known cell outside delta is then compared with it.
    Raises ValueError for a cell outside the grid or a value that is no
    element log in [-1, q-2], IncompleteCover when some cell stays
    unreachable (a delta cell is not known, or the elements were not led
    under basis.order), and InconsistentKnownValues when a known cell
    outside delta differs from the extension.

    Which rule fills which cell depends only on the basis, never on the
    values.  So the first extend() with a basis and field builds the fill
    plan (_build_fill_plan), never construction, and every call replays
    it: one pass over a flat list, each step the sum of -coeff times the
    value at w + e over one tail.  The plan is cached on the basis, so
    it is freed with the basis, and is no part of its value, hash, repr
    or serialize().  On the redundant-point basis of Hermitian codes a
    plan retains 0.07 MB at GF(16) m = 20, 0.20 MB at GF(25) m = 30,
    1.5 MB at GF(64) m = 72 and 29 MB at GF(256) m = 300 (tracemalloc).
    Building it costs more than ten replays: on a shared 2-core host the
    first call took 12-13 ms at GF(64) m = 72 and 0.27-0.31 s at
    GF(256) m = 300, and the next one 0.9 ms and 22 ms.  Known values
    are never changed.
    """
    q = f.q
    n = q - 1
    _check_in_grid(values, n)
    top = q - 2
    for c, v in values.items():
        if not isinstance(v, int) or not -1 <= v <= top:
            raise ValueError(f"value {v!r} at cell {c} is not an element log in [-1, {top}]")
    plan = basis._plans.get(f)
    if plan is None:
        plan = basis._plans[f] = _build_fill_plan(basis, f)
    flat: list[Elt | None] = [None] * (n * n)
    outside: list[tuple[int, Elt]] = []
    free = plan.free
    for c, v in values.items():
        if c in free:
            flat[c[0] * n + c[1]] = v
        else:
            outside.append((c[0] * n + c[1], v))
    if len(values) - len(outside) != len(free):
        cell = min(free - values.keys(), key=basis.order.key)
        raise IncompleteCover(f"staircase cell {cell} is not known")
    add_t = f.add_table
    for k, reads in plan.steps:
        acc = ZERO
        for i, row in reads:
            acc = add_t[acc][row[flat[i]]]
        flat[k] = acc
    if any(flat[k] != v for k, v in outside):
        raise InconsistentKnownValues("known values violate a basis recurrence")
    return [flat[i : i + n] for i in range(0, n * n, n)]


# ---------------------------------------------------------------------------
# decoding: majority voting for unknown syndromes


def _refuse_beyond_radius(c: Cell) -> None:
    """The refusal once the staircase, after processing cell c, holds more
    than max_errors cells; bms_with_voting says why it is sound."""
    raise DecodingFailure(f"staircase exceeds t at cell {c}")


class _ZeroScan:
    """The 2-D locate step over a support: a polynomial's value at every
    support point from one packed sum.

    Slot k of an int is the point of cells[k], in the slot layout of
    transform._slot_layout.  The cell (i, j), taken mod q-1 since every
    support point has nonzero coordinates, has m ints, int d packing the
    coordinates of alpha^d * x(P)^i * y(P)^j over the support; they are
    built on the cell's first use and kept in columns under the flat
    index i*(q-1) + j.  A term c * x^i * y^j with c = sum_d c_d * alpha^d
    is int d taken c_d times for each d, so a polynomial's values are one
    slot-wise sum of columns over its terms, decoded once.  A column's
    digits are below p, so for odd p a sum of more columns than the
    layout's cap could carry; it is decoded in parts, added with
    add_table.
    """

    __slots__ = ("f", "n", "cells", "slots", "columns", "_rots", "_picks")

    def __init__(self, f: Field, support: AbstractSet[Cell]):
        self.f = f
        self.n = f.q - 1
        self.cells = tuple(support)
        _check_in_grid(self.cells, self.n)
        self.slots = _slot_layout(f, len(self.cells))
        enc = self.slots.enc
        # alpha^d times each log, as its slot
        self._rots = [enc[d:] + enc[:d] for d in range(f.m)]
        # per coefficient log: each d repeated c_d times
        self._picks = [
            tuple(d for d, c in enumerate(coords) for _ in range(c)) for coords in f.exp_table
        ]
        self.columns: dict[int, tuple[int, ...]] = {}

    def _column(self, k: int) -> tuple[int, ...]:
        # x(P)^i * y(P)^j is symmetric in the cell and the point's logs
        logs = monomial_logs(self.f, divmod(k, self.n), self.cells)
        cols = tuple(
            int.from_bytes(b"".join(map(rot.__getitem__, logs)), "little") for rot in self._rots
        )
        self.columns[k] = cols
        return cols

    def values(self, lt: Cell, tail: Tail) -> list[Elt]:
        """The monic polynomial (lt, tail) at each support point."""
        add_t, n = self.f.add_table, self.n
        _, combine, cap, decode = self.slots
        get, picks = self.columns.get, self._picks
        l0, l1 = lt
        decoded = []  # the parts decoded before their digits could carry
        parts: list[int] = []
        for e0, e1, c in ((0, 0, ONE), *tail):
            k = (l0 + e0) % n * n + (l1 + e1) % n
            cols = get(k) or self._column(k)
            ds = picks[c]
            if len(parts) + len(ds) > cap:
                decoded.append(decode(combine(parts)))
                parts = []
            parts += map(cols.__getitem__, ds)
        vals = decode(combine(parts))
        for part in decoded:
            vals = [add_t[a][b] for a, b in zip(vals, part)]
        return vals

    def zeros(self, F: Sequence[tuple[Cell, Tail]]) -> list[Cell]:
        """The support cells at whose point every polynomial of F vanishes."""
        alive: Sequence[int] = range(len(self.cells))
        for lt, tail in F:
            if not alive:
                break
            vals = self.values(lt, tail)
            alive = [k for k in alive if vals[k] == ZERO]
        return [self.cells[k] for k in alive]


class _Decoder(NamedTuple):
    """What bms_with_voting() reads of its ambient basis on one field and
    support: the monic ambient rules, top (see _vote) and the zero scan."""

    rules: list[tuple[Cell, Tail]]
    top: Cell | None
    scan: _ZeroScan


def _decoder(ambient: GroebnerBasis, f: Field, support: AbstractSet[Cell]) -> _Decoder:
    """The _Decoder of ambient on f and support, built by the first call
    and cached on the basis."""
    key = (f, frozenset(support))
    dec = ambient._decoders.get(key)
    if dec is None:
        n = f.q - 1
        rules = [_monic(f, p) for p in ambient.elements]
        # the curve equation's leading cell (0, a): a cell at or above it is
        # no basis monomial of the order domain; the grid holds none for hcrs
        top = next((lt for lt, _ in rules if lt[0] == 0 and lt[1] < n), None)
        dec = ambient._decoders[key] = _Decoder(rules, top, _ZeroScan(f, key[1]))
    return dec


def _certificate(
    state: SakataState,
    known: Mapping[Cell, Elt],
    scan: _ZeroScan,
    max_errors: int,
) -> Array2D | None:
    """The error array located by F and solved on the known syndromes:
    q-1 rows of q-1 element logs, e[x][y] the error at (alpha^x, alpha^y),
    zero off Z.

    Z is the set of cells (x, y) of the scan's support at whose point
    (alpha^x, alpha^y) every polynomial of F vanishes: _ZeroScan.zeros
    decodes each polynomial's packed sum once over the whole support.
    The scan comes with the ambient basis's _Decoder, cached on the
    basis; its columns held 0.20 MB at Hermitian GF(64) m = 150 and
    1.3 MB at GF(256) m = 300 (module docstring).
    When |Z| <= max_errors, the values e_z on Z are solved from
    sum_z e_z * alpha^(k.z) = u[k], one equation per known cell k, whose
    columns are monomial_logs.  None when Z is larger or the system is
    inconsistent.
    """
    f = state.f
    zeros = scan.zeros(state.F)
    if len(zeros) > max_errors:
        return None
    kcells = list(known)
    echelon = _Echelon(f)
    for z in zeros:
        echelon.add(monomial_logs(f, z, kcells), {z: ONE})
    # with the syndromes as the last column, a relation
    # u + sum c_z * col_z = 0 gives e_z = -c_z
    relation = echelon.add([known[k] for k in kcells], {None: ONE})
    if relation is None:
        return None
    neg = f.sub_table[ZERO]
    n = f.q - 1
    err = [[ZERO] * n for _ in range(n)]
    for z, c in relation.items():
        if z is not None:
            err[z[0]][z[1]] = neg[c]
    return err


def _vote(
    state: SakataState,
    amb_rules: list[tuple[Cell, Tail]],
    top: Cell | None,
    cls: Sequence[Cell],
    c: Cell,
) -> Elt:
    """The Feng-Rao majority vote for the value X of c, the first
    unprocessed cell, over cls, c's weight class in the processing
    enumeration.

    Every lighter cell is assigned, so an open class cell (c or a grid
    cell of the class after it) that the ambient rules reach depends only
    on lighter cells and on the class cells before it: it is affine in X,
    and so is the sum A + B*X of a polynomial of F tested at it.  The
    vote writes X = 0 and then X = 1 at c, fills the other open class
    cells in enumeration order with _forced, and takes at both the test
    u[w] plus the tail sum (SakataState._test) of every polynomial of F
    led at or below each reached cell w, reading every cell mod q-1.  A
    componentwise split w = a + b of a reached cell w counts when both
    parts are basis monomials of the order domain outside the staircase:
    neither lies in the staircase or at or above top, the curve
    equation's leading cell (0, a); top is None for hcrs, whose grid
    holds no ambient leading cell (Feng-Rao count only such pairs).  It
    votes -A/B from the first polynomial of F covering a, or not at all
    when that sum at w is undefined or has B = 0.  The plurality value
    wins; a tie or no vote raises DecodingFailure.  On return or raise, c
    and the open class cells hold None again.
    """
    f, grid, n, F, heights = state.f, state.grid, state.n, state.F, state.heights

    # a class cell past the grid repeats a lighter, processed cell
    opened = [w for w in cls if grid[w[0] % n][w[1] % n] is None]
    sums: list[dict[tuple[int, Cell], Elt | None]] = []  # at X = 0, X = 1
    try:
        for x in (ZERO, ONE):
            grid[c[0]][c[1]] = x
            for w0, w1 in opened[1:]:
                grid[w0][w1] = _forced(f, amb_rules, grid, (w0, w1))
            voters = [w for w in opened if grid[w[0]][w[1]] is not None]
            sums.append({
                (fi, w): state._test(tail, w)
                for w in voters
                for fi, (lt, tail) in enumerate(F)
                if _leq(lt, w)
            })
    finally:
        for w0, w1 in opened:
            grid[w0][w1] = None
    tally: dict[Elt, int] = {}
    for w in voters:
        w0, w1 = w
        # zero past the staircase, for every column a split reads
        h = heights + [0] * (w0 + 1 - len(heights))
        for a0 in range(w0 + 1):
            for a1 in range(w1 + 1):
                a, b = (a0, a1), (w0 - a0, w1 - a1)
                if a1 < h[a0] or b[1] < h[b[0]] or top and (_leq(top, a) or _leq(top, b)):
                    continue
                # a lies outside the staircase, so the leading cell of some
                # polynomial of F, a corner of it, lies at or below it
                fi = next(fi for fi, (lt, _) in enumerate(F) if lt[0] <= a0 and lt[1] <= a1)
                v0, v1 = sums[0][fi, w], sums[1][fi, w]
                if v0 is not None and v1 != v0:
                    value = f.div(v0, f.sub_table[v0][v1])  # -A/B
                    tally[value] = tally.get(value, 0) + 1
    if not tally:
        raise DecodingFailure(f"no votes for cell {c}")
    ranked = sorted(tally.items(), key=lambda kv: (-kv[1], kv[0]))
    if len(ranked) > 1 and ranked[0][1] == ranked[1][1]:
        raise DecodingFailure(f"voting tie at cell {c}")
    return ranked[0][0]


def bms_with_voting(
    f: Field,
    known: dict[Cell, Elt],
    max_errors: int,
    ambient: GroebnerBasis,
    support: AbstractSet[Cell],
    stats: dict | None = None,
) -> Array2D:
    """The error array from syndrome values on the defining set: q-1 rows
    of q-1 element logs, e[x][y] the error at (alpha^x, alpha^y).

    The order is ambient.order, under which the ambient recurrences that
    derive cells are led, as extend() reads basis.order.  The known cells
    must form a lower set (ValueError otherwise), as every defining set
    does.  The cells processed are the order prefix of N^2 up to the key
    of the last grid cell, in the order's enumeration.
    The prefix is finite because every weight is positive.  On it every
    cell a minimal polynomial's test touches is already processed, and
    every basis split of a cell is a valid prediction pair.  The
    syndromes are periodic, so the grid stays (q-1) x (q-1) and every
    read takes its indices mod q-1.  Cells an ambient recurrence (the
    ideal of all code locations: the curve equation, x^(q-1) - 1 and
    y^(q-1) - 1) determines are derived directly; that takes every cell
    past the grid.  The rest are voted by the Feng-Rao pair predictions
    over the current weight class (_vote).

    After each processed cell, known, derived or voted, the decode is
    refused ("staircase exceeds t at cell (i, j)") once the staircase
    holds more than max_errors cells (_refuse_beyond_radius).  It is
    sound: within max_errors of a codeword, with error e, the known
    syndromes are those of e and the derived and voted cells are exact
    (Feng-Rao), so the processed cells are a prefix of dft2(e).  The
    staircase only grows and is a lower bound on the linear complexity of
    every array agreeing with the prefix (Sakata 1988), which for dft2(e)
    is the weight of e (Blahut's theorem).  So the refusal only ever
    meets words farther than max_errors from every codeword, which no
    decode could accept, and spares them the rest of the prefix.

    One certificate accepts, tried before a vote whenever F has changed
    and once the prefix is processed (_certificate): the cells of
    `support` (the cells of the code points) at which every polynomial of
    the current set vanishes are at most max_errors, and values on them
    reproduce every known syndrome.  Such an error array has at most max_errors
    nonzero cells, all on code points, and the received word's syndromes,
    so by the Feng-Rao bound the received word minus it is the only
    codeword within max_errors of it.  No grid is completed, no inverse
    transform taken and no locator basis built.  The full syndrome array
    is dft2(f, error array).  When the certificate fails once the prefix
    is processed, the decode is refused ("completed syndrome array fails
    the final checks").  An error off `support` reaches that, and so do
    some words within max_errors when max_errors is large against the
    grid (hcrs-q9 at m >= 53, t >= 26): there the prefix does not yet
    determine F.
    """
    q = f.q
    n = q - 1
    order = ambient.order
    _check_in_grid(known, n)
    if not is_downward_closed(known):
        raise ValueError("the known syndrome cells must form a lower set")
    amb_rules, top, scan = _decoder(ambient, f, support)
    _, prefix, classes = _enumeration(q, order)

    state = SakataState(f, order)
    voted = 0
    if stats is not None:
        stats.update(voted_cells=0, early_certificate=False)
    last_attempt = -1
    for c in prefix:
        v = known.get(c)
        if v is None:
            v = _forced(f, amb_rules, state.grid, c)
        if v is None:
            # try the certificate once per F; the refusal below keeps
            # the staircase at most max_errors cells here
            if state.version != last_attempt:
                last_attempt = state.version
                err = _certificate(state, known, scan, max_errors)
                if err is not None:
                    if stats is not None:
                        stats.update(voted_cells=voted, early_certificate=True)
                    return err
            v = _vote(state, amb_rules, top, classes[order.weight(c)], c)
            voted += 1
            if stats is not None:
                stats["voted_cells"] = voted
        state.process(c, v)
        if sum(state.heights) > max_errors:
            _refuse_beyond_radius(c)

    # the whole prefix is processed, so the grid is full
    err = _certificate(state, known, scan, max_errors)
    if err is None:
        raise DecodingFailure("completed syndrome array fails the final checks")
    return err
