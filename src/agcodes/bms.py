"""Two-dimensional linear-recurrence synthesis and Groebner bases of
vanishing ideals.

Everything here works on (q-1) x (q-1) arrays of field elements whose
recurrences live in the doubly cyclic ring K[x,y]/(x^(q-1)-1, y^(q-1)-1):
a polynomial with leading cell t "holds at shift w" when

    sum_s f_s * u[(s + w - t) mod (q-1)] = 0.

Three synthesis entry points:

* bms() on a fully known array returns the exact reduced Groebner basis
  of the ideal of all cyclically valid recurrences, computed by linear
  algebra on shift functionals (Buchberger-Moeller style).  For the DFT
  of a point indicator this ideal is the vanishing ideal of the points.
  It is full-array only and raises ValueError unless every cell is known.

* SakataState is the entry point for an order prefix: cells fed to
  process() in the enumeration of a translation-invariant order run
  Sakata's incremental two-dimensional Berlekamp-Massey update (Sakata
  1988).  A polynomial failing at cell c and moved to a new corner t2 is
  kept as it is when t2 is not <= c, and otherwise corrected by a
  failure recorded before c.  A test that needs a cell outside the grid
  is skipped.

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
  vanishing_ideal_basis() of its nonzero cells.  A decode is refused at
  the first cell after which the staircase holds more than t cells: on a
  word within t of a codeword whose votes are exact every processed cell
  is a syndrome of its error, and the staircase of such a prefix never
  outgrows the error weight (Sakata's lower bound and Blahut's theorem).
  Outside the preset parameters the votes are not always exact within t
  (bms_with_voting says where).  The hyperbolic order of hcrs codes is
  not translation invariant, so their cells are processed in
  WeightedCurveOrder(1, 1).

extend() fills a partially known array from its values on the basis
staircase, using the recurrences of the basis, with both cyclic index
wrap and schedule independence; no recurrence is re-checked afterwards,
since the staircase values determine the array.  Partial arrays
are dicts from cell to value; a grid (a list of rows, None where the
value is unknown) is the working store.  One kernel, _forced(), applies
solved recurrences to it: extend() runs it to a fixpoint, and the
decoder derives with it every cell the ambient recurrences reach.

The grid's enumeration under an order depends only on q and the order,
never on a word, so grid_cells() memoizes it, keyed by the value of
(q, order): one entry per (q, order) in use, filled on first use.  The
entry also holds the enumeration's weight classes, which the vote
scans.  At q = 256 (65,025 cells) an entry holds 4.7-6.5 MB, measured
with tracemalloc, most of it the cell tuples.  Every cell a caller hands
in must lie in the grid; extend() and bms_with_voting() reject any other
with ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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
    HyperbolicOrder,
    MonomialOrder,
    Point,
    WeightedCurveOrder,
    eval_poly,
    minimal_outside,
)
# idft2 stays bound here although no bms path calls it: perfbench/tracer.py
# and the transform-count test rebind it
from .transform import Array2D, dft2, idft2

# ---------------------------------------------------------------------------
# polynomials


class BivariatePoly:
    """Sparse bivariate polynomial with its leading cell under an order."""

    __slots__ = ("coeffs", "lt")

    def __init__(self, coeffs: dict[Cell, Elt], order: MonomialOrder):
        self.coeffs = {s: c for s, c in coeffs.items() if c != ZERO}
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading term")
        self.lt = max(self.coeffs, key=order.key)

    def evaluate(self, f: Field, x: Elt, y: Elt) -> Elt:
        return eval_poly(f, self.coeffs, x, y)

    def __repr__(self) -> str:
        terms = ", ".join(f"({i},{j}):{c}" for (i, j), c in sorted(self.coeffs.items()))
        return f"BivariatePoly[{terms}]"


@dataclass(frozen=True)
class GroebnerBasis:
    """Minimal polynomial set with its staircase (delta set)."""

    elements: tuple[BivariatePoly, ...]
    delta: tuple[Cell, ...]
    order: MonomialOrder

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
    """The (q-1) x (q-1) grid in an order's enumeration, and its weight
    classes: weight -> the cells of that weight, in enumeration order."""

    cells: tuple[Cell, ...]
    classes: Mapping[int, tuple[Cell, ...]]


@lru_cache(maxsize=None)
def _enumeration(q: int, order: MonomialOrder) -> _Enumeration:
    n = q - 1
    cells = sorted(((i, j) for i in range(n) for j in range(n)), key=order.key)
    classes: dict[int, list[Cell]] = {}
    for c in cells:
        classes.setdefault(order.weight(c), []).append(c)
    return _Enumeration(
        tuple(cells), MappingProxyType({w: tuple(cs) for w, cs in classes.items()})
    )


def grid_cells(q: int, order: MonomialOrder) -> tuple[Cell, ...]:
    """Every grid cell, sorted by the order's key.

    Memoized together with its weight classes, keyed by the value of
    (q, order), one entry per (q, order) in use: an equal order built
    elsewhere, say by load_spec, shares the entry, and every call returns
    the same immutable tuple.
    """
    return _enumeration(q, order).cells


def _check_in_grid(cells: Iterable[Cell], n: int) -> None:
    for c in cells:
        if not (0 <= c[0] < n and 0 <= c[1] < n):
            raise ValueError(f"cell {c} lies outside the {n}x{n} grid")


# ---------------------------------------------------------------------------
# the one elimination kernel


class _Echelon:
    """Incremental Gaussian elimination over a field, with labelled inputs.

    add(vec, label) reduces vec (in place; the caller hands it over)
    against the rows kept so far.  If something nonzero is left, it is
    kept as a new row together with the labelled combination of inputs
    that formed it, and None is returned.  Otherwise vec depends on the
    vectors kept before it, and the relation {label: ONE, other: coeff}
    is returned: sum(coeff * input vector) = 0, where every other label
    is one of a kept vector.  Coefficients may be ZERO.  Dependent
    vectors are not kept, so len(rows) is the rank of everything added.
    """

    __slots__ = ("f", "rows")

    def __init__(self, f: Field):
        self.f = f
        # (reduced vector, indices of its nonzero entries with the pivot
        # first, combination of labels forming it)
        self.rows: list[tuple[list[Elt], list[int], dict]] = []

    def add(self, vec: list[Elt], label) -> dict | None:
        f = self.f
        sub_t, mul_t = f.sub_table, f.mul_table
        combo = {label: ONE}
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
# exact synthesis on a fully known (cyclic) array


def _synthesize_full(f: Field, data: list[list[Elt]], order: MonomialOrder) -> GroebnerBasis:
    """Reduced Groebner basis of all recurrences valid on the whole array.

    Monomial x^t maps to the shift functional vec(t)[d] = u[(t+d) mod n];
    a polynomial is a valid recurrence exactly when its functional
    combination vanishes.  Monomials are scanned in the order, skipping
    multiples of found leading terms; dependent monomials yield reduced
    basis elements, independent ones join the staircase.
    """
    n = f.q - 1

    def vec(t: Cell) -> list[Elt]:
        i0, j0 = t
        return [
            data[(i0 + di) % n][(j0 + dj) % n] for di in range(n) for dj in range(n)
        ]

    candidates = sorted(
        ((i, j) for i in range(n + 1) for j in range(n + 1)), key=order.key
    )
    lts: list[Cell] = []
    basis: list[BivariatePoly] = []
    delta: list[Cell] = []
    echelon = _Echelon(f)

    for t in candidates:
        if any(_leq(lt, t) for lt in lts):
            continue
        relation = echelon.add(vec(t), t)
        if relation is None:
            delta.append(t)
        else:
            # monic at t with tail in delta
            basis.append(BivariatePoly(relation, order))
            lts.append(t)

    basis.sort(key=lambda p: order.key(p.lt))
    return GroebnerBasis(tuple(basis), tuple(delta), order)


def vanishing_ideal_basis(
    points: Sequence[Point], order: MonomialOrder, f: Field
) -> GroebnerBasis:
    """Groebner basis of the ideal of polynomials vanishing at all points.

    Computed by synthesizing the recurrences of the full DFT array of the
    point indicator; the staircase then has exactly one cell per point.
    """
    if any(p.x == ZERO or p.y == ZERO for p in points):
        raise ZeroCoordinatePoint("vanishing ideal needs nonzero coordinates")
    if len(set(points)) != len(points):
        raise ValueError("duplicate points")
    indicator = Array2D.zeros(f.q)
    for p in points:
        indicator[(p.x, p.y)] = ONE
    u = dft2(f, indicator)
    basis = _synthesize_full(f, u.data, order)
    if len(basis.delta) != len(points):
        raise AssertionError("staircase size must equal the point count")
    return basis


# ---------------------------------------------------------------------------
# Sakata's incremental synthesis on an order prefix


@dataclass
class _Record:
    """A past failure: polynomial, its nonzero discrepancy, and the span
    from its leading cell to the cell lt + span where it failed."""

    coeffs: dict[Cell, Elt]
    lt: Cell
    disc: Elt
    span: Cell


class SakataState:
    """Minimal polynomial set F and auxiliary failures G, updated per cell.

    This is the entry point for an order prefix of an array (bms() takes
    full arrays only).  Cells arrive in the order's enumeration, and their
    values are kept in grid (None until processed).  The order must be
    translation invariant (s < t implies s+d < t+d), so the hyperbolic one
    is refused.  Each element of F is monic at its leading cell, and the
    leading cells are the corners of the staircase delta.  A test that
    needs a cell outside the grid is skipped (treated as passed); every
    other cell a test needs is already assigned.

    When polynomials fail at cell c, each new corner t2 gets a surviving
    polynomial shifted to t2 if one lies below it.  Otherwise a failing
    polynomial f is shifted to t2, and then:

    * t2 not <= c: f is kept as it is; no test led by t2 reaches c yet.
    * t2 <= c: a failure g recorded before c whose span covers c - t2 is
      shifted and scaled so that its discrepancy cancels f's at c; the
      one with the largest span is taken.

    G keeps only its span frontier (pairwise incomparable spans), as
    Sakata keeps one record per staircase corner.  That takes the same
    record as keeping every failure: a span covered by another is never
    the largest key among the records covering a target, and of equal
    spans the older record, with the smaller leading cell, is kept.
    """

    def __init__(self, f: Field, order: MonomialOrder):
        if isinstance(order, HyperbolicOrder):
            raise ValueError("Sakata's update needs a translation-invariant order")
        self.f = f
        self.order = order
        self.n = f.q - 1
        self.grid: list[list[Elt | None]] = [[None] * self.n for _ in range(self.n)]
        self.delta: set[Cell] = set()
        # F as (lt, coeffs) pairs, kept sorted by order key of lt
        self.F: list[tuple[Cell, dict[Cell, Elt]]] = [((0, 0), {(0, 0): ONE})]
        self.G: list[_Record] = []
        self.version = 0

    # -- discrepancies ----------------------------------------------------

    def _test(self, lt: Cell, coeffs: dict[Cell, Elt], w: Cell) -> Elt | None:
        """Recurrence sum of the polynomial at shift w (at or above lt),
        None if untestable."""
        add_t, mul_t = self.f.add_table, self.f.mul_table
        grid, n = self.grid, self.n
        d0, d1 = w[0] - lt[0], w[1] - lt[1]
        acc = ZERO
        for (s0, s1), c in coeffs.items():
            i, j = s0 + d0, s1 + d1
            if i >= n or j >= n:
                return None
            v = grid[i][j]
            if v is None:
                return None
            acc = add_t[acc][mul_t[c][v]]
        return acc

    # -- the update -------------------------------------------------------

    def process(self, c: Cell, value: Elt) -> None:
        self.grid[c[0]][c[1]] = value
        fails: list[tuple[Cell, dict[Cell, Elt], Elt]] = []
        for lt, coeffs in self.F:
            if lt[0] <= c[0] and lt[1] <= c[1]:
                d = self._test(lt, coeffs, c)
                if d is not None and d != ZERO:
                    fails.append((lt, coeffs, d))
        if not fails:
            return
        self.version += 1
        records = []
        for lt, coeffs, d in fails:
            span = (c[0] - lt[0], c[1] - lt[1])
            self.delta.update(
                (i, j) for i in range(span[0] + 1) for j in range(span[1] + 1)
            )
            records.append(_Record(coeffs, lt, d, span))
        failed_lts = {lt for lt, _, _ in fails}
        kept = [(lt, co) for lt, co in self.F if lt not in failed_lts]
        corners = minimal_outside(self.delta, self.n)
        self.F = [(t2, self._poly_for_corner(t2, c, fails, kept)) for t2 in corners]
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
        fails: list[tuple[Cell, dict[Cell, Elt], Elt]],
        kept: list[tuple[Cell, dict[Cell, Elt]]],
    ) -> dict[Cell, Elt]:
        """The minimal polynomial led by the new corner t2 after failures at c."""
        f = self.f
        sub_t, mul_t = f.sub_table, f.mul_table
        key = self.order.key
        # no failure to correct: shift a surviving polynomial
        cands = [(lt, co) for lt, co in kept if _leq(lt, t2)]
        if cands:
            lt, co = min(cands, key=lambda e: key(e[0]))
            return self._shift(co, (t2[0] - lt[0], t2[1] - lt[1]))
        # t2 lies outside the old staircase, so it is above a failing corner
        lt, co, d = min((e for e in fails if _leq(e[0], t2)), key=lambda e: key(e[0]))
        h = self._shift(co, (t2[0] - lt[0], t2[1] - lt[1]))
        target = (c[0] - t2[0], c[1] - t2[1])
        if target[0] < 0 or target[1] < 0:
            # t2 is not below c: no test of a polynomial led by t2 reaches c
            return h
        recs = [r for r in self.G if _leq(target, r.span)]
        if not recs:
            # Sakata's theorem puts c - t2 in the old staircase, which the
            # records' spans cover, unless a skipped test hid a failure.
            # Never seen on the five 2-D benchmark codes, but reached with
            # the staircase refusal on at larger m (hermitian-q9 m >= 19,
            # hcrs-q9 m >= 18), mostly beyond t.
            return h
        # the spans are distinct, so the largest one decides
        r = max(recs, key=lambda r: key(r.span))
        # x^e g with e = span - (c - t2): its test at c is g's recorded
        # failing test, and its leading cell r.lt + r.span - (c - t2) lies
        # below t2, since g failed before c and the order is translation
        # invariant; so h stays monic at t2 with its test at c cancelled
        aux = self._shift(r.coeffs, (r.span[0] - target[0], r.span[1] - target[1]))
        mf = mul_t[f.div(d, r.disc)]
        for s, rc in aux.items():
            h[s] = sub_t[h.get(s, ZERO)][mf[rc]]
        return {s: v for s, v in h.items() if v != ZERO}

    def _shift(self, coeffs: dict[Cell, Elt], d: Cell) -> dict[Cell, Elt]:
        return {(s[0] + d[0], s[1] + d[1]): c for s, c in coeffs.items()}

    def basis(self) -> GroebnerBasis:
        order = self.order
        elems = tuple(BivariatePoly(co, order) for _, co in self.F)
        delta = tuple(sorted(self.delta, key=order.key))
        return GroebnerBasis(elems, delta, order)


def bms(f: Field, values: dict[Cell, Elt], order: MonomialOrder) -> GroebnerBasis:
    """Reduced Groebner basis of the recurrences of a fully known array.

    ValueError unless every grid cell has a value; an order prefix is fed
    to SakataState.process() instead.
    """
    n = f.q - 1
    try:
        data = [[values[(i, j)] for j in range(n)] for i in range(n)]
    except KeyError as e:
        raise ValueError(f"bms needs every grid cell; {e.args[0]} is unknown") from None
    return _synthesize_full(f, data, order)


# ---------------------------------------------------------------------------
# extension by recurrences


def _solved_rules(
    f: Field, elems: Iterable[tuple[Cell, dict[Cell, Elt]]]
) -> list[tuple[Cell, list[tuple[int, int, tuple[Elt, ...]]]]]:
    """Each recurrence solved for its leading cell.

    Returns (lt, tail) pairs: tail holds (offset from lt, mul_table row of
    -coeff/lead) per other term, so the value the recurrence forces at w
    is the sum of row[value at w + offset] over the tail.
    """
    mul_t = f.mul_table
    rules = []
    for lt, coeffs in elems:
        scale = f.neg(f.inv(coeffs[lt]))
        tail = [
            (s0 - lt[0], s1 - lt[1], mul_t[mul_t[cf][scale]])
            for (s0, s1), cf in coeffs.items()
            if (s0, s1) != lt
        ]
        rules.append((lt, tail))
    return rules


def _forced(
    add_t: list[list[Elt]],
    rules: list[tuple[Cell, list[tuple[int, int, tuple[Elt, ...]]]]],
    grid: list[list[Elt | None]],
    w: Cell,
) -> Elt | None:
    """The value the first rule led at or below w forces there, reading
    the grid cyclically; None when no such rule has all its cells known."""
    n = len(grid)
    w0, w1 = w
    for (l0, l1), tail in rules:
        if l0 > w0 or l1 > w1:
            continue
        acc = ZERO
        for e0, e1, row in tail:
            v = grid[(w0 + e0) % n][(w1 + e1) % n]
            if v is None:
                break
            acc = add_t[acc][row[v]]
        else:
            return acc
    return None


def _fill_by_recurrences(
    f: Field,
    grid: list[list[Elt | None]],
    elems: Iterable[tuple[Cell, dict[Cell, Elt]]],
    schedule: list[Cell],
) -> bool:
    """Fill the unknown (None) cells of the grid in place by the
    recurrences; False if some cell stays unreachable.  Repeats passes
    over the schedule until a fixpoint, so schedule order cannot change
    reachability."""
    add_t = f.add_table
    rules = _solved_rules(f, elems)
    missing = [w for w in schedule if grid[w[0]][w[1]] is None]
    while missing:
        still: list[Cell] = []
        for w in missing:
            v = _forced(add_t, rules, grid, w)
            if v is None:
                still.append(w)
            else:
                grid[w[0]][w[1]] = v
        if len(still) == len(missing):
            return False
        missing = still
    return True


def extend(
    values: dict[Cell, Elt],
    basis: GroebnerBasis,
    f: Field,
    schedule: str = "order",
) -> Array2D:
    """Complete an array known at the cells of values so every basis
    recurrence holds cyclically.

    The basis is taken to be the reduced Groebner basis of a point ideal
    (nonzero coordinates), as every basis the constructions build is.
    Its staircase is delta, the grid cells with no leading term at or
    below them.  By Macaulay's basis theorem the monomials of delta are a
    basis of K[x,y]/I, so each choice of values on delta extends to
    exactly one array on which every recurrence holds, and the fill by
    recurrences computes that array from the delta cells alone.  A known
    cell outside delta is then compared with it.  Raises IncompleteCover
    when some cell stays unreachable (a delta cell is not known), and
    InconsistentKnownValues when a known cell outside delta differs from
    the extension.

    Known values are never changed.  schedule is "order" (the basis
    order's enumeration) or "rowmajor"; the result is independent of it.
    """
    q = f.q
    n = q - 1
    if schedule == "order":
        cells = grid_cells(q, basis.order)
    elif schedule == "rowmajor":
        cells = [(i, j) for i in range(n) for j in range(n)]
    else:
        raise ValueError(f"unknown schedule {schedule!r}")
    _check_in_grid(values, n)
    elems = [(p.lt, p.coeffs) for p in basis.elements]
    grid: list[list[Elt | None]] = [[None] * n for _ in range(n)]
    outside: list[tuple[Cell, Elt]] = []
    for c, v in values.items():
        if any(_leq(lt, c) for lt, _ in elems):
            outside.append((c, v))
        else:
            grid[c[0]][c[1]] = v
    if not _fill_by_recurrences(f, grid, elems, cells):
        raise IncompleteCover("some cells are not reachable by any recurrence")
    if any(grid[i][j] != v for (i, j), v in outside):
        raise InconsistentKnownValues("known values violate a basis recurrence")
    return Array2D(q, grid)


# ---------------------------------------------------------------------------
# decoding: majority voting for unknown syndromes


def _refuse_beyond_radius(c: Cell) -> None:
    """The refusal once the staircase, after processing cell c, holds more
    than max_errors cells; bms_with_voting says why it is sound."""
    raise DecodingFailure(f"staircase exceeds t at cell {c}")


def _certificate(
    state: SakataState,
    known: Mapping[Cell, Elt],
    support: AbstractSet[Cell],
    max_errors: int,
) -> Array2D | None:
    """The error array located by F and solved on the known syndromes.

    Z is the set of cells (x, y) of support at whose point (alpha^x,
    alpha^y) every polynomial of F vanishes; each polynomial is evaluated
    inline on the cells the ones before it left.  When |Z| <= max_errors,
    the values e_z on Z are solved from sum_z e_z * alpha^(k.z) = u[k],
    one equation per known cell k.  None when Z is larger or the system
    is inconsistent.
    """
    f, n = state.f, state.n
    add_t = f.add_table
    zeros = list(support)
    for _, coeffs in state.F:
        terms = [(c, s0, s1) for (s0, s1), c in coeffs.items()]
        kept = []
        for x, y in zeros:
            acc = ZERO
            for c, s0, s1 in terms:
                acc = add_t[acc][(c + s0 * x + s1 * y) % n]
            if acc == ZERO:
                kept.append((x, y))
        zeros = kept
    if len(zeros) > max_errors:
        return None
    kcells = list(known)
    echelon = _Echelon(f)
    for x, y in zeros:
        echelon.add([(i * x + j * y) % n for i, j in kcells], (x, y))
    # with the syndromes as the last column, a relation
    # u + sum c_z * col_z = 0 gives e_z = -c_z
    relation = echelon.add([known[k] for k in kcells], None)
    if relation is None:
        return None
    neg = f.sub_table[ZERO]
    err = Array2D.zeros(f.q)
    for z, c in relation.items():
        if z is not None:
            err[z] = neg[c]
    return err


def _vote(
    state: SakataState,
    amb_rules: list[tuple[Cell, list[tuple[int, int, tuple[Elt, ...]]]]],
    cls: Sequence[Cell],
    c: Cell,
) -> Elt:
    """The Feng-Rao majority vote for the value X of c, the first
    unprocessed cell, over cls, c's weight class in the processing
    enumeration.

    Every lighter cell is assigned, so an open class cell (c or a class
    cell after it) that the ambient rules reach depends only on lighter
    cells and on the class cells before it: it is affine in X, and so is
    the sum A + B*X of a polynomial of F tested at it.  The vote writes
    X = 0 and then X = 1 at c, fills the other open class cells in
    enumeration order with _forced, and takes at both the sum of every
    polynomial of F led at or below each reached cell, reading a cell
    past the grid through _forced as well.  Every componentwise split
    w = a + b of a reached cell w, with neither part in the staircase,
    votes -A/B from the first polynomial of F covering a whose sum at w
    is defined with B != 0.  The plurality value wins; a tie or no vote
    raises DecodingFailure.  On return or raise, c and the open class
    cells hold None again.
    """
    f, grid, n, F, delta = state.f, state.grid, state.n, state.F, state.delta
    add_t, mul_t, sub_t = f.add_table, f.mul_table, f.sub_table

    def recurrence_sum(lt: Cell, coeffs: dict[Cell, Elt], w: Cell) -> Elt | None:
        d0, d1 = w[0] - lt[0], w[1] - lt[1]
        acc = ZERO
        for (s0, s1), cf in coeffs.items():
            i, j = s0 + d0, s1 + d1
            v = grid[i][j] if i < n and j < n else _forced(add_t, amb_rules, grid, (i, j))
            if v is None:
                return None
            acc = add_t[acc][mul_t[cf][v]]
        return acc

    opened = [w for w in cls if grid[w[0]][w[1]] is None]
    sums: list[dict[tuple[int, Cell], Elt | None]] = []  # at X = 0, X = 1
    try:
        for x in (ZERO, ONE):
            grid[c[0]][c[1]] = x
            for w0, w1 in opened[1:]:
                grid[w0][w1] = _forced(add_t, amb_rules, grid, (w0, w1))
            voters = [w for w in opened if grid[w[0]][w[1]] is not None]
            sums.append({
                (fi, w): recurrence_sum(lt, coeffs, w)
                for w in voters
                for fi, (lt, coeffs) in enumerate(F)
                if _leq(lt, w)
            })
    finally:
        for w0, w1 in opened:
            grid[w0][w1] = None
    tally: dict[Elt, int] = {}
    for w in voters:
        w0, w1 = w
        for a0 in range(w0 + 1):
            for a1 in range(w1 + 1):
                if (a0, a1) in delta or (w0 - a0, w1 - a1) in delta:
                    continue
                for fi, (lt, _) in enumerate(F):
                    if lt[0] <= a0 and lt[1] <= a1:
                        v0, v1 = sums[0][fi, w], sums[1][fi, w]
                        if v0 is not None and v1 != v0:
                            value = f.div(v0, sub_t[v0][v1])  # -A/B
                            tally[value] = tally.get(value, 0) + 1
                            break
    if not tally:
        raise DecodingFailure(f"no votes for cell {c}")
    ranked = sorted(tally.items(), key=lambda kv: (-kv[1], kv[0]))
    if len(ranked) > 1 and ranked[0][1] == ranked[1][1]:
        raise DecodingFailure(f"voting tie at cell {c}")
    return ranked[0][0]


def bms_with_voting(
    f: Field,
    known: dict[Cell, Elt],
    order: MonomialOrder,
    max_errors: int,
    ambient: GroebnerBasis,
    support: AbstractSet[Cell],
    stats: dict | None = None,
) -> Array2D:
    """The error array from syndrome values on the defining set.

    Grid cells are processed in a translation-invariant enumeration, so
    that every cell a minimal polynomial's test touches is already
    assigned and every componentwise split of a cell is a valid prediction
    pair: the code's own order when it is weighted, WeightedCurveOrder(1, 1)
    (total degree, ties by smaller j) for the hyperbolic order of hcrs
    codes.  Cells an ambient recurrence (the ideal of all code locations,
    e.g. the curve equation plus periodicity) determines are derived
    directly; the rest are voted by the Feng-Rao pair predictions over
    the current weight class (_vote).

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
    decode could accept, and spares them the rest of the grid.

    The argument assumes exact votes within max_errors, and outside the
    preset parameters that can fail: hcrs-q9 at m = 12 refuses the zero
    codeword plus 5 = t errors (cell: value) (0,3):0, (3,4):3, (5,1):6,
    (6,0):1, (7,5):6 with a voting tie at (7, 1), and hermitian-q9 at
    m = 21 refuses 8 = t errors (1,3):1, (2,4):0, (2,7):2, (3,0):3,
    (5,0):1, (5,3):5, (6,5):4, (6,7):0 with "staircase exceeds t" at
    (7, 1), and without the refusal with a tie at (7, 2).  Both fail on
    the grid's last row.  Such words are lost with or without the
    refusal: on 4,400 words at t-2..t+1 errors on hermitian-q9 (m = 19
    to 29) and hcrs-q9 (m = 12 to 20) it changed no outcome.

    One certificate accepts, tried before a vote whenever F has changed
    and once the grid is full (_certificate): the cells of `support` (the
    cells of the code points) at which every polynomial of the current
    set vanishes are at most max_errors, and values on them reproduce
    every known syndrome.  Such an error array has at most max_errors
    nonzero cells, all on code points, and the received word's syndromes,
    so by the Feng-Rao bound the received word minus it is the only
    codeword within max_errors of it.  No grid is completed, no inverse
    transform taken and no locator basis built.  The full syndrome array
    is dft2(f, error array).
    """
    q = f.q
    n = q - 1
    amb_rules = _solved_rules(f, [(p.lt, p.coeffs) for p in ambient.elements])
    _check_in_grid(known, n)
    # the known cells must cover an enumeration prefix, except for gaps an
    # ambient recurrence can fill (e.g. off-strip cells under the curve)
    if known:
        maxkey = max(order.key(c) for c in known)
        for cell in grid_cells(q, order):
            if order.key(cell) > maxkey:
                break
            if cell in known or any(_leq(lt, cell) for lt, _ in amb_rules):
                continue
            raise ValueError("syndromes must cover a prefix of the order enumeration")
    if not isinstance(order, WeightedCurveOrder):
        order = WeightedCurveOrder(1, 1)
    cells, classes = _enumeration(q, order)

    state = SakataState(f, order)
    add_t = f.add_table
    voted = 0
    if stats is not None:
        stats.update(voted_cells=0, early_certificate=False)
    last_attempt = -1
    for c in cells:
        v = known.get(c)
        if v is None:
            v = _forced(add_t, amb_rules, state.grid, c)
        if v is None:
            # try the certificate once per F; the refusal below keeps
            # |delta| <= max_errors here
            if state.version != last_attempt:
                last_attempt = state.version
                err = _certificate(state, known, support, max_errors)
                if err is not None:
                    if stats is not None:
                        stats.update(voted_cells=voted, early_certificate=True)
                    return err
            v = _vote(state, amb_rules, classes[order.weight(c)], c)
            voted += 1
            if stats is not None:
                stats["voted_cells"] = voted
        state.process(c, v)
        if len(state.delta) > max_errors:
            _refuse_beyond_radius(c)

    # every cell of the enumeration is processed, so the grid is full
    err = _certificate(state, known, support, max_errors)
    if err is None:
        raise DecodingFailure("completed syndrome array fails the final checks")
    return err
