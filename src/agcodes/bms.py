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

* bms() on an order-prefix of an array runs Sakata's incremental
  two-dimensional Berlekamp-Massey update.

* bms_with_voting() completes syndrome arrays known only on the defining
  set: unknown cells are inferred one at a time by majority voting over
  Feng-Rao pair predictions drawn from the current minimal polynomial
  set, then certified by re-extension and a support check.

extend() fills a partially known array using the recurrences of a basis,
with both cyclic index wrap and schedule independence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    DecodingFailure,
    IncompleteCover,
    InconsistentKnownValues,
    ZeroCoordinatePoint,
)
from .galois import Elt, Field, ONE, ZERO
from .geometry import (
    Cell,
    MonomialOrder,
    Point,
    WeightedCurveOrder,
    eval_poly,
    minimal_outside,
)
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


def parse_basis(text: str, order: MonomialOrder) -> GroebnerBasis:
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


@dataclass
class PartialArray:
    """An Array2D together with the set of cells whose values are known."""

    arr: Array2D
    known: list[Cell]

    @classmethod
    def from_values(cls, q: int, values: dict[Cell, Elt]) -> "PartialArray":
        arr = Array2D.zeros(q)
        for cell, v in values.items():
            arr[cell] = v
        return cls(arr, sorted(values))


# ---------------------------------------------------------------------------
# small helpers


def _leq(a: Cell, b: Cell) -> bool:
    return a[0] <= b[0] and a[1] <= b[1]


def grid_cells(q: int, order: MonomialOrder) -> list[Cell]:
    n = q - 1
    cells = [(i, j) for i in range(n) for j in range(n)]
    cells.sort(key=order.key)
    return cells


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
        # (reduced vector, pivot index, combination of labels forming it)
        self.rows: list[tuple[list[Elt], int, dict]] = []

    def add(self, vec: list[Elt], label) -> dict | None:
        f = self.f
        mul, sub, div = f.mul, f.sub, f.div
        size = len(vec)
        combo = {label: ONE}
        for rvec, ridx, rcombo in self.rows:
            c = vec[ridx]
            if c == ZERO:
                continue
            factor = div(c, rvec[ridx])
            for k in range(size):
                if rvec[k] != ZERO:
                    vec[k] = sub(vec[k], mul(factor, rvec[k]))
            for s, rc in rcombo.items():
                combo[s] = sub(combo.get(s, ZERO), mul(factor, rc))
        pivot = next((k for k in range(size) if vec[k] != ZERO), None)
        if pivot is None:
            return combo
        self.rows.append((vec, pivot, combo))
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
    """A past failure: polynomial, its nonzero discrepancy, where it failed."""

    coeffs: dict[Cell, Elt]
    lt: Cell
    disc: Elt
    failpoint: Cell
    span: Cell


class SakataState:
    """Minimal polynomial set F and auxiliary failures G, updated per cell.

    Discrepancies that would touch cells outside the processed prefix are
    skipped (treated as untested); this only matters for orders that are
    not translation invariant, e.g. the hyperbolic one.
    """

    def __init__(self, f: Field, order: MonomialOrder):
        self.f = f
        self.order = order
        self.n = f.q - 1
        self.assigned: dict[Cell, Elt] = {}
        self.delta: set[Cell] = set()
        # F as (lt, coeffs) pairs, kept sorted by order key of lt
        self.F: list[tuple[Cell, dict[Cell, Elt]]] = [((0, 0), {(0, 0): ONE})]
        self.G: list[_Record] = []
        self.version = 0

    # -- discrepancies ----------------------------------------------------

    def _test(self, lt: Cell, coeffs: dict[Cell, Elt], w: Cell) -> Elt | None:
        """Recurrence sum of the polynomial at shift w, None if untestable."""
        f = self.f
        assigned = self.assigned
        d0, d1 = w[0] - lt[0], w[1] - lt[1]
        acc = ZERO
        for (s0, s1), c in coeffs.items():
            v = assigned.get((s0 + d0, s1 + d1))
            if v is None:
                return None
            acc = f.add(acc, f.mul(c, v))
        return acc

    # -- the update -------------------------------------------------------

    def process(self, c: Cell, value: Elt) -> None:
        self.assigned[c] = value
        fails: list[tuple[Cell, dict[Cell, Elt], Elt]] = []
        for lt, coeffs in self.F:
            if lt[0] <= c[0] and lt[1] <= c[1]:
                d = self._test(lt, coeffs, c)
                if d is not None and d != ZERO:
                    fails.append((lt, coeffs, d))
        if not fails:
            return
        self.version += 1
        key = self.order.key
        for lt, coeffs, d in fails:
            span = (c[0] - lt[0], c[1] - lt[1])
            for i in range(span[0] + 1):
                for j in range(span[1] + 1):
                    self.delta.add((i, j))
            self.G.append(_Record(coeffs, lt, d, c, span))

        corners = minimal_outside(self.delta, self.n)
        failed_lts = {lt for lt, _, _ in fails}
        survivors = [(lt, co) for lt, co in self.F if lt not in failed_lts]
        newF: list[tuple[Cell, dict[Cell, Elt]]] = []
        for t2 in corners:
            poly = self._poly_for_corner(t2, c, fails, survivors)
            newF.append((t2, poly))
        newF.sort(key=lambda e: key(e[0]))
        self.F = newF

    def _poly_for_corner(
        self,
        t2: Cell,
        c: Cell,
        fails: list[tuple[Cell, dict[Cell, Elt], Elt]],
        survivors: list[tuple[Cell, dict[Cell, Elt]]],
    ) -> dict[Cell, Elt]:
        f = self.f
        key = self.order.key
        # 1. shift a surviving still-valid polynomial
        cands = [(lt, co) for lt, co in survivors if _leq(lt, t2)]
        if cands:
            lt, co = min(cands, key=lambda e: key(e[0]))
            return self._shift(co, (t2[0] - lt[0], t2[1] - lt[1]))
        # 2. Sakata update: failing polynomial corrected by a past failure
        fcands = sorted(
            (fd for fd in fails if _leq(fd[0], t2)),
            key=lambda fd: (
                tuple(-x for x in key((c[0] - fd[0][0], c[1] - fd[0][1]))),
                key(fd[0]),
            ),
        )
        for lt, co, d in fcands:
            shifted = self._shift(co, (t2[0] - lt[0], t2[1] - lt[1]))
            target = (c[0] - t2[0], c[1] - t2[1])
            recs = [
                r
                for r in self.G
                if r.span[0] >= target[0] and r.span[1] >= target[1]
            ]
            # prefer auxiliaries from earlier cells, then larger spans
            recs.sort(
                key=lambda r: (
                    r.failpoint == c,
                    tuple(-x for x in key(r.span)),
                    key(r.lt),
                )
            )
            for r in recs:
                # shift so that the record's failing test lines up with c:
                # the test of x^e g at c is then exactly the recorded one
                aux = self._shift(
                    r.coeffs, (r.span[0] - target[0], r.span[1] - target[1])
                )
                factor = f.div(d, r.disc)
                h = dict(shifted)
                for s, rc in aux.items():
                    h[s] = f.sub(h.get(s, ZERO), f.mul(factor, rc))
                h = {s: v for s, v in h.items() if v != ZERO}
                lead = h.get(t2, ZERO)
                if lead == ZERO:
                    continue
                if any(key(s) >= key(t2) for s in h if s != t2):
                    continue
                if lead != ONE:
                    h = {s: f.div(v, lead) for s, v in h.items()}
                return h
        # 3. direct linear solve for this corner
        solved = self._solve_corner(t2)
        if solved is not None:
            return solved
        # 4. last resort: shifted failing polynomial, discrepancy left in place
        lt, co, _ = fcands[0] if fcands else (None, None, None)
        if co is not None:
            return self._shift(co, (t2[0] - lt[0], t2[1] - lt[1]))
        return {t2: ONE}

    def _shift(self, coeffs: dict[Cell, Elt], d: Cell) -> dict[Cell, Elt]:
        return {(s[0] + d[0], s[1] + d[1]): c for s, c in coeffs.items()}

    def _solve_corner(self, t2: Cell) -> dict[Cell, Elt] | None:
        """Least-structure fallback: monic polynomial with lt t2 and support
        in the current staircase, vanishing on every computable shift."""
        key = self.order.key
        assigned = self.assigned
        supp = sorted((s for s in self.delta if key(s) < key(t2)), key=key)
        shifts = [(w[0] - t2[0], w[1] - t2[1]) for w in assigned if _leq(t2, w)]
        shifts = [
            (d0, d1)
            for d0, d1 in shifts
            if all((s[0] + d0, s[1] + d1) in assigned for s in supp)
        ]

        def column(s: Cell) -> list[Elt]:
            return [assigned[(s[0] + d0, s[1] + d1)] for d0, d1 in shifts]

        # the staircase columns in order, then t2: a relation for t2 is the
        # monic polynomial, with zero weight on every column left dependent
        echelon = _Echelon(self.f)
        for s in supp:
            echelon.add(column(s), s)
        relation = echelon.add(column(t2), t2)
        if relation is None:
            return None
        return {s: relation[s] for s in (t2, *supp) if relation.get(s, ZERO) != ZERO}

    def basis(self) -> GroebnerBasis:
        order = self.order
        elems = tuple(
            BivariatePoly(co, order)
            for _, co in sorted(self.F, key=lambda e: order.key(e[0]))
        )
        delta = tuple(sorted(self.delta, key=order.key))
        return GroebnerBasis(elems, delta, order)


def bms(f: Field, known: PartialArray, order: MonomialOrder) -> GroebnerBasis:
    """Minimal recurrence set for the known cells of an array.

    A fully known array gets the exact cyclic synthesis; a proper prefix
    (in the order's enumeration) is processed by Sakata's update.
    """
    q = known.arr.q
    cells = grid_cells(q, order)
    kset = set(known.known)
    if len(kset) == (q - 1) ** 2:
        return _synthesize_full(f, known.arr.data, order)
    prefix = cells[: len(kset)]
    if set(prefix) != kset:
        raise ValueError("known cells must form a prefix of the order enumeration")
    state = SakataState(f, order)
    for c in prefix:
        state.process(c, known.arr[c])
    return state.basis()


# ---------------------------------------------------------------------------
# extension by recurrences


def _fill_by_recurrences(
    f: Field,
    q: int,
    values: dict[Cell, Elt],
    elems: Iterable[tuple[Cell, dict[Cell, Elt]]],
    schedule: list[Cell],
) -> dict[Cell, Elt] | None:
    """Fill unknown grid cells using the recurrences, cyclic indexing.

    Returns the completed dict, or None if some cell stays unreachable.
    Repeats passes over the schedule until a fixpoint, so schedule order
    cannot change reachability.
    """
    n = q - 1
    add, mul, neg, div = f.add, f.mul, f.neg, f.div
    elems = list(elems)
    missing = [w for w in schedule if w not in values]
    while missing:
        progressed = False
        still: list[Cell] = []
        for w in missing:
            done = False
            for lt, coeffs in elems:
                d0, d1 = w[0] - lt[0], w[1] - lt[1]
                acc = ZERO
                ok = True
                for (s0, s1), cf in coeffs.items():
                    if (s0, s1) == lt:
                        continue
                    v = values.get(((s0 + d0) % n, (s1 + d1) % n))
                    if v is None:
                        ok = False
                        break
                    acc = add(acc, mul(cf, v))
                if ok:
                    values[w] = div(neg(acc), coeffs[lt])
                    done = True
                    break
            if done:
                progressed = True
            else:
                still.append(w)
        if not progressed:
            return None
        missing = still
    return values


def _verify_recurrences(
    f: Field,
    q: int,
    values: dict[Cell, Elt],
    elems: Iterable[tuple[Cell, dict[Cell, Elt]]],
) -> bool:
    n = q - 1
    add, mul = f.add, f.mul
    for lt, coeffs in elems:
        items = list(coeffs.items())
        for d0 in range(n):
            for d1 in range(n):
                acc = ZERO
                for (s0, s1), cf in items:
                    acc = add(acc, mul(cf, values[((s0 + d0) % n, (s1 + d1) % n)]))
                if acc != ZERO:
                    return False
    return True


def extend(
    partial: PartialArray,
    basis: GroebnerBasis,
    f: Field,
    schedule: str = "order",
) -> Array2D:
    """Complete a partial array so every basis recurrence holds cyclically.

    Known values are never changed.  schedule is "order" (the basis
    order's enumeration) or "rowmajor"; the result is independent of it.
    """
    q = partial.arr.q
    values = {cell: partial.arr[cell] for cell in partial.known}
    if schedule == "order":
        cells = grid_cells(q, basis.order)
    elif schedule == "rowmajor":
        cells = [(i, j) for i in range(q - 1) for j in range(q - 1)]
    else:
        raise ValueError(f"unknown schedule {schedule!r}")
    elems = [(p.lt, p.coeffs) for p in basis.elements]
    out = _fill_by_recurrences(f, q, values, elems, cells)
    if out is None:
        raise IncompleteCover("some cells are not reachable by any recurrence")
    if not _verify_recurrences(f, q, out, elems):
        raise InconsistentKnownValues("known values violate a basis recurrence")
    arr = Array2D.zeros(q)
    for cell, v in out.items():
        arr[cell] = v
    return arr


# ---------------------------------------------------------------------------
# decoding: majority voting for unknown syndromes


class _GradedOrder:
    """Total-degree order with ties by smaller j.

    Translation invariant (s < t implies s+d < t+d), which the voting pass
    needs: it guarantees that every cell a minimal polynomial's test
    touches is already assigned, and that every componentwise split of a
    cell is a valid prediction pair.  Orders that are not translation
    invariant (the hyperbolic one) are swapped for this one while
    processing; the returned basis is still taken in the caller's order.
    """

    kind = "graded"

    def weight(self, cell: Cell) -> int:
        return cell[0] + cell[1]

    def key(self, cell: Cell):
        return (cell[0] + cell[1], cell[1])


def bms_with_voting(
    f: Field,
    syndromes: PartialArray,
    order: MonomialOrder,
    max_errors: int,
    ambient: GroebnerBasis | None = None,
    support: set[Cell] | None = None,
    stats: dict | None = None,
) -> tuple[GroebnerBasis, Array2D]:
    """Locator basis and full syndrome array from values on the defining set.

    Grid cells are processed in a translation-invariant enumeration (the
    code's own order when it is one, a graded order otherwise).  Cells an
    ambient recurrence (the ideal of all code locations, e.g. the curve
    equation plus periodicity) determines are derived directly; the rest
    are voted:  every componentwise split w = a + b of a cell in the
    current weight class, with neither part in the staircase so far,
    contributes the value predicted by the minimal polynomial covering a.
    The plurality value is taken, ties fail.  Whenever the staircase is
    small enough the current polynomial set is tried as a full solution.
    A completion is accepted only if it extends consistently, matches the
    known syndromes, has a staircase (in the code's order) of at most
    max_errors cells, and its inverse transform is supported on `support`
    (when given) -- which pins it to the unique error pattern within the
    decoding radius.
    """
    q = f.q
    n = q - 1
    known = dict(zip(syndromes.known, (syndromes.arr[c] for c in syndromes.known)))
    # the known cells must cover an enumeration prefix, except for gaps an
    # ambient recurrence can fill (e.g. off-strip cells under the curve)
    amb_lts = [p.lt for p in ambient.elements] if ambient is not None else []
    if known:
        maxkey = max(order.key(c) for c in known)
        for cell in grid_cells(q, order):
            if order.key(cell) > maxkey:
                break
            if cell in known or any(_leq(lt, cell) for lt in amb_lts):
                continue
            raise ValueError("syndromes must cover a prefix of the order enumeration")
    proc_order = order if isinstance(order, WeightedCurveOrder) else _GradedOrder()
    cells = grid_cells(q, proc_order)

    state = SakataState(f, proc_order)
    amb_elems = (
        [(p.lt, p.coeffs) for p in ambient.elements] if ambient is not None else []
    )
    assigned = state.assigned  # shared view; process() writes it

    def derive(cell: Cell) -> Elt | None:
        """Value forced by an ambient recurrence, None if not available."""
        for lt, coeffs in amb_elems:
            if not _leq(lt, cell):
                continue
            d0, d1 = cell[0] - lt[0], cell[1] - lt[1]
            acc = ZERO
            ok = True
            for (s0, s1), cf in coeffs.items():
                if (s0, s1) == lt:
                    continue
                v = assigned.get(((s0 + d0) % n, (s1 + d1) % n))
                if v is None:
                    ok = False
                    break
                acc = f.add(acc, f.mul(cf, v))
            if ok:
                return f.div(f.neg(acc), coeffs[lt])
        return None

    def finalize(values: dict[Cell, Elt]) -> tuple[GroebnerBasis, Array2D] | None:
        arr = Array2D.zeros(q)
        for cell, v in values.items():
            arr[cell] = v
        basis = _synthesize_full(f, arr.data, order)
        if len(basis.delta) > max_errors:
            return None
        if support is not None:
            err = idft2(f, arr)
            for i in range(n):
                for j in range(n):
                    if err.data[i][j] != ZERO and (i, j) not in support:
                        return None
        return basis, arr

    def try_certificate() -> tuple[GroebnerBasis, Array2D] | None:
        # seed with every known syndrome, including ones not yet reached
        # by the processing enumeration
        values = dict(known)
        values.update(assigned)
        values = _fill_by_recurrences(f, q, values, state.F, cells)
        if values is None or not _verify_recurrences(f, q, values, state.F):
            return None
        return finalize(values)

    def vote(c: Cell) -> Elt:
        # symbolic cell values A + B*X where X is the unknown u[c]
        sym_memo: dict[Cell, tuple[Elt, Elt] | None] = {}

        def sym(cell: Cell) -> tuple[Elt, Elt] | None:
            v = assigned.get(cell)
            if v is not None:
                return (v, ZERO)
            if cell == c:
                return (ZERO, ONE)
            if cell in sym_memo:
                return sym_memo[cell]
            sym_memo[cell] = None  # cycle guard
            result = None
            for lt, coeffs in amb_elems:
                if not _leq(lt, cell):
                    continue
                d0, d1 = cell[0] - lt[0], cell[1] - lt[1]
                acc_a = acc_b = ZERO
                ok = True
                for (s0, s1), cf in coeffs.items():
                    if (s0, s1) == lt:
                        continue
                    child = sym(((s0 + d0) % n, (s1 + d1) % n))
                    if child is None:
                        ok = False
                        break
                    acc_a = f.add(acc_a, f.mul(cf, child[0]))
                    acc_b = f.add(acc_b, f.mul(cf, child[1]))
                if ok:
                    lead = coeffs[lt]
                    result = (
                        f.div(f.neg(acc_a), lead),
                        f.div(f.neg(acc_b), lead),
                    )
                    break
            sym_memo[cell] = result
            return result

        # prediction of X from minimal polynomial index fi tested at w
        pred_memo: dict[tuple[int, Cell], Elt | None] = {}

        def predict(fi: int, w: Cell) -> Elt | None:
            k = (fi, w)
            if k in pred_memo:
                return pred_memo[k]
            lt, coeffs = state.F[fi]
            acc_a = acc_b = ZERO
            d0, d1 = w[0] - lt[0], w[1] - lt[1]
            defined = True
            for (s0, s1), cf in coeffs.items():
                child = sym((s0 + d0, s1 + d1))
                if child is None:
                    defined = False
                    break
                acc_a = f.add(acc_a, f.mul(cf, child[0]))
                acc_b = f.add(acc_b, f.mul(cf, child[1]))
            result: Elt | None = None
            if defined and acc_b != ZERO:
                result = f.div(f.neg(acc_a), acc_b)
            pred_memo[k] = result
            return result

        # Feng-Rao majority voting over the cells of c's weight class:
        # everything of smaller weight is already assigned, so class
        # values are linear in u[c] and every componentwise split with
        # both parts outside the staircase casts one vote.
        delta = state.delta
        F = state.F
        wc = proc_order.weight(c)
        tally: dict[Elt, int] = {}
        for w in cells:
            if w in assigned or proc_order.weight(w) != wc:
                continue
            if sym(w) is None:
                continue
            w0, w1 = w
            for a0 in range(w0 + 1):
                for a1 in range(w1 + 1):
                    a = (a0, a1)
                    if a in delta or (w0 - a0, w1 - a1) in delta:
                        continue
                    value = None
                    for fi, (lt, _) in enumerate(F):
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

    voted = 0
    if stats is not None:
        stats.update(voted_cells=0, early_certificate=False)
    last_attempt = -1
    for c in cells:
        if c in known:
            state.process(c, known[c])
            continue
        v = derive(c)
        if v is not None:
            state.process(c, v)
            continue
        if len(state.delta) <= max_errors and state.version != last_attempt:
            last_attempt = state.version
            res = try_certificate()
            if res is not None:
                if stats is not None:
                    stats.update(voted_cells=voted, early_certificate=True)
                return res
        state.process(c, vote(c))
        voted += 1
        if stats is not None:
            stats["voted_cells"] = voted

    res = finalize(dict(assigned))
    if res is None:
        raise DecodingFailure("completed syndrome array fails the final checks")
    return res
