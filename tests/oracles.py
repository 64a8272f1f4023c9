"""Independent oracles for the Groebner bases the package computes.

The full-array synthesis works on shift functionals of a (q-1) x (q-1)
array, not on point evaluations, so it checks vanishing_ideal_basis and
the bases construction builds without sharing their scan.  It costs a
(q-1)^2-long vector per monomial, which is why it lives here and not in
the package.

plain_walk is construction's greedy walk without its skip of x-line
tails: every point is evaluated until the defining set is covered.

fill_by_recurrences is extend()'s fill on values, written apart from
bms: it reads each recurrence's coefficients by absolute cell and solves
it for the leading term, where bms reads monic (leading cell, tail)
pairs through one tail sum.  It passes over any cell list to a fixpoint,
every pass rescanning the recurrences at each unknown cell, where
extend() replays a plan built once per basis in one pass over the basis
order.  absolute() turns bms's (leading cell, tail) pairs back into
coefficients by absolute cell for the tests.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from agcodes.bms import (
    BivariatePoly,
    GroebnerBasis,
    SakataState,
    _Echelon,
    _leq,
)
from agcodes.galois import ONE, ZERO, Elt, Field
from agcodes.geometry import Cell, Point, WeightedCurveOrder, monomial_logs
from agcodes.transform import dft2


def synthesize_full(
    f: Field, data: list[list[Elt]], order: WeightedCurveOrder
) -> GroebnerBasis:
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
        relation = echelon.add(vec(t), {t: ONE})
        if relation is None:
            delta.append(t)
        else:
            # monic at t with tail in delta
            basis.append(BivariatePoly(relation, order))
            lts.append(t)

    basis.sort(key=lambda p: order.key(p.lt))
    return GroebnerBasis(tuple(basis), tuple(delta), order)


def synthesis_basis(
    points: Sequence[Point], order: WeightedCurveOrder, f: Field
) -> GroebnerBasis:
    """The points' vanishing ideal, synthesized from the full transform of
    their indicator: for that array the valid recurrences are exactly the
    polynomials vanishing at the points."""
    n = f.q - 1
    indicator = [[ZERO] * n for _ in range(n)]
    for p in points:
        indicator[p.x][p.y] = ONE
    return synthesize_full(f, dft2(f, indicator), order)


def plain_walk(f: Field, points: Sequence[Point], phi: Sequence[Cell]) -> list[Point]:
    """Keep each point, in order, whose evaluation row on phi is
    independent of the rows kept so far, until len(phi) are kept."""
    echelon = _Echelon(f)
    chosen: list[Point] = []
    for p in points:
        if len(chosen) == len(phi):
            break
        if echelon.add(monomial_logs(f, p, phi), {p: ONE}) is None:
            chosen.append(p)
    return chosen


def fill_by_recurrences(
    f: Field,
    grid: list[list[Elt | None]],
    elems: Iterable[tuple[Cell, dict[Cell, Elt]]],
    cells: Iterable[Cell],
) -> bool:
    """Fill the unknown (None) cells of the grid in place by the
    recurrences, given as (leading cell, coefficients by absolute cell);
    False if some cell stays unreachable.  A recurrence led by lt fills
    w >= lt when every cell (s - lt + w) mod (q-1) of its other terms s is
    known.  Repeats passes over the cells until a fixpoint, so their
    order cannot change reachability."""
    n = f.q - 1
    elems = list(elems)

    def forced(w: Cell) -> Elt | None:
        for lt, coeffs in elems:
            if not _leq(lt, w):
                continue
            acc = ZERO
            for (s0, s1), c in coeffs.items():
                if (s0, s1) == lt:
                    continue
                v = grid[(s0 - lt[0] + w[0]) % n][(s1 - lt[1] + w[1]) % n]
                if v is None:
                    break
                acc = f.add(acc, f.mul(c, v))
            else:
                return f.neg(f.div(acc, coeffs[lt]))
        return None

    missing = [w for w in cells if grid[w[0]][w[1]] is None]
    while missing:
        still: list[Cell] = []
        for w in missing:
            v = forced(w)
            if v is None:
                still.append(w)
            else:
                grid[w[0]][w[1]] = v
        if len(still) == len(missing):
            return False
        missing = still
    return True


def bms(f: Field, values: dict[Cell, Elt], order: WeightedCurveOrder) -> GroebnerBasis:
    """Reduced Groebner basis of the recurrences of a fully known array.

    ValueError unless every grid cell has a value; an order prefix is fed
    to SakataState.process() instead.
    """
    n = f.q - 1
    try:
        data = [[values[(i, j)] for j in range(n)] for i in range(n)]
    except KeyError as e:
        raise ValueError(f"bms needs every grid cell; {e.args[0]} is unknown") from None
    return synthesize_full(f, data, order)


def minimal_outside_scan(cells: Iterable[Cell], bound: int) -> list[Cell]:
    """Scan every cell of [0, bound]^2 for a minimal non-member of a lower
    set, by ascending i."""
    s = set(cells)
    out = []
    for i in range(bound + 1):
        for j in range(bound + 1):
            if (i, j) in s:
                continue
            if (i == 0 or (i - 1, j) in s) and (j == 0 or (i, j - 1) in s):
                out.append((i, j))
    return out


def staircase(state: SakataState) -> tuple[set[Cell], list[Cell]]:
    """A Sakata state's staircase cells, read off its column heights, and
    their corners by the scan.  Every corner lies within one step of a
    cell, so the scan bound is one past the largest coordinate."""
    cells = {(i, j) for i, h in enumerate(state.heights) for j in range(h)}
    bound = max((max(c) for c in cells), default=-1) + 1
    return cells, minimal_outside_scan(cells, bound)


def absolute(lt: Cell, tail) -> dict[Cell, Elt]:
    """A monic (leading cell, tail) pair as coefficients by absolute cell:
    ONE at lt, and coeff at lt + e for each tail term (e0, e1, coeff)."""
    coeffs = {(lt[0] + e0, lt[1] + e1): c for e0, e1, c in tail}
    coeffs.setdefault(lt, ONE)
    return coeffs


def sakata_basis(state: SakataState) -> GroebnerBasis:
    """A Sakata state's minimal polynomial set F with its staircase."""
    order = state.order
    elems = tuple(BivariatePoly(absolute(lt, tail), order) for lt, tail in state.F)
    delta = tuple(sorted(staircase(state)[0], key=order.key))
    return GroebnerBasis(elems, delta, order)
