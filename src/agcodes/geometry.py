"""Curves, rational points, monomial orders and defining sets.

Cells of the (q-1) x (q-1) exponent grid are plain (i, j) tuples.  A
bivariate polynomial is a sparse dict mapping cells to nonzero
coefficient logs; that representation is shared with the recurrence
machinery in bms.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import MTooSmall
from .galois import Elt, Field, ZERO

Cell = tuple[int, int]
PolyDict = dict[Cell, Elt]


class Point(NamedTuple):
    """An affine point with coordinates in log representation."""

    x: Elt
    y: Elt


def eval_poly(f: Field, coeffs: PolyDict, x: Elt, y: Elt) -> Elt:
    """Evaluate a sparse bivariate polynomial at (x, y); 0^0 = 1."""
    add_t, mul_t = f.add_table, f.mul_table
    acc = ZERO
    for (i, j), c in coeffs.items():
        acc = add_t[acc][mul_t[c][mul_t[f.pow(x, i)][f.pow(y, j)]]]
    return acc


# -- monomial orders -------------------------------------------------------


@dataclass(frozen=True)
class WeightedCurveOrder:
    """Total order by curve weight a*i + b*j, ties broken by smaller j.

    On the strip j < a the weights are all distinct (gcd(a, b) = 1 forces
    equal weights to share j), so the tie-break only matters off-strip,
    where it ranks y^a above x^b.  Orders are values: equal and equally
    hashed when their fields are, as the memoized grid enumeration needs.
    """

    a: int
    b: int

    def weight(self, cell: Cell) -> int:
        return self.a * cell[0] + self.b * cell[1]

    def key(self, cell: Cell):
        return (self.a * cell[0] + self.b * cell[1], cell[1])


@dataclass(frozen=True)
class HyperbolicOrder:
    """Total order by the product weight (i+1)(j+1), ties by smaller j."""

    def weight(self, cell: Cell) -> int:
        return (cell[0] + 1) * (cell[1] + 1)

    def key(self, cell: Cell):
        return ((cell[0] + 1) * (cell[1] + 1), cell[1])


MonomialOrder = WeightedCurveOrder | HyperbolicOrder


# -- curves ----------------------------------------------------------------


@dataclass(frozen=True)
class CurveSpec:
    """A plane curve with one point at infinity, given by its affine equation.

    a and b are the coprime pole orders of y and x; defining_poly maps
    exponent pairs to coefficient logs.  genus = (a-1)(b-1)/2.
    """

    a: int
    b: int
    defining_poly: tuple[tuple[Cell, Elt], ...]

    @property
    def genus(self) -> int:
        return (self.a - 1) * (self.b - 1) // 2

    def poly_dict(self) -> PolyDict:
        return dict(self.defining_poly)


def curve_spec(a: int, b: int, poly: PolyDict) -> CurveSpec:
    """Validated constructor: checks coprimality, the exponents and the
    leading form; the coefficients are checked against the field by the
    code constructor."""
    if not (0 < a < b) or math.gcd(a, b) != 1:
        raise ValueError("need 0 < a < b with gcd(a, b) = 1")
    if poly.get((0, a), ZERO) == ZERO or poly.get((b, 0), ZERO) == ZERO:
        raise ValueError(f"defining polynomial must contain y^{a} and x^{b}")
    for (i, j), c in poly.items():
        if i < 0 or j < 0:
            raise ValueError(f"term x^{i} y^{j} has a negative exponent")
        if (i, j) in ((0, a), (b, 0)):
            continue
        if a * i + b * j >= a * b:
            raise ValueError(f"term x^{i} y^{j} exceeds the leading form weight")
    return CurveSpec(a, b, tuple(sorted(poly.items())))


def hermitian_curve(f: Field) -> CurveSpec:
    """y^u + y = x^(u+1) over GF(u^2); for GF(9) this is y^3 + y = x^4."""
    u = math.isqrt(f.q)
    if u * u != f.q:
        raise ValueError("Hermitian curve needs a square field size")
    neg_one = f.neg(0)
    poly = {(0, u): 0, (0, 1): 0, (u + 1, 0): neg_one}
    return curve_spec(u, u + 1, poly)


def enumerate_points(c: CurveSpec, f: Field, include_zero: bool = False) -> list[Point]:
    """All affine points of the curve, in ascending (log x, log y) order.

    include_zero=False keeps only points with both coordinates nonzero.
    """
    poly = c.poly_dict()
    logs = [ZERO] + list(range(f.q - 1)) if include_zero else list(range(f.q - 1))
    pts = []
    for x in logs:
        for y in logs:
            if eval_poly(f, poly, x, y) == ZERO:
                pts.append(Point(x, y))
    pts.sort()
    return pts


# -- defining sets ---------------------------------------------------------


def defining_set(order: MonomialOrder, m: int, f: Field) -> list[Cell]:
    """The cells where a codeword's 2-D DFT must vanish, sorted by the order.

    Weighted order: i < q-1, j < a, a*i + b*j <= m.
    Hyperbolic order: i, j < q-1, (i+1)(j+1) < m.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    n = f.q - 1
    if isinstance(order, WeightedCurveOrder):
        cells = [
            (i, j)
            for j in range(order.a)
            for i in range(n)
            if order.a * i + order.b * j <= m
        ]
    else:
        cells = [(i, j) for i in range(n) for j in range(n) if (i + 1) * (j + 1) < m]
    cells.sort(key=order.key)
    return cells


def code_params(
    n_points: int, order: MonomialOrder, m: int, f: Field, genus: int | None = None
) -> tuple[int, int]:
    """(n, k) for a code on n_points locations with the given defining set.

    For curve codes pass the genus; m <= 2g-2 is rejected.
    """
    if genus is not None and m <= 2 * genus - 2:
        raise MTooSmall(f"m={m} must exceed 2g-2={2 * genus - 2}")
    phi = defining_set(order, m, f)
    n = n_points
    k = n - len(phi)
    if k < 0:
        raise ValueError("defining set larger than the code length")
    return n, k


# -- support-set helpers ----------------------------------------------------


def is_downward_closed(cells: Iterable[Cell]) -> bool:
    s = set(cells)
    return all(
        (i2, j2) in s for (i, j) in s for i2 in range(i + 1) for j2 in range(j + 1)
    )


def minimal_outside(cells: Iterable[Cell], bound: int) -> list[Cell]:
    """Minimal elements (under componentwise <=) of the complement of a
    downward-closed set, searched within [0, bound]^2, by ascending i.

    Column i of the set is (i, 0), ..., (i, h_i - 1), and h is
    non-increasing, so column i has a corner (i, h_i) exactly when its
    height drops below the previous column's.
    """
    height = [0] * (bound + 1)
    for i, j in cells:
        if i <= bound and j >= height[i]:
            height[i] = j + 1
    out = []
    prev = bound + 1
    for i, h in enumerate(height):
        if h < prev and h <= bound:
            out.append((i, h))
        prev = h
    return out
