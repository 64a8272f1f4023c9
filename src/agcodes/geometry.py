"""Curves, rational points, the monomial order and defining sets.

A curve code's defining set is a weight bound in its own order.  An hcrs
code takes the graded order WeightedCurveOrder(1, 1), and its defining
set is the product-weight rule of hyperbolic_set, which also lists it.

Cells of the (q-1) x (q-1) exponent grid are plain (i, j) tuples.  A
bivariate polynomial is a sparse dict mapping cells to nonzero
coefficient logs; that representation is shared with the recurrence
machinery in bms.py.  monomial_logs and poly_values are the one place
outside the transforms where x(P)^i * y(P)^j, the 2-D DFT kernel, is
evaluated at given points; enumerate_points sums the curve along whole
x-lines of the grid itself.

Two support-set helpers: is_downward_closed tests whether cells form a
lower set, as the decoder requires of the known syndrome cells, and
corners lists a lower set's corners from its column heights, for
Sakata's staircase and for construction's redundant-point basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .galois import Elt, Field, ZERO

Cell = tuple[int, int]
PolyDict = dict[Cell, Elt]


class Point(NamedTuple):
    """An affine point with coordinates in log representation."""

    x: Elt
    y: Elt


def monomial_logs(f: Field, p: Point, cells: Iterable[Cell]) -> list[Elt]:
    """The log of x(P)^i * y(P)^j for each cell (i, j): the 2-D DFT kernel.

    At a point with nonzero coordinates it is the log sum i*x + j*y;
    otherwise the powers follow 0^0 = 1.  p may be any (log x, log y)
    pair, a grid cell included.
    """
    x, y = p
    if x != ZERO and y != ZERO:
        n = f.q - 1
        return [(i * x + j * y) % n for i, j in cells]
    mul_t = f.mul_table
    return [mul_t[f.pow(x, i)][f.pow(y, j)] for i, j in cells]


def poly_values(f: Field, coeffs: PolyDict, points: Iterable[Point]) -> list[Elt]:
    """A sparse bivariate polynomial's value at each point; 0^0 = 1.

    At a point with nonzero coordinates each term is the single log sum
    c + i*x + j*y; at the others it is c times monomial_logs.
    """
    n = f.q - 1
    add_t, mul_t = f.add_table, f.mul_table
    terms = [(c, i, j) for (i, j), c in coeffs.items() if c != ZERO]
    out = []
    for p in points:
        x, y = p
        acc = ZERO
        if x != ZERO and y != ZERO:
            for c, i, j in terms:
                acc = add_t[acc][(c + i * x + j * y) % n]
        else:
            monomials = monomial_logs(f, p, [(i, j) for _, i, j in terms])
            for (c, _, _), e in zip(terms, monomials):
                acc = add_t[acc][mul_t[c][e]]
        out.append(acc)
    return out


# -- the monomial order ----------------------------------------------------


@dataclass(frozen=True)
class WeightedCurveOrder:
    """Total order by curve weight a*i + b*j, ties broken by smaller j.

    On the strip j < a the weights are all distinct (gcd(a, b) = 1 forces
    equal weights to share j), so the tie-break only matters off-strip,
    where it ranks y^a above x^b.  WeightedCurveOrder(1, 1) is the graded
    order (total degree, ties by smaller j) that hcrs codes take.  Orders
    are values: equal and equally hashed when their fields are, as the
    memoized grid enumeration needs.
    """

    a: int
    b: int

    def weight(self, cell: Cell) -> int:
        return self.a * cell[0] + self.b * cell[1]

    def key(self, cell: Cell):
        return (self.a * cell[0] + self.b * cell[1], cell[1])


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


def enumerate_points(c: CurveSpec, f: Field) -> tuple[list[Point], list[Point]]:
    """The affine points of the curve as (points, zero_points): those with
    both coordinates nonzero and those with a zero coordinate, each in
    ascending (log x, log y) order.

    The nonzero-coordinate points are found one x-line at a time: the
    curve's values along the line are summed term by term, each term
    c*x^i*y^j being the log c + i*x + j*y over every y at once.  The
    points with a zero coordinate are tested with poly_values.
    """
    n = f.q - 1
    add_t, mul_t = f.add_table, f.mul_table
    ys = range(n)
    # per term: c, i and the log of y^j at each y
    terms = [
        (cf, i, [(j * y) % n for y in ys]) for (i, j), cf in c.defining_poly if cf != ZERO
    ]
    pts = []
    for x in range(n):
        line = [ZERO] * n
        for cf, i, yj in terms:
            times = mul_t[(cf + i * x) % n]  # times c*x^i
            line = [add_t[v][times[w]] for v, w in zip(line, yj)]
        pts += [Point(x, y) for y, v in zip(ys, line) if v == ZERO]
    # in ascending order already: ZERO is the log -1
    axes = [Point(ZERO, y) for y in f.elements()] + [Point(x, ZERO) for x in ys]
    zero_pts = [p for p, v in zip(axes, poly_values(f, c.poly_dict(), axes)) if v == ZERO]
    return pts, zero_pts


# -- defining sets ---------------------------------------------------------


def defining_set(order: WeightedCurveOrder, m: int, f: Field) -> list[Cell]:
    """A curve code's defining set, the cells where a codeword's 2-D DFT
    must vanish: i < q-1, j < a, a*i + b*j <= m, sorted by the order."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    n = f.q - 1
    cells = [
        (i, j)
        for j in range(order.a)
        for i in range(n)
        if order.a * i + order.b * j <= m
    ]
    cells.sort(key=order.key)
    return cells


def hyperbolic_set(m: int, f: Field) -> list[Cell]:
    """An hcrs code's defining set: the grid cells of product weight
    (i+1)(j+1) < m, listed by that weight, ties by smaller j.

    The listing is only a listing: hcrs codes take the graded order for
    their bases and decoder, since the product weight is no monomial
    order (it is not translation invariant).
    """
    n = f.q - 1
    cells = [(i, j) for i in range(n) for j in range(n) if (i + 1) * (j + 1) < m]
    cells.sort(key=lambda c: ((c[0] + 1) * (c[1] + 1), c[1]))
    return cells


# -- support-set helpers ----------------------------------------------------


def corners(heights: Sequence[int]) -> list[Cell]:
    """The corners of the lower set whose column i holds the cells (i, j)
    with j < heights[i]: its minimal outside cells, by ascending i.  The
    heights do not increase, so these are (i, h_i) wherever h_i drops
    below h_(i-1), then (len(heights), 0)."""
    out = [(i, h) for i, h in enumerate(heights) if i == 0 or h < heights[i - 1]]
    out.append((len(heights), 0))
    return out


def is_downward_closed(cells: Iterable[Cell]) -> bool:
    """Whether the cells form a lower set: each (i, j) has (i-1, j) and
    (i, j-1) with it where they exist, which by induction puts every cell
    componentwise below it in the set."""
    s = set(cells)
    return all((i == 0 or (i - 1, j) in s) and (j == 0 or (i, j - 1) in s) for i, j in s)
