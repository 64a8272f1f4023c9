"""Independent oracles for the Groebner bases the package computes.

The full-array synthesis works on shift functionals of a (q-1) x (q-1)
array, not on point evaluations, so it checks vanishing_ideal_basis and
the bases construction builds without sharing their scan.  It costs a
(q-1)^2-long vector per monomial, which is why it lives here and not in
the package.
"""

from __future__ import annotations

from typing import Sequence

from agcodes.bms import BivariatePoly, GroebnerBasis, SakataState, _Echelon, _leq
from agcodes.galois import ONE, Elt, Field
from agcodes.geometry import Cell, Point, WeightedCurveOrder
from agcodes.transform import Array2D, dft2


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
        relation = echelon.add(vec(t), t)
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
    indicator = Array2D.zeros(f.q)
    for p in points:
        indicator[(p.x, p.y)] = ONE
    return synthesize_full(f, dft2(f, indicator).data, order)


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


def sakata_basis(state: SakataState) -> GroebnerBasis:
    """A Sakata state's minimal polynomial set F with its staircase."""
    order = state.order
    elems = tuple(BivariatePoly(co, order) for _, co in state.F)
    delta = tuple(sorted(state.delta, key=order.key))
    return GroebnerBasis(elems, delta, order)
