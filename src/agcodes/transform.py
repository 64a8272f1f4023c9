"""Discrete Fourier transforms over GF(q) on the cyclic group of order q-1.

Conventions (fixed once, used by every encoder/decoder):

    dft2(a)[i][j]  = sum_{r,s} a[r][s] * alpha^(ri+sj)
    idft2(a)[r][s] = sum_{i,j} a[i][j] * alpha^(-ri-sj)

The 2-D pair needs no normalization: the inversion constant (q-1)^2 is
(-1)^2 = 1 in characteristic p, so dft2 and idft2 are exact inverses.

    dft1(a)[i]  = sum_h a[h] * alpha^(ih)
    idft1(a)[h] = -(sum_i a[i] * alpha^(-ih))

The 1-D inverse carries the single normalization factor
(q-1)^(-1) = -1 inside idft1, so dft1(idft1(a)) = idft1(dft1(a)) = a.
The signs are fixed here.  Outside this module the dft2 kernel is also
evaluated directly, with the same sign: by codec's parity-check rows
(x(P)^i * y(P)^j) and by bms._certificate (alpha^(k.z)).

Transforms are computed by row-column decomposition into 1-D transforms,
each evaluated by Horner's rule.  dft2_cells evaluates dft2 only at a
list of cells, for the syndromes on a defining set.  All functions are
pure and return fresh arrays.
"""

from __future__ import annotations

from .errors import DimensionMismatch
from .galois import Elt, Field, ZERO

# A length-(q-1) vector of element logs.
Array1D = list


class Array2D:
    """A (q-1) x (q-1) grid of field elements in log representation.

    data[i][j] is indexed by exponent pairs: first index i is the x-log
    (row), second index j the y-log (column).
    """

    __slots__ = ("q", "data")

    def __init__(self, q: int, data: list[list[Elt]]):
        n = q - 1
        if len(data) != n or any(len(row) != n for row in data):
            raise DimensionMismatch(f"array must be {n}x{n}")
        self.q = q
        self.data = data

    @classmethod
    def zeros(cls, q: int) -> "Array2D":
        n = q - 1
        return cls(q, [[ZERO] * n for _ in range(n)])

    def copy(self) -> "Array2D":
        return Array2D(self.q, [row[:] for row in self.data])

    def __getitem__(self, cell: tuple[int, int]) -> Elt:
        return self.data[cell[0]][cell[1]]

    def __setitem__(self, cell: tuple[int, int], value: Elt) -> None:
        self.data[cell[0]][cell[1]] = value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Array2D) and self.q == other.q and self.data == other.data

    def __repr__(self) -> str:
        rows = "\n".join(" ".join(f"{v:3d}" for v in row) for row in self.data)
        return f"Array2D(q={self.q})\n{rows}"


def _transform1(f: Field, a: list[Elt], sign: int) -> list[Elt]:
    """out[i] = sum_h a[h] * alpha^(sign*ih), by Horner at alpha^(sign*i)."""
    n = f.q - 1
    add_t, mul_t = f.add_table, f.mul_table
    top, rest = a[-1], a[:-1][::-1]
    out = [ZERO] * n
    for i in range(n):
        mw = mul_t[(sign * i) % n]
        acc = top
        for v in rest:
            acc = add_t[mw[acc]][v]
        out[i] = acc
    return out


def _check1(f: Field, a: list[Elt]) -> None:
    if len(a) != f.q - 1:
        raise DimensionMismatch(f"vector must have length {f.q - 1}")


def dft1(f: Field, a: Array1D) -> Array1D:
    """Evaluate a as a polynomial at alpha^i for every i."""
    _check1(f, a)
    return _transform1(f, list(a), +1)


def idft1(f: Field, a: Array1D) -> Array1D:
    """Inverse of dft1, including the -1 normalization (see module doc)."""
    _check1(f, a)
    neg = f.sub_table[ZERO]
    return [neg[v] for v in _transform1(f, list(a), -1)]


def _transform2(f: Field, a: Array2D, sign: int) -> Array2D:
    if a.q != f.q:
        raise DimensionMismatch("array built for a different field size")
    n = f.q - 1
    # rows: transform along the second index
    mid = [_transform1(f, a.data[r], sign) for r in range(n)]
    # columns: transform along the first index
    out = Array2D.zeros(f.q)
    for j in range(n):
        col = _transform1(f, [mid[r][j] for r in range(n)], sign)
        for i in range(n):
            out.data[i][j] = col[i]
    return out


def dft2(f: Field, a: Array2D) -> Array2D:
    """Evaluate the array-as-polynomial at every point (alpha^i, alpha^j)."""
    return _transform2(f, a, +1)


def idft2(f: Field, a: Array2D) -> Array2D:
    """out[r][s] = sum a[i][j] * alpha^(-ri-sj); exact inverse of dft2."""
    return _transform2(f, a, -1)


def dft2_cells(f: Field, a: Array2D, cells: list[tuple[int, int]]) -> list[Elt]:
    """[dft2(f, a)[c] for c in cells], without the rest of the transform.

    A row pass evaluates every row at alpha^j for the distinct j of the
    cells, then one Horner column per cell evaluates the results at
    alpha^i: n^2*|J| + n*|cells| steps against 2n^3 for a full dft2.
    """
    if a.q != f.q:
        raise DimensionMismatch("array built for a different field size")
    add_t, mul_t = f.add_table, f.mul_table
    # Horner form of a vector: its last entry, then the rest reversed
    rows = [(row[-1], row[-2::-1]) for row in a.data]
    cols = {}  # j -> Horner form of [row r of a at alpha^j for every r]
    for j in {c[1] for c in cells}:
        mw = mul_t[j]
        col = []
        for top, rest in rows:
            acc = top
            for v in rest:
                acc = add_t[mw[acc]][v]
            col.append(acc)
        cols[j] = (col[-1], col[-2::-1])
    out = []
    for i, j in cells:
        mw = mul_t[i]
        acc, rest = cols[j]
        for v in rest:
            acc = add_t[mw[acc]][v]
        out.append(acc)
    return out
