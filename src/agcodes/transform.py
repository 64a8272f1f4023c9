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
evaluated directly, with the same sign, and only by two kernels in
geometry: monomial_logs (x(P)^i * y(P)^j per cell, which gives codec's
parity-check rows, the evaluation columns of bms.vanishing_ideal_basis
and bms._certificate's columns alpha^(k.z)) and poly_values (a
polynomial's value at each point, the certificate's filter and
construction's vanishing checks).

Full transforms are computed by row-column decomposition into 1-D
transforms, all four by one packed kernel.  For each field a table packs
the GF(p) coordinates of alpha^(v+i*h) for every output i into one
Python int, so a 1-D transform of length n is n big-int additions (XORs
in characteristic 2) run in C, then one unpacking of the n slots.  The
table is built by the first full transform of a field, never by Field()
or code construction, and is cached on the field; it holds about
n^2 * q slots.  dft2_cells evaluates dft2 only at a list of cells, for
the syndromes on a defining set, by Horner's rule: for a few cells that
beats a packed full transform.  All functions are pure and return fresh
arrays.
"""

from __future__ import annotations

import sys
from functools import partial, reduce
from operator import xor

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


def _packed_kernels(f: Field) -> dict:
    """f's packed 1-D transform of each sign: {+1: dft, -1: idft}.

    rows[h][v] packs the GF(p) coordinates of alpha^(v+i*h) for every
    output i into one int, slot i at bits i*S, S = 8*slot_bytes.  Each
    coordinate is a digit of w bits: one XOR bit for p = 2, otherwise wide
    enough that a sum of n digits below p cannot carry out of it.  Entry
    q-1, the zero log, is 0.  out[i] = sum_h a[h] * alpha^(sign*ih) is the
    slot-wise sum of rows[sign*h][a[h]] over h, n big-int additions (XORs
    for p = 2), unpacked once.  The table holds n*q ints of n*S bits:
    about 0.2 MB at q = 25, 2.4 MB at q = 81, 20 MB at q = 256 and 93 MB
    at q = 243.
    """
    p, m, q = f.p, f.m, f.q
    n = q - 1
    w = 1 if p == 2 else (n * (p - 1)).bit_length()
    direct = m * w <= 16
    if direct:  # a slot is one cell, decoded by one lookup
        cell, stride = (8 if m * w <= 8 else 16), 1
    else:  # a slot is `stride` cells, decoded digit by digit
        cell = 8 if w <= 8 else 16
        stride = -(-m * w // cell)
    slot_bytes = stride * cell // 8
    nbytes = n * slot_bytes
    fmt = "B" if cell == 8 else "H"
    # cells are read in host byte order; a big-endian host sees the slots
    # last first, so it steps through them backwards
    order = sys.byteorder
    step = stride if order == "little" else -stride

    # log_at[sum c_d p^d] is the log of the element with coordinates c
    log_at = [ZERO] * q
    packed = []
    for e, c in enumerate(f.exp_table):
        log_at[sum(c[d] * p**d for d in range(m))] = e
        packed.append(sum(c[d] << (d * w) for d in range(m)))
    # digit_pos[d][x]: where a value x of digit d moves the sum c_d p^d
    digit_pos = [[(x % p) * p**d for x in range(1 << w)] for d in range(m)]

    enc = [x.to_bytes(slot_bytes, "little") for x in packed]
    rots = [enc[v:] + enc[:v] for v in range(n)]
    rows = []
    for h in range(n):
        at = [i * h % n for i in range(n)]
        rows.append(tuple(
            [int.from_bytes(b"".join(map(rot.__getitem__, at)), "little") for rot in rots] + [0]
        ))
    combine = partial(reduce, xor) if p == 2 else sum

    if direct:
        sums = [0]
        for table in digit_pos:
            sums = [hi + lo for hi in table for lo in sums]
        slot_log = [log_at[k] for k in sums]

        def decode(total: int) -> list[Elt]:
            view = memoryview(total.to_bytes(nbytes, order)).cast(fmt)[::step]
            return list(map(slot_log.__getitem__, view))
    else:
        mask = int.from_bytes(((1 << w) - 1).to_bytes(slot_bytes, "little") * n, "little")
        digits = [(d * w, table.__getitem__) for d, table in enumerate(digit_pos)]

        def decode(total: int) -> list[Elt]:
            parts = []
            for s, pos in digits:
                # digit d shifted to the bottom of each slot, the rest masked
                cells = memoryview(((total >> s) & mask).to_bytes(nbytes, order)).cast(fmt)
                parts.append(map(pos, cells[::step]))
            return list(map(log_at.__getitem__, map(sum, zip(*parts))))

    def kernel(tabs):
        return lambda a: decode(combine(map(tuple.__getitem__, tabs, a)))

    return {+1: kernel(rows), -1: kernel([rows[-h % n] for h in range(n)])}


def _kernel(f: Field, sign: int):
    """f's packed 1-D transform of the given sign; the first call builds
    the table and caches it on the field."""
    if f.transform_table is None:
        f.transform_table = _packed_kernels(f)
    return f.transform_table[sign]


def _check1(f: Field, a: list[Elt]) -> None:
    if len(a) != f.q - 1:
        raise DimensionMismatch(f"vector must have length {f.q - 1}")


def dft1(f: Field, a: Array1D) -> Array1D:
    """Evaluate a as a polynomial at alpha^i for every i."""
    _check1(f, a)
    return _kernel(f, +1)(a)


def idft1(f: Field, a: Array1D) -> Array1D:
    """Inverse of dft1, including the -1 normalization (see module doc)."""
    _check1(f, a)
    neg = f.sub_table[ZERO]
    return [neg[v] for v in _kernel(f, -1)(a)]


def _transform2(f: Field, a: Array2D, sign: int) -> Array2D:
    if a.q != f.q:
        raise DimensionMismatch("array built for a different field size")
    t = _kernel(f, sign)
    # rows along the second index, then columns along the first
    cols = map(t, zip(*map(t, a.data)))
    return Array2D(f.q, [list(row) for row in zip(*cols)])


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
