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
evaluated directly, with the same sign, and only in geometry: by two
kernels, monomial_logs (x(P)^i * y(P)^j per cell, which gives codec's
parity-check rows, the greedy walk's rows and corner monomials, the
evaluation columns of bms.vanishing_ideal_basis, bms._certificate's
columns alpha^(k.z) and the logs of the zero scan's packed columns) and
poly_values (a polynomial's value at each point, construction's
vanishing checks), and by enumerate_points, which sums the curve along
whole x-lines.

Full transforms are computed by row-column decomposition into 1-D
transforms, all four by one packed kernel.  For each field a table packs
the GF(p) coordinates of alpha^(v+i*h) for every output i into one
Python int, so a 1-D transform of length n is n big-int additions (XORs
in characteristic 2) run in C, then one unpacking of the n slots.  The
table is built by the first full transform of a field, never by Field()
or code construction, and is cached on the field; it holds about
n^2 * q slots.  The slot layout and its two decoders (_slot_layout: one
lookup per slot, or digit by digit) serve any number of slots, and are
shared with bms's zero scan, whose slots are the code points; the scan
builds only its own layout, never these tables.  dft2_cells evaluates
dft2 only at a list of cells, for the syndromes on a defining set, by
Horner's rule: for a few cells that beats a packed full transform.  All
functions are pure and return fresh arrays.

A vector is a list of q-1 element logs and a 2-D array a plain list of
q-1 rows of q-1, a[i][j] at x-log i and y-log j: the rows extend()
returns, the inverse transforms the encoders read and the files the CLI
reads.  dft1 and idft1 check a vector's length; dft2, idft2 and
dft2_cells check the row count and every row's length, and raise
DimensionMismatch otherwise.
"""

from __future__ import annotations

import math
import sys
from functools import partial, reduce
from operator import xor
from typing import Callable, Iterable, NamedTuple

from .errors import DimensionMismatch
from .galois import Elt, Field, ZERO

# A length-(q-1) vector, and q-1 rows of q-1, of element logs.
Array1D = list
Array2D = list


class _Slots(NamedTuple):
    """A layout of count field elements in one Python int, one slot each.

    enc[e] is the slot holding the GF(p) coordinates of alpha^e, e < q-1:
    coordinate d is a digit of w bits at bit d*w, one XOR bit for p = 2,
    otherwise wide enough that a sum of q-1 digits below p cannot carry
    out of it.  A packed int has slot k at bytes k*len(enc[e]) onwards
    (little-endian).  combine adds packed ints slot-wise (XOR-reduce for
    p = 2, sum otherwise); cap is how many digits below p a slot digit can
    sum without carrying (unbounded for p = 2); decode gives the element
    log of each of the count slots of a combined int.
    """

    enc: list[bytes]
    combine: Callable[[Iterable[int]], int]
    cap: float
    decode: Callable[[int], list[Elt]]


def _slot_layout(f: Field, count: int) -> _Slots:
    """f's slot layout for ints of count slots, with its decoder: by one
    lookup per slot when a slot's m digits fit in 16 bits, otherwise
    digit by digit, each digit reduced mod p by its own lookup."""
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
    nbytes = count * slot_bytes
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

    if direct:
        sums = [0]
        for table in digit_pos:
            sums = [hi + lo for hi in table for lo in sums]
        slot_log = [log_at[k] for k in sums]

        def decode(total: int) -> list[Elt]:
            view = memoryview(total.to_bytes(nbytes, order)).cast(fmt)[::step]
            return list(map(slot_log.__getitem__, view))
    else:
        mask = int.from_bytes(((1 << w) - 1).to_bytes(slot_bytes, "little") * count, "little")
        digits = [(d * w, table.__getitem__) for d, table in enumerate(digit_pos)]

        def decode(total: int) -> list[Elt]:
            parts = []
            for s, pos in digits:
                # digit d shifted to the bottom of each slot, the rest masked
                cells = memoryview(((total >> s) & mask).to_bytes(nbytes, order)).cast(fmt)
                parts.append(map(pos, cells[::step]))
            return list(map(log_at.__getitem__, map(sum, zip(*parts))))

    enc = [x.to_bytes(slot_bytes, "little") for x in packed]
    if p == 2:
        return _Slots(enc, partial(reduce, xor), math.inf, decode)
    return _Slots(enc, sum, ((1 << w) - 1) // (p - 1), decode)


def _packed_kernels(f: Field) -> dict:
    """f's packed 1-D transform of each sign: {+1: dft, -1: idft}.

    rows[h][v] packs alpha^(v+i*h) for every output i into one int of
    q-1 slots (_slot_layout), slot i for output i.  Entry q-1, the zero
    log, is 0.  out[i] = sum_h a[h] * alpha^(sign*ih) is the slot-wise sum
    of rows[sign*h][a[h]] over h, n big-int additions (XORs for p = 2),
    unpacked once; a sum of n digits below p stays within the cap.  The
    table holds n*q ints of n slots: about 0.2 MB at q = 25, 2.4 MB at
    q = 81, 20 MB at q = 256 and 93 MB at q = 243.
    """
    n = f.q - 1
    enc, combine, _, decode = _slot_layout(f, n)
    rots = [enc[v:] + enc[:v] for v in range(n)]
    rows = []
    for h in range(n):
        at = [i * h % n for i in range(n)]
        rows.append(tuple(
            [int.from_bytes(b"".join(map(rot.__getitem__, at)), "little") for rot in rots] + [0]
        ))

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


def _check2(f: Field, a: list[list[Elt]]) -> None:
    n = f.q - 1
    if len(a) != n or any(len(row) != n for row in a):
        raise DimensionMismatch(f"array must be {n}x{n}")


def _transform2(f: Field, a: Array2D, sign: int) -> Array2D:
    _check2(f, a)
    t = _kernel(f, sign)
    # rows along the second index, then columns along the first
    cols = map(t, zip(*map(t, a)))
    return [list(row) for row in zip(*cols)]


def dft2(f: Field, a: Array2D) -> Array2D:
    """Evaluate the array-as-polynomial at every point (alpha^i, alpha^j)."""
    return _transform2(f, a, +1)


def idft2(f: Field, a: Array2D) -> Array2D:
    """out[r][s] = sum a[i][j] * alpha^(-ri-sj); exact inverse of dft2."""
    return _transform2(f, a, -1)


def dft2_cells(f: Field, a: Array2D, cells: list[tuple[int, int]]) -> list[Elt]:
    """[dft2(f, a)[i][j] for i, j in cells], without the rest of the
    transform.

    A row pass evaluates every row at alpha^j for the distinct j of the
    cells, then one Horner column per cell evaluates the results at
    alpha^i: n^2*|J| + n*|cells| steps against 2n^3 for a full dft2.
    """
    _check2(f, a)
    add_t, mul_t = f.add_table, f.mul_table
    # Horner form of a vector: its last entry, then the rest reversed
    rows = [(row[-1], row[-2::-1]) for row in a]
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
