"""GF(p^m) arithmetic in logarithm representation.

A field is built from a prime p, an extension degree m and a monic
primitive polynomial of degree m over GF(p).  Every nonzero element is a
power of the fixed primitive element alpha (a root of that polynomial),
so elements are carried around as plain ints:

    -1        the zero element
    k         alpha^k, for 0 <= k <= q-2

This makes arrays of elements printable exactly as their exponent grids.
All arithmetic is read from three q x q tables built once per field from
the exp/log tables: add_table, sub_table and mul_table.  Entry [a][b] is
the log of a+b, a-b or a*b.  Index q-1 stands for the zero element, so
the log -1 reaches it directly through Python's negative index, and no
branch or offset is needed: add_table[a][-1] == a.  The Field methods
are one-line lookups into the same tables that the inner loops of the
transforms, recurrences and codecs index directly.

The shipped default is GF(9) built from x^2 + x + 2 over GF(3), whose
root satisfies alpha^3 + alpha + 1 = 0.
"""

from __future__ import annotations

from typing import Sequence

from .errors import NonPrimitivePolynomial

# An element is just its discrete log (or -1 for zero).
Elt = int

ZERO: Elt = -1
ONE: Elt = 0

# Largest field order accepted: the arithmetic tables grow as q^2.
MAX_Q = 256


def _times_x(coords: tuple[int, ...], poly: Sequence[int], p: int) -> tuple[int, ...]:
    """Multiply a coordinate vector by x modulo the monic polynomial."""
    m = len(coords)
    carry = coords[m - 1]
    out = [0] * m
    for d in range(m - 1, 0, -1):
        out[d] = (coords[d - 1] - carry * poly[d]) % p
    out[0] = (-carry * poly[0]) % p
    return tuple(out)


class Field:
    """GF(p^m) with exp/log tables and q x q add/sub/mul tables.

    Hot loops bind a table row, e.g. mw = mul_table[w], and index it
    without any call; row and column q-1 are the zero element (see the
    module docstring).  The three tables cost O(q^2) memory and build
    time: q tuples of q small ints each, about 0.5 MB per table at
    q = MAX_Q = 256.  Larger fields are rejected.

    Immutable after construction; safe to share across threads.
    """

    def __init__(self, p: int, m: int, primitive_poly: Sequence[int]):
        """Build the field.

        primitive_poly lists the coefficients c_0..c_m of a monic degree-m
        polynomial over GF(p), ascending powers (c_m must be 1).
        """
        poly = [c % p for c in primitive_poly]
        if len(poly) != m + 1 or poly[m] != 1:
            raise ValueError(f"primitive_poly must be monic of degree {m} over GF({p})")
        self.q = p ** m
        if self.q > MAX_Q:
            raise ValueError(f"GF({p}^{m}) exceeds the field size limit q <= {MAX_Q}")
        self.p = p
        self.m = m
        self.primitive_poly = tuple(poly)

        # exp_table[i] = coordinate tuple of alpha^i; built by repeated
        # multiplication by x modulo primitive_poly.
        n = self.q - 1
        exp: list[tuple[int, ...]] = []
        seen: dict[tuple[int, ...], int] = {}
        cur = tuple([1] + [0] * (m - 1))
        for i in range(n):
            if cur in seen:
                raise NonPrimitivePolynomial(
                    f"alpha^{i} repeats alpha^{seen[cur]}; cycle shorter than {n}"
                )
            seen[cur] = i
            exp.append(cur)
            cur = _times_x(cur, poly, p)
        if cur != exp[0]:
            raise NonPrimitivePolynomial(f"alpha^{n} != 1 for {poly}")
        self.exp_table = exp
        self.log_table = seen

        # Row/column e < n is alpha^e, row/column n is zero.  Sums and
        # differences are taken in GF(p) coordinates; products add logs.
        coords = exp + [tuple([0] * m)]
        self.add_table = tuple(
            tuple(seen.get(tuple((x + y) % p for x, y in zip(u, v)), ZERO) for v in coords)
            for u in coords
        )
        negs = [seen.get(tuple(-x % p for x in v), ZERO) for v in coords]
        self.sub_table = tuple(tuple(row[b] for b in negs) for row in self.add_table)
        logs = list(range(n))
        self.mul_table = tuple(
            tuple(logs[a:] + logs[:a]) + (ZERO,) for a in range(n)
        ) + ((ZERO,) * self.q,)

    # -- representation helpers ------------------------------------------

    def coords(self, a: Elt) -> tuple[int, ...]:
        """Coordinate tuple (c_0..c_{m-1}) of a, i.e. a = sum c_d alpha^d."""
        if a == ZERO:
            return tuple([0] * self.m)
        return self.exp_table[a]

    def from_coords(self, coords: Sequence[int]) -> Elt:
        """Log of the element with the given GF(p) coordinates."""
        key = tuple(c % self.p for c in coords)
        if all(c == 0 for c in key):
            return ZERO
        return self.log_table[key]

    def elements(self) -> list[Elt]:
        """All q elements, zero first."""
        return [ZERO] + list(range(self.q - 1))

    def nonzero(self) -> range:
        return range(self.q - 1)

    # -- arithmetic -------------------------------------------------------

    def add(self, a: Elt, b: Elt) -> Elt:
        return self.add_table[a][b]

    def neg(self, a: Elt) -> Elt:
        return self.sub_table[ZERO][a]

    def sub(self, a: Elt, b: Elt) -> Elt:
        return self.sub_table[a][b]

    def mul(self, a: Elt, b: Elt) -> Elt:
        return self.mul_table[a][b]

    def inv(self, a: Elt) -> Elt:
        if a == ZERO:
            raise ZeroDivisionError("zero has no inverse")
        return (-a) % (self.q - 1)

    def div(self, a: Elt, b: Elt) -> Elt:
        if b == ZERO:
            raise ZeroDivisionError("division by zero")
        if a == ZERO:
            return ZERO
        return (a - b) % (self.q - 1)

    def pow(self, a: Elt, e: int) -> Elt:
        """a**e; 0**0 = 1 by the substitution convention, 0**e = 0 for e > 0."""
        if a == ZERO:
            if e == 0:
                return ONE
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return ZERO
        return (a * e) % (self.q - 1)

    def __repr__(self) -> str:
        return f"Field(p={self.p}, m={self.m}, poly={list(self.primitive_poly)})"


def field_new(p: int, m: int, primitive_poly: Sequence[int]) -> Field:
    """Construct GF(p^m) from a monic primitive polynomial (ascending coeffs)."""
    return Field(p, m, primitive_poly)


def gf9() -> Field:
    """The canonical GF(9): x^2 + x + 2 over GF(3), so alpha^3 + alpha + 1 = 0."""
    return Field(3, 2, [2, 1, 1])
