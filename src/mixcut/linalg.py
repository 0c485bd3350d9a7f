"""Small exact linear-algebra kit: ranks and affine ranks over Q, rank over GF(2).

Ranks over Q read one fraction-free elimination, `_echelon`. It scales its
input rows to primitive integer tuples (coordinates coprime) and keeps a
reduced echelon basis in plain integers, so the hot loops never build
Fraction objects.

`rank_mod2` is a lower bound for the rank of an integer matrix over Q: a
minor that is nonzero mod 2 is an odd integer, so nonzero over Z.  When that
bound already equals an upper bound known from elsewhere, it settles the
rank without the exact elimination; when it falls short it proves nothing.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence


def _reduce(vec: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries."""
    g = gcd(*vec)
    if g > 1:
        return tuple(v // g for v in vec)
    return tuple(vec)


def primitive(vec: Sequence) -> tuple[int, ...]:
    """Scale a vector of ints and Fractions to coprime integers, preserving direction."""
    denom = lcm(*(v.denominator for v in vec))
    return _reduce([v.numerator * (denom // v.denominator) for v in vec])


def _echelon(rows: Iterable[Sequence]) -> tuple[list[tuple[int, ...]], list[int], list[int]]:
    """Reduced echelon basis of the span of `rows`, inserting one row at a time.

    Returns (basis, pivots, raised).  Each basis row is primitive, zero before
    its pivot column, positive at it, and zero at every other pivot column;
    such a basis depends only on the row space.  `raised` holds the indices
    of the input rows that raised the rank, in input order.  Stops once the
    rank reaches the row length.
    """
    basis: list[tuple[int, ...]] = []
    pivots: list[int] = []
    raised: list[int] = []
    for idx, row in enumerate(rows):
        vec = primitive(row)
        for b, c in zip(basis, pivots):
            f = vec[c]
            if f:
                pv = b[c]
                vec = _reduce([pv * x - f * y for x, y in zip(vec, b)])
        lead = next((c for c, v in enumerate(vec) if v), None)
        if lead is None:
            continue
        if vec[lead] < 0:
            vec = tuple(-v for v in vec)
        pv = vec[lead]
        for i, b in enumerate(basis):
            f = b[lead]
            if f:
                basis[i] = _reduce([pv * x - f * y for x, y in zip(b, vec)])
        basis.append(vec)
        pivots.append(lead)
        raised.append(idx)
        if len(raised) == len(vec):
            break
    return basis, pivots, raised


def rank(rows: Iterable[Sequence[Fraction]]) -> int:
    """Rank of a list of rational vectors."""
    return len(_echelon(rows)[0])


def rank_mod2(rows: Iterable[int]) -> int:
    """Rank over GF(2) of rows given as bit masks (bit k holds column k).

    Each basis row is keyed by its lowest set bit; a new row is XORed with
    the basis row sharing its lowest bit until that bit is new or the row
    vanishes.
    """
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            low = row & -row
            if low not in basis:
                basis[low] = row
                break
            row ^= basis[low]
    return len(basis)


def affine_rank(points: Sequence[Sequence[Fraction]], directions: Sequence[Sequence[Fraction]] = ()) -> int:
    """Affine rank of a point set, optionally augmented with ray directions.

    A set with affine rank k spans a (k-1)-dimensional affine subspace; rays
    count as additional difference vectors anchored anywhere on the set.
    Entries may be ints or Fractions.
    """
    if not points:
        return rank(directions)
    base = points[0]
    rows = [tuple(a - b for a, b in zip(p, base)) for p in points[1:]]
    rows.extend(directions)
    return rank(rows) + 1
