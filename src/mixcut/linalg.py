"""Small exact linear-algebra kit: ranks and affine ranks over Q, rank over GF(2).

Ranks over Q and the seed of double description read one fraction-free
elimination, `_sweep`.  It runs forward over integer rows and keeps a basis
of the common kernel of the rows that raised the rank so far, in plain
integers, so the hot loops never build Fraction objects.  `rank` scales its
rows to primitive integer tuples (coordinates coprime) first; `dual_basis`
adds a backward pass that turns the sweep's pivots into the dual basis DD
seeds with (`dd.dual_rays`).  The test oracles keep their own elimination
(`tests/hull_oracles.py`).

`rank_mod2` is a lower bound for the rank of an integer matrix over Q: a
minor that is nonzero mod 2 is an odd integer, so nonzero over Z.  When that
bound already equals an upper bound known from elsewhere, it settles the
rank without the exact elimination; when it falls short it proves nothing.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence


def _reduce(vec: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries."""
    g = gcd(*vec)
    if g > 1:
        return tuple(v // g for v in vec)
    return tuple(vec)


def primitive(vec: Sequence) -> tuple[int, ...]:
    """Scale a vector of ints and Fractions to coprime integers, preserving direction."""
    ratios = [v.as_integer_ratio() for v in vec]
    denom = lcm(*[d for _, d in ratios])
    return _reduce([n * (denom // d) for n, d in ratios])


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _sweep(rows: Sequence[Sequence[int]]) -> tuple[list[int], list[tuple[int, ...]]]:
    """Forward kernel sweep: the integer rows that raise the rank, and their pivots.

    ``free`` is a primitive basis of the common kernel of the rows that
    raised the rank so far.  A row raises the rank iff it is nonzero on some
    free vector, so a row that does not costs only d - r dot products.  One
    that does takes its first such vector, signed positive on it, as its
    pivot, and every other free vector is moved into its kernel.  Returns
    (raised, pivots): the indices of the rows that raised the rank, in input
    order, and for each its pivot, which is zero on the raised rows before
    it.  Stops once the rank reaches the row length.
    """
    d = len(rows[0]) if rows else 0
    free = [tuple(int(i == j) for i in range(d)) for j in range(d)]
    raised: list[int] = []
    pivots: list[tuple[int, ...]] = []
    for idx, row in enumerate(rows):
        dots = [_dot(v, row) for v in free]
        piv = next((i for i, s in enumerate(dots) if s), None)
        if piv is None:
            continue
        v = free.pop(piv)
        s = dots.pop(piv)
        if s < 0:
            v = tuple(-x for x in v)
            s = -s
        # s u - su v is zero on the row and keeps u's zeros on the rows before
        free = [_reduce([s * a - su * b for a, b in zip(u, v)]) if su else u
                for u, su in zip(free, dots)]
        raised.append(idx)
        pivots.append(v)
        if not free:
            break
    return raised, pivots


def dual_basis(rows: Sequence[Sequence[int]]) -> tuple[list[int], list[tuple[int, ...]]]:
    """The first linearly independent integer rows and, at full rank, their duals.

    Returns (raised, duals): the indices of the rows that raise the rank, in
    input order, and for each of them the primitive vector that is zero on
    the other raised rows and positive on it.  The duals are empty unless
    the rows reach rank d, their length.  A backward pass builds them from
    the sweep's pivots, the last first: a pivot is already zero on the
    raised rows before it, and each later dual it is nonzero on is
    subtracted out.
    """
    raised, pivots = _sweep(rows)
    if not rows or len(raised) < len(rows[0]):
        return raised, []
    # (row, its dual, dual . row), the last raised row first
    done: list[tuple[Sequence[int], tuple[int, ...], int]] = []
    for idx, u in zip(reversed(raised), reversed(pivots)):
        for g, v, s in done:
            su = _dot(u, g)
            if su:
                u = _reduce([s * a - su * b for a, b in zip(u, v)])
        g = rows[idx]
        done.append((g, u, _dot(u, g)))
    return raised, [v for _, v, _ in reversed(done)]


def rank(rows: Iterable[Sequence[Fraction]]) -> int:
    """Rank of a list of rational vectors."""
    return len(_sweep([primitive(r) for r in rows])[0])


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
