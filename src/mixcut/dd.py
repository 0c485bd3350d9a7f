"""Exact cone computations by double description.

`dual_rays` takes integer generators of a pointed, full-dimensional cone
and returns the primitive integer normals of its facets (equivalently, the
extreme rays of the dual cone).  Its seed, the first d linearly
independent generators and their simplicial cone's dual rays, comes from
the package's one exact elimination (`linalg.dual_basis`).  It schedules
each edge ahead of time, so that an insertion tests adjacency only among
the rays tight on the new generator, by one containment scan over blocks
of their zero sets with a union per block (a flat bit-pattern tree, after
Terzer & Stelling, Bioinformatics 24, 2008).  The two independent oracles
that cross-check `dual_rays` (ridge pivoting and a literal hyperplane
search) live with the tests, in `tests/hull_oracles.py`, with an
elimination of their own; so does `polyhedron_generators`, which reads an
H-polyhedron's vertices and extreme rays off the dual rays of its
homogenization (`tests/projection_reference.py`).
"""

from __future__ import annotations

import time
from bisect import bisect_right
from functools import reduce
from itertools import chain, compress, repeat
from operator import and_, eq, itemgetter, mul, not_, or_
from typing import Optional, Sequence

from .linalg import _dot, _reduce, dual_basis


class BudgetExceeded(RuntimeError):
    """A cone computation ran past its configured budget; results discarded."""


class Budget:
    """Wall-clock / step guard for double description.

    DD charges one insertion's candidate pairs at once, so the deadline is
    read on every call.  Its containment scan also charges 0 once per group
    of tight rays that die at the same later generator, so that one long
    insertion cannot run far past the deadline.  Zero seconds or zero steps
    is a budget like any other, not "no budget".  A NaN limit would never
    trip, so it is refused with `ValueError`.
    """

    def __init__(self, seconds: Optional[float] = None, steps: Optional[int] = None):
        if seconds != seconds or steps != steps:
            raise ValueError("a budget limit must not be NaN")
        self.deadline = time.monotonic() + seconds if seconds is not None else None
        self.steps_left = steps

    def charge(self, amount: int = 1) -> None:
        if self.steps_left is not None:
            self.steps_left -= amount
            if self.steps_left < 0:
                raise BudgetExceeded("step limit exhausted")
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise BudgetExceeded("time budget exhausted")


def dual_rays(
    generators: Sequence[Sequence[int]],
    budget: Optional[Budget] = None,
) -> list[tuple[int, ...]]:
    """Extreme rays of {a : a . g >= 0 for every generator g}.

    The generators must span R^d so that the dual cone is pointed, and
    their entries must be ints; otherwise `ValueError`.  Double description
    with pre-ordered edges (Fukuda & Prodon 1996): seed with the first d
    linearly independent generators, whose halfspaces form a simplicial
    cone (`linalg.dual_basis` gives its rays), then insert the remaining
    halfspaces in the given order, which makes the run fully deterministic.

    A ray is evaluated forward against the later generators when it is
    made, up to the first one it violates: the iteration of that generator
    is its ``fii`` (where it dies) and the zero bits before it are its zero
    set.  So every iteration knows in advance which rays die there and which
    are tight there.  Two rays that are adjacent stay adjacent while both
    live, and two rays can only become adjacent at an iteration where both
    are tight, or when one is made from the other.  An adjacent pair whose
    earlier-dying ray dies at ``fmin`` while the other is strictly positive
    there makes a new ray at ``fmin``, so it is stored in ``edges[fmin]``
    once, at the last iteration before ``fmin`` where both rays are tight.

    Iteration t makes one ray per stored edge, each adjacent to its positive
    parent, then tests the pairs among the rays tight on generator t (the
    old tight rays and the new ones).  A pair's common zero set w holds bit
    t, so only those rays can contain it: the pair is adjacent iff w has at
    least d - 2 bits and no third tight ray's zero set contains w.  The
    tight rays are sorted by ``fii``, so each ray meets only the rays that
    die later.  The containment scan runs over blocks of 16 zero sets,
    sorted by their bits up to t so that each block holds similar sets,
    with each block's union beside it: a pair reads only the blocks whose
    union contains w, and stops at the third zero set that does (the
    pair's own two always do).

    A budget is charged once per insertion with the number of pairs of a
    positive and a violating ray, so a completed run charges the candidate
    pairs of classic double description, and with 0 once per fii group of
    the containment scan, which reads the deadline without a step.
    """
    gens = [tuple(g) for g in generators]
    if not gens:
        raise ValueError("no generators")
    if not all(map(isinstance, chain.from_iterable(gens), repeat(int))):
        raise ValueError("generator entries must be ints")
    d = len(gens[0])
    seed, seed_rays = dual_basis(gens)
    if len(seed) < d:
        raise ValueError("generators do not span the space; dual cone has lineality")
    seed_set = set(seed)
    order = [gens[i] for i in seed] + [g for i, g in enumerate(gens) if i not in seed_set]
    n = len(order)
    # per iteration: the rays that die there, the rays tight there, and the
    # (positive, dying) pairs that make a new ray there, stored flat; a ray
    # is the tuple (fii, zero set, vector) and is dropped with the lists of
    # its fii
    dying: list[list] = [[] for _ in range(n + 1)]
    tight: list[list] = [[] for _ in range(n)]
    edges: list[list] = [[] for _ in range(n)]

    def make(vec: tuple[int, ...], zeros: int, t: int) -> tuple:
        """The ray of `vec`, made at iteration t, evaluated forward to its fii."""
        zero_at = []
        k = t + 1
        while k < n:
            s = sum(map(mul, vec, order[k]))
            if s < 0:
                break
            if not s:
                zeros |= 1 << k
                zero_at.append(k)
            k += 1
        else:
            # every ray that never dies shares the int n
            k = n
        ray = (k, zeros, vec)
        dying[k].append(ray)
        for k in zero_at:
            tight[k].append(ray)
        return ray

    def schedule(a: tuple, b: tuple, below: int) -> None:
        """Store the adjacent pair {a, b} if no later shared zero retests it."""
        if b[0] < a[0]:
            a, b = b, a
        fa = a[0]
        # b must be positive at fa, and the pair tight together only below
        if fa < b[0] and (a[1] | 1 << fa) & b[1] < below:
            edges[fa] += b, a

    seeds = [make(r, ((1 << d) - 1) & ~(1 << j), d - 1) for j, r in enumerate(seed_rays)]
    for i in range(d):
        for j in range(i + 1, d):
            schedule(seeds[i], seeds[j], 1 << d)

    alive = d
    min_bits = d - 2
    for t in range(d, n):
        g = order[t]
        bit = 1 << t
        below = bit << 1
        dead = dying[t]
        dying[t] = None
        tight_t = tight[t]
        tight[t] = None
        if dead:
            if budget is not None:
                budget.charge((alive - len(dead) - len(tight_t)) * len(dead))
            alive -= len(dead)
            pairs = iter(edges[t])
            for p, q in zip(pairs, pairs):
                rp, rq = p[2], q[2]
                sp = _dot(rp, g)
                sq = _dot(rq, g)
                r = make(_reduce([sp * b - sq * a for a, b in zip(rp, rq)]),
                         p[1] & q[1] | bit, t)
                tight_t.append(r)
                schedule(r, p, below)
                alive += 1
        edges[t] = None
        if len(tight_t) < 2:
            continue
        tight_t.sort(key=itemgetter(0))
        # n closes the fii list, so the group loop stops at the rays that
        # never die
        fiis = list(map(itemgetter(0), tight_t))
        fiis.append(n)
        zs = list(map(itemgetter(1), tight_t))
        # the containment scan's blocks, built for the first pair tested
        blocks = None
        i = 0
        while fiis[i] < n:
            if budget is not None:
                budget.charge(0)
            fa = fiis[i]
            j = bisect_right(fiis, fa, i)
            fbit = 1 << fa
            # the rays that die later and are positive at fa
            later = list(compress(tight_t[j:], map(not_, map(fbit.__and__, zs[j:]))))
            if later:
                for a in tight_t[i:j]:
                    za = a[1] | fbit
                    for b in later:
                        w = za & b[1]
                        # w above bit t: a later shared zero, or b tight at fa
                        if w >= below or w.bit_count() < min_bits:
                            continue
                        if blocks is None:
                            # 16 zero sets a block: 8 to 32 run alike
                            scan = sorted(zs, key=(below - 1).__and__)
                            blocks = [scan[k:k + 16] for k in range(0, len(scan), 16)]
                            unions = [reduce(or_, block) for block in blocks]
                        # a and b hold w; a third holder blocks the pair
                        holders = map(and_, repeat(w), chain.from_iterable(
                            compress(blocks, map(eq, repeat(w), map(and_, repeat(w), unions)))))
                        if w in holders and w in holders and w in holders:
                            continue
                        edges[fa] += b, a
            i = j
    return sorted(r[2] for r in dying[n])
