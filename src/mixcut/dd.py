"""Exact cone computations: double description and a wrapping cross-oracle.

Both algorithms work on a pointed, full-dimensional cone given by integer
generator vectors and return the primitive integer normals of its facets
(equivalently, the extreme rays of the dual cone).  `dual_rays` is the
production path; `facet_normals_by_wrapping` is an algorithmically unrelated
ridge-pivoting enumeration used to cross-check it.
"""

from __future__ import annotations

import time
from fractions import Fraction
from operator import indexOf, mul
from typing import Optional, Sequence

from . import linalg
from .linalg import _reduce


class BudgetExceeded(RuntimeError):
    """A cone computation ran past its configured budget; results discarded."""


class Budget:
    """Wall-clock / step guard for double description.

    DD charges one insertion's candidate pairs at once, so the deadline is
    read on every call.
    """

    def __init__(self, seconds: Optional[float] = None, steps: Optional[int] = None):
        self.deadline = time.monotonic() + seconds if seconds else None
        self.steps_left = steps

    def charge(self, amount: int = 1) -> None:
        if self.steps_left is not None:
            self.steps_left -= amount
            if self.steps_left < 0:
                raise BudgetExceeded("step limit exhausted")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded("time budget exhausted")


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def dual_rays(
    generators: Sequence[Sequence[int]],
    budget: Optional[Budget] = None,
) -> list[tuple[int, ...]]:
    """Extreme rays of {a : a . g >= 0 for every generator g}.

    The generators must span R^d so that the dual cone is pointed.  Classic
    double description: seed with d linearly independent generators (their
    halfspaces form a simplicial cone) and insert the remaining halfspaces
    one at a time, combining adjacent rays across each new hyperplane.
    The insertion order is the given generator order, which makes the run
    fully deterministic.

    Adjacency is the combinatorial zero-set test on bitmask incidence: a
    positive ray and a negative ray are combined iff their common zero set w
    has at least d - 2 bits and no third ray's zero set contains w.  The
    smaller of the positive and negative sides is the outer loop.  Each outer
    ray keeps ``found``, the zero sets of the third rays that blocked its
    earlier pairs (neighbouring pairs tend to share a blocker), and a pair is
    tested against ``found`` first; the inner ray's own entry, when it is
    there, is zeroed for the test, since its zero set contains w.  Only a
    pair that passes goes on to the scan over every ray, which runs in C:
    the pair's own entries of a copy of the incidence list are zeroed and a
    last slot holds w as a sentinel, so ``indexOf(map(w.__and__, others),
    w)`` is the position of the first blocking ray, or of the sentinel when
    there is none.  A blocker it finds joins ``found``.  A budget is charged
    once per insertion with that insertion's candidate-pair count, so a
    completed run charges one step per candidate pair.
    """
    gens = [tuple(int(v) for v in g) for g in generators]
    if not gens:
        raise ValueError("no generators")
    d = len(gens[0])
    seed = linalg.independent_prefix(gens, d)
    if len(seed) < d:
        raise ValueError("generators do not span the space; dual cone has lineality")
    seed_set = set(seed)
    order = seed + [i for i in range(len(gens)) if i not in seed_set]

    seed_rows = [gens[i] for i in seed]
    rays: list[tuple[int, ...]] = []
    incidence: list[int] = []
    all_seed_bits = (1 << d) - 1
    for j in range(d):
        # the ray tight on every seed halfspace but j, oriented into halfspace j
        (col,) = linalg.nullspace(seed_rows[:j] + seed_rows[j + 1:], d)
        if _dot(col, seed_rows[j]) < 0:
            col = tuple(-v for v in col)
        rays.append(col)
        incidence.append(all_seed_bits & ~(1 << j))

    for t in range(d, len(order)):
        g = gens[order[t]]
        bit = 1 << t
        dots = [_dot(r, g) for r in rays]
        if all(s >= 0 for s in dots):
            incidence = [
                inc | bit if s == 0 else inc
                for inc, s in zip(incidence, dots)
            ]
            continue
        keep_rays: list[tuple[int, ...]] = []
        keep_inc: list[int] = []
        pos: list[int] = []
        neg: list[int] = []
        for idx, s in enumerate(dots):
            if s > 0:
                pos.append(idx)
                keep_rays.append(rays[idx])
                keep_inc.append(incidence[idx])
            elif s == 0:
                keep_rays.append(rays[idx])
                keep_inc.append(incidence[idx] | bit)
        for idx, s in enumerate(dots):
            if s < 0:
                neg.append(idx)
        if budget is not None:
            budget.charge(len(pos) * len(neg))
        min_bits = d - 2
        if len(neg) < len(pos):
            outer, inner = neg, pos
        else:
            outer, inner = pos, neg
        # the sentinel slot holds w during a scan, so the scan always ends
        last = len(incidence)
        others = incidence + [0]
        for io in outer:
            zo = incidence[io]
            others[io] = 0
            found: list[int] = []
            slot: dict[int, int] = {}  # ray index -> its position in found
            for ii in inner:
                zi = incidence[ii]
                w = zo & zi
                if w.bit_count() < min_bits:
                    continue
                # w is 0 only when d = 2, where no third ray exists
                if w:
                    if w in map(w.__and__, found):
                        # the hit may be the inner ray itself, whose zero
                        # set contains w: if it is in found, test without it
                        s = slot.get(ii)
                        if s is None:
                            continue
                        found[s] = 0
                        blocked = w in map(w.__and__, found)
                        found[s] = zi
                        if blocked:
                            continue
                    others[ii] = 0
                    others[last] = w
                    k = indexOf(map(w.__and__, others), w)
                    others[ii] = zi
                    if k != last:
                        slot[k] = len(found)
                        found.append(incidence[k])
                        continue
                ip, i_neg = (io, ii) if outer is pos else (ii, io)
                sp = dots[ip]
                sn = dots[i_neg]
                rp = rays[ip]
                rn = rays[i_neg]
                new = _reduce([sp * b - sn * a for a, b in zip(rp, rn)])
                keep_rays.append(new)
                keep_inc.append(w | bit)
            others[io] = zo
        rays = keep_rays
        incidence = keep_inc
    return sorted(rays)


# ---------------------------------------------------------------------------
# Ridge-pivot wrapping (independent cross-oracle)


def _pullback_interior(a: tuple[int, ...], a0: Sequence[int], drop: int) -> tuple[int, ...]:
    """Interior dual point for the projected facet cone (coordinate `drop` removed).

    If a0 is strictly positive on a cone's generators, this vector is strictly
    positive on the projections (drop one coordinate where the facet normal a
    is nonzero) of the generators tight on a.
    """
    ak = a[drop]
    vec = [a0[i] * ak - a0[drop] * a[i] for i in range(len(a)) if i != drop]
    if ak < 0:
        vec = [-v for v in vec]
    return linalg.primitive(vec)


def _initial_facet(
    gens: Sequence[tuple[int, ...]],
    interior: tuple[int, ...],
) -> tuple[int, ...]:
    """Rotate a strictly valid functional until its tight set spans a hyperplane."""
    d = len(gens[0])
    a = tuple(interior)
    while True:
        tight = [g for g in gens if _dot(a, g) == 0]
        if linalg.rank(tight) == d - 1:
            return linalg.primitive(a)
        kernel = linalg.nullspace(tight, d)
        u = next(v for v in kernel if linalg.rank([v, a]) == 2)
        withneg = [g for g in gens if _dot(u, g) < 0]
        if not withneg:
            u = tuple(-v for v in u)
            withneg = [g for g in gens if _dot(u, g) < 0]
        # smallest rotation that picks up a new tight generator
        t_star = min(Fraction(_dot(a, g), -_dot(u, g)) for g in withneg)
        a = tuple(
            t_star.denominator * av + t_star.numerator * uv
            for av, uv in zip(a, u)
        )


def facet_normals_by_wrapping(
    generators: Sequence[Sequence[int]],
    interior_dual: Sequence[int],
) -> list[tuple[int, ...]]:
    """Facet normals of cone(generators) by breadth-first ridge pivoting.

    `interior_dual` must satisfy interior_dual . g > 0 for every generator.
    Each facet's ridges are the facets of its tight-generator cone, found by
    the same wrapping one dimension down (inside a coordinate chart of the
    face's span); pivoting across a ridge yields the neighbouring facet.
    Faces are memoized by their tight generator index set, so the total work
    is proportional to the face-lattice incidences rather than its flags.
    Shares no machinery with `dual_rays`, so the two enumerations check one
    another.
    """
    gens = [tuple(int(v) for v in g) for g in generators]
    d = len(gens[0])
    a0 = tuple(int(v) for v in interior_dual)
    if any(_dot(a0, g) <= 0 for g in gens):
        raise ValueError("interior_dual is not strictly positive on the generators")
    if linalg.rank(gens) < d:
        raise ValueError("generators do not span the space")

    memo: dict[frozenset[int], tuple[frozenset[int], ...]] = {}

    def wrap(face: frozenset[int]) -> tuple[frozenset[int], ...]:
        """Facets of cone(gens[face]), as tight index subsets of `face`."""
        cached = memo.get(face)
        if cached is not None:
            return cached
        indices = sorted(face)
        # chart: the lex-min independent subset of the columns of gens[face]
        cols = linalg.independent_prefix(list(zip(*(gens[i] for i in indices))), d)
        k = len(cols)
        proj = {i: tuple(gens[i][c] for c in cols) for i in indices}
        if k == 1:
            memo[face] = (frozenset(),)
            return memo[face]
        # interior functional in chart coordinates, agreeing with a0 on the span
        bas_idx = linalg.independent_prefix([proj[i] for i in indices], k)
        # c0 solves B c = rhs, for B the bas_idx rows and rhs their a0 values:
        # [B | -rhs] has one free column, the last, so its kernel vector is
        # (c, 1) times a positive scalar
        (sol,) = linalg.nullspace(
            [proj[indices[i]] + (-_dot(a0, gens[indices[i]]),) for i in bas_idx], k + 1
        )
        c0 = _reduce(sol[:k])
        face_gens = [proj[i] for i in indices]
        start = _initial_facet(face_gens, c0)
        normals = {_tight_of(indices, proj, start): start}
        queue = [start]
        while queue:
            a = queue.pop()
            tight = _tight_of(indices, proj, a)
            for ridge in wrap(tight):
                w = _ridge_direction(a, [proj[i] for i in sorted(ridge)],
                                     [proj[i] for i in sorted(tight - ridge)], k)
                neighbour = _pivot(face_gens, a, w)
                key = _tight_of(indices, proj, neighbour)
                if key not in normals:
                    normals[key] = neighbour
                    queue.append(neighbour)
        if face == top:
            top_normals.update(normals)
        result = tuple(sorted(normals, key=sorted))
        memo[face] = result
        return result

    top = frozenset(range(len(gens)))
    top_normals: dict[frozenset[int], tuple[int, ...]] = {}
    wrap(top)
    return sorted(top_normals.values())


def _tight_of(indices, proj, normal) -> frozenset[int]:
    return frozenset(i for i in indices if _dot(normal, proj[i]) == 0)


def _ridge_direction(a, ridge_gens, rest_gens, dim) -> tuple[int, ...]:
    """Rotation vector vanishing on the ridge and valid on the facet's tight set."""
    kernel = linalg.nullspace(ridge_gens, dim)
    w = next(v for v in kernel if linalg.rank([v, a]) == 2)
    for g in rest_gens:
        s = _dot(w, g)
        if s < 0:
            return tuple(-x for x in w)
        if s > 0:
            return tuple(w)
    raise AssertionError("ridge direction vanishes on the whole tight set")


def _pivot(
    gens: Sequence[tuple[int, ...]],
    a: tuple[int, ...],
    c: tuple[int, ...],
) -> tuple[int, ...]:
    """The other facet through the ridge {a = 0, c = 0} (c valid on a's tight set).

    Normals through the ridge are c + t*a; starting from the a-side (t large)
    the first generator hyperplane crossed as t decreases bounds the valid
    wedge, and t* may be negative when c itself is valid.
    """
    t_star: Optional[Fraction] = None
    for g in gens:
        ag = _dot(a, g)
        if ag > 0:
            t = Fraction(-_dot(c, g), ag)
            if t_star is None or t > t_star:
                t_star = t
    if t_star is None:
        raise ValueError("every generator is tight; cone is not full-dimensional")
    vec = [
        t_star.denominator * cv + t_star.numerator * av
        for cv, av in zip(c, a)
    ]
    return linalg.primitive(vec)


def facet_normals_by_hyperplane_search(
    generators: Sequence[Sequence[int]],
) -> list[tuple[int, ...]]:
    """Literal facet oracle: every valid hyperplane spanned by d-1 generators.

    Enumerates all (d-1)-subsets of the generators, keeps the ones spanning a
    hyperplane whose normal is valid for the whole generator set.  Exponential
    in the generator count; meant for small cross-checks only.
    """
    from itertools import combinations

    gens = [tuple(int(v) for v in g) for g in generators]
    d = len(gens[0])
    normals: dict[tuple[int, ...], None] = {}
    for subset in combinations(gens, d - 1):
        kernel = linalg.nullspace(subset, d)
        if len(kernel) != 1:
            continue
        normal = kernel[0]
        side = 0
        ok = True
        for g in gens:
            s = _dot(normal, g)
            if s > 0:
                if side < 0:
                    ok = False
                    break
                side = 1
            elif s < 0:
                if side > 0:
                    ok = False
                    break
                side = -1
        if ok and side != 0:
            if side < 0:
                normal = tuple(-v for v in normal)
            normals[normal] = None
    return sorted(normals)


def polyhedron_generators(
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
    budget: Optional[Budget] = None,
) -> tuple[list[tuple[Fraction, ...]], list[tuple[int, ...]]]:
    """Vertices and extreme rays of {x : rows . x >= rhs} via homogenization.

    The polyhedron must be pointed (the homogenized constraint matrix has
    full column rank); returns ([], rays) for an empty polyhedron and raises
    ValueError when rank fails.
    """
    hom = [linalg.primitive(tuple(row) + (-Fraction(b),)) for row, b in zip(rows, rhs)]
    n = len(hom[0]) - 1
    hom.append(tuple([0] * n + [1]))
    rays = dual_rays(hom, budget)
    vertices: list[tuple[Fraction, ...]] = []
    recession: list[tuple[int, ...]] = []
    for r in rays:
        w = r[-1]
        if w > 0:
            vertices.append(tuple(Fraction(v, w) for v in r[:-1]))
        elif w == 0:
            if any(v != 0 for v in r[:-1]):
                recession.append(r[:-1])
        else:  # pragma: no cover - dual rays satisfy the appended w >= 0 row
            raise AssertionError("homogenization produced w < 0")
    return vertices, recession
