"""Independent facet enumerators and the mixing-form parser, used as test oracles.

`dd.dual_rays` is the package's one facet enumerator.  The two oracles here
share none of its machinery, so each checks it:

- `facet_normals_by_wrapping` pivots breadth-first across ridges, finding
  each facet's ridges by the same wrapping one dimension down;
- `facet_normals_by_hyperplane_search` tries every hyperplane through d - 1
  generators.  It is exponential in the generator count.

`facets_by_wrapping` and `facets_by_hyperplane_search` run them on an
instance's lifted generators and build the same `hull.FacetSet` as
`hull.enumerate_facets`.  The oracles keep their own elimination,
`_echelon`, a fraction-free reduced echelon form: `rank`, `nullspace` and
`independent_prefix` read it, and nothing in the package does.  The
package's one elimination (`linalg._sweep`, behind `linalg.rank` and DD's
seed) is a different algorithm, so a fault in either shows up as a
disagreement.  This module never imports `mixcut.dd`.

`parse_mixing_form` is the rational inverse of `core.mixing_form`; the
families decide membership on their own integer reading of a facet, its
primitive normal (`families._normal_form`).

`instances` is the hypothesis strategy of the instances these oracles and
the slack tests run on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul
from typing import Iterable, Optional, Sequence

from hypothesis import strategies as st

from mixcut import hull
from mixcut.bench import benchmark_instance
from mixcut.core import (
    DimensionError, LinearCut, MixingInstance, ValidationError, build_instance,
)
from mixcut.linalg import _reduce, primitive


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


@st.composite
def instances(draw):
    """A table cell, or general probabilities with rational h; m = 3..7."""
    m = draw(st.integers(3, 7))
    if draw(st.booleans()):
        return benchmark_instance(draw(st.sampled_from("LK")), m, draw(st.integers(1, m)))
    weights = draw(st.lists(st.integers(1, 6), min_size=m, max_size=m))
    total = sum(weights)
    h = draw(st.lists(st.builds(Fraction, st.integers(0, 60), st.integers(1, 4)),
                      min_size=m, max_size=m))
    return build_instance(
        m, sorted(h, reverse=True), [Fraction(w, total) for w in weights],
        Fraction(draw(st.integers(max(weights), total)), total),
    )


# ---------------------------------------------------------------------------
# Reference elimination: rank, independent rows and nullspaces


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


def rank(rows: Iterable[Sequence]) -> int:
    """Rank of a list of vectors of ints and Fractions."""
    return len(_echelon(rows)[0])


def independent_prefix(rows: Sequence[Sequence[int]], need: int) -> list[int]:
    """Indices of the first `need` linearly independent rows, in input order.

    Returns fewer indices if the rows do not reach the requested rank.
    """
    return _echelon(rows)[2][:need]


def nullspace(rows: Sequence[Sequence[Fraction]], dim: int) -> list[tuple[int, ...]]:
    """Primitive integer basis of {v : row . v = 0 for all rows} in R^dim.

    One vector per free (non-pivot) column, in increasing column order: it is
    positive at its own free column, zero at the others, and read off the
    reduced echelon basis at the pivot columns.
    """
    basis, pivots, _ = _echelon(rows)
    scale = lcm(*(b[c] for b, c in zip(basis, pivots)))
    taken = set(pivots)
    kernel = []
    for fc in range(dim):
        if fc in taken:
            continue
        vec = [0] * dim
        vec[fc] = scale
        for b, c in zip(basis, pivots):
            vec[c] = -b[fc] * (scale // b[c])
        kernel.append(_reduce(vec))
    return kernel


# ---------------------------------------------------------------------------
# Ridge-pivot wrapping


def _initial_facet(
    gens: Sequence[tuple[int, ...]],
    interior: tuple[int, ...],
) -> tuple[int, ...]:
    """Rotate a strictly valid functional until its tight set spans a hyperplane."""
    d = len(gens[0])
    a = tuple(interior)
    while True:
        tight = [g for g in gens if _dot(a, g) == 0]
        if rank(tight) == d - 1:
            return primitive(a)
        kernel = nullspace(tight, d)
        u = next(v for v in kernel if rank([v, a]) == 2)
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
    A ridge lies on exactly two facets, so each is crossed once, from the
    first of its facets taken off the queue.
    """
    gens = [tuple(int(v) for v in g) for g in generators]
    d = len(gens[0])
    a0 = tuple(int(v) for v in interior_dual)
    if any(_dot(a0, g) <= 0 for g in gens):
        raise ValueError("interior_dual is not strictly positive on the generators")
    if rank(gens) < d:
        raise ValueError("generators do not span the space")

    memo: dict[frozenset[int], tuple[frozenset[int], ...]] = {}

    def wrap(face: frozenset[int]) -> tuple[frozenset[int], ...]:
        """Facets of cone(gens[face]), as tight index subsets of `face`."""
        cached = memo.get(face)
        if cached is not None:
            return cached
        indices = sorted(face)
        # chart: the lex-min independent subset of the columns of gens[face]
        cols = independent_prefix(list(zip(*(gens[i] for i in indices))), d)
        k = len(cols)
        proj = {i: tuple(gens[i][c] for c in cols) for i in indices}
        if k == 1:
            memo[face] = (frozenset(),)
            return memo[face]
        # interior functional in chart coordinates, agreeing with a0 on the span
        bas_idx = independent_prefix([proj[i] for i in indices], k)
        # c0 solves B c = rhs, for B the bas_idx rows and rhs their a0 values:
        # [B | -rhs] has one free column, the last, so its kernel vector is
        # (c, 1) times a positive scalar
        (sol,) = nullspace(
            [proj[indices[i]] + (-_dot(a0, gens[indices[i]]),) for i in bas_idx], k + 1
        )
        c0 = _reduce(sol[:k])
        face_gens = [proj[i] for i in indices]
        start = _initial_facet(face_gens, c0)
        normals = {_tight_of(indices, proj, start): start}
        queue = [start]
        crossed: set[frozenset[int]] = set()
        while queue:
            a = queue.pop()
            tight = _tight_of(indices, proj, a)
            for ridge in wrap(tight):
                if ridge in crossed:
                    # crossed from its other facet, which led here
                    crossed.remove(ridge)
                    continue
                crossed.add(ridge)
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
    kernel = nullspace(ridge_gens, dim)
    w = next(v for v in kernel if rank([v, a]) == 2)
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
    return primitive(vec)


# ---------------------------------------------------------------------------
# Hyperplane search


def facet_normals_by_hyperplane_search(
    generators: Sequence[Sequence[int]],
) -> list[tuple[int, ...]]:
    """Literal facet oracle: every valid hyperplane spanned by d-1 generators.

    Enumerates all (d-1)-subsets of the generators, keeps the ones spanning a
    hyperplane whose normal is valid for the whole generator set.
    """
    gens = [tuple(int(v) for v in g) for g in generators]
    d = len(gens[0])
    normals: dict[tuple[int, ...], None] = {}
    for subset in combinations(gens, d - 1):
        kernel = nullspace(subset, d)
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


# ---------------------------------------------------------------------------
# Instance hulls


def facets_by_wrapping(inst: MixingInstance) -> hull.FacetSet:
    """The hull's facet list via ridge-pivot wrapping (no double description).

    (1, 0, ..., 0, 1) is strictly positive on every lifted generator, which
    seeds the wrapping.
    """
    gens = hull.lifted_generators(inst)
    interior = tuple([1] + [0] * inst.m + [1])
    normals = facet_normals_by_wrapping(gens, interior)
    return hull._facetset_from_normals(inst, normals)


def facets_by_hyperplane_search(inst: MixingInstance) -> hull.FacetSet:
    """The hull's facet list: all valid hyperplanes through m+1 independent generators."""
    gens = hull.lifted_generators(inst)
    normals = facet_normals_by_hyperplane_search(gens)
    return hull._facetset_from_normals(inst, normals)


# ---------------------------------------------------------------------------
# Mixing-form parser


@dataclass(frozen=True)
class ParsedMixingForm:
    """Decomposition of a canonical cut into mixing-form components.

    ``p_coefs`` maps indices with positive coefficient to that coefficient,
    ``q_phis`` maps indices with negative coefficient to its negation, and
    ``rhs_base`` restores the pre-expansion right hand side.  ``consistent``
    flags whether ``rhs_base`` equals ``h`` at the smallest positive index.
    """

    p_coefs: tuple[tuple[int, Fraction], ...]
    q_phis: tuple[tuple[int, Fraction], ...]
    rhs_base: Fraction
    consistent: bool

    @property
    def t_list(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.p_coefs)

    @property
    def q_list(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.q_phis)

    @property
    def coefs(self) -> tuple[Fraction, ...]:
        return tuple(c for _, c in self.p_coefs)

    @property
    def phis(self) -> tuple[Fraction, ...]:
        return tuple(c for _, c in self.q_phis)


def parse_mixing_form(inst: MixingInstance, cut: LinearCut) -> ParsedMixingForm:
    """Inverse of :func:`core.mixing_form` for canonical cuts with z_coef = 1."""
    if cut.m != inst.m:
        raise DimensionError(f"cut has {cut.m} x coefficients, instance has m={inst.m}")
    if cut.z_coef != 1:
        raise ValidationError("mixing-form parsing requires a canonical cut with z_coef = 1")
    p_coefs = tuple(
        (i + 1, c) for i, c in enumerate(cut.x_coefs) if c > 0
    )
    q_phis = tuple(
        (i + 1, -c) for i, c in enumerate(cut.x_coefs) if c < 0
    )
    rhs_base = cut.rhs + sum((phi for _, phi in q_phis), Fraction(0))
    consistent = (not p_coefs) or rhs_base == inst.h_at(p_coefs[0][0])
    return ParsedMixingForm(p_coefs, q_phis, rhs_base, consistent)
