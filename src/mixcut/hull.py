"""Exact facet enumeration for the convex hull of a mixing instance.

The hull is conv(minimal vertices) + cone{(1, 0)}.  Homogenizing lifts each
vertex to (z, x, 1) and the ray to (1, 0, 0); the facets are then the extreme
rays of the dual cone, which the double-description engine enumerates
exactly.  Float hulls mis-merge near-parallel facet normals, which would
corrupt the coverage counts, so everything here stays rational.  A facet
file is read back by one comparison: the document must be the writer's text
of the facet set that its own facets' primitive normals build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, compress
from typing import Iterable, Iterator, Optional

import json

from . import dd, linalg
from .core import (
    LinearCut,
    MixingInstance,
    ValidationError,
    Vertex,
    _cut_normal,
    _vertex_table,
    cut_from_dict,
    enumerate_vertices,
    json_array,
    json_object,
    packed_slacks,
    ratio_str,
)

BudgetExceeded = dd.BudgetExceeded


class InvalidCutError(ValidationError):
    """Facet test invoked on a cut that is not even valid."""


@dataclass(frozen=True)
class FacetSet:
    """Complete facet description of one instance's hull.

    Every facet is kept as double description gives it: a primitive integer
    normal (a_z, a_1, ..., a_m, a_0) of a_z z + a.x + a_0 >= 0.  ``normals``
    holds the nonvertical facets (a_z > 0) and ``vertical_normals`` the
    vertical ones (a_z = 0): facets of the hull of the binary knapsack
    points, which on general pi the box and the knapsack row alone need not
    imply.  A normal's canonical cut is the normal over its divisor
    (:func:`_divisor`), and each tuple is in canonical cut order.  The cuts
    are built on first read: ``nonvertical`` (z coefficient 1, the recession
    ray forces the sign), ``vertical`` (z coefficient 0, first nonzero x
    coefficient 1 or -1) and ``facets``, the nonvertical cuts then the
    vertical ones.  ``vertices`` is the instance's vertex list.
    """

    instance: MixingInstance
    normals: tuple[tuple[int, ...], ...]
    vertical_normals: tuple[tuple[int, ...], ...]

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        return enumerate_vertices(self.instance)

    @cached_property
    def nonvertical(self) -> tuple[LinearCut, ...]:
        return _cuts(self.normals)

    @cached_property
    def vertical(self) -> tuple[LinearCut, ...]:
        return _cuts(self.vertical_normals)

    @cached_property
    def facets(self) -> tuple[LinearCut, ...]:
        return self.nonvertical + self.vertical


def _divisor(a: tuple[int, ...]) -> int:
    """The positive scale that makes normal `a` canonical: a_z, or the
    absolute value of the first nonzero x entry of a vertical normal."""
    return a[0] or abs(next(filter(None, a[1:-1])))


def _cuts(normals: Iterable[tuple[int, ...]]) -> tuple[LinearCut, ...]:
    """The canonical cuts of `normals`: a_z, a and -a_0 over the divisor,
    each distinct (numerator, divisor) pair built as a Fraction once."""
    frac = lru_cache(maxsize=None)(Fraction)

    def cut(a: tuple[int, ...]) -> LinearCut:
        d = _divisor(a)
        return LinearCut(frac(a[0], d), tuple(frac(c, d) for c in a[1:-1]), frac(-a[-1], d))

    return tuple(map(cut, normals))


def lifted_generators(inst: MixingInstance) -> list[tuple[int, ...]]:
    """Homogenized primitive generators: the ray first, then vertices in lex order.

    A vertex with z = a/b (in lowest terms) lifts to (a, b x, b), which is
    already primitive because gcd(a, b) = 1.  The vertex table holds D z, so
    a and b are D z and D over their gcd.
    """
    table = _vertex_table(inst)
    gens: list[tuple[int, ...]] = [tuple([1] + [0] * (inst.m + 1))]
    for z, x in zip(table.zs, table.xs):
        g = math.gcd(z, table.D)
        b = table.D // g
        gens.append((z // g, *(b * c for c in x), b))
    return gens


def _first_zero(g: tuple[int, ...]) -> int:
    """Position of the first zero among a lifted vertex's x entries g[1:-1]
    (len(g) - 1 for the all-ones vertex)."""
    try:
        return g.index(0, 1, len(g) - 1)
    except ValueError:
        return len(g) - 1


def insertion_order(inst: MixingInstance) -> list[tuple[int, ...]]:
    """The generators of :func:`lifted_generators` in the order DD inserts them.

    The ray stays first.  The vertices keep their lex order block by block,
    a block being the run whose x has its first zero at the same position
    (so the same z), but each block is reversed: it opens with the tails that
    have the most leading ones, the maximal knapsack points of its z level.
    DD returns its rays sorted, so the order changes only its work: on
    general probabilities about half the candidate pairs of lex, on uniform
    ones about as many.  The blocks are reversed in place, in one pass
    with no sort key.
    """
    gens = lifted_generators(inst)
    start = 1
    for i in range(2, len(gens) + 1):
        if i == len(gens) or _first_zero(gens[i]) != _first_zero(gens[start]):
            gens[start:i] = gens[i - 1:start - 1:-1]
            start = i
    return gens


def enumerate_facets(inst: MixingInstance, budget: Optional[dd.Budget] = None) -> FacetSet:
    """The complete, irredundant, canonical facet list of the hull.

    Raises :class:`BudgetExceeded` when `budget` trips; a partial list is
    never returned.  The budget's steps count DD's candidate pairs in
    :func:`insertion_order`.
    """
    normals = dd.dual_rays(insertion_order(inst), budget)
    return _facetset_from_normals(inst, normals)


def _facetset_from_normals(inst: MixingInstance, normals) -> FacetSet:
    """The facet set of the primitive normals (a_z, a, a_0), a_z >= 0, of
    a_z z + a.x + a_0 >= 0.

    A normal's canonical cut is the normal over its divisor d, so
    `LinearCut.sort_key` orders the cuts of one kind as their x and rhs
    scaled by L, the lcm of the divisors: ints, c (L // d).  One sort on
    that key, behind a flag that puts the nonvertical normals first, gives
    both kinds in canonical cut order, and no cut is built here.
    """
    # z = 0 and x = 0 is a constant inequality, not a facet of a
    # full-dimensional hull
    normals = [a for a in normals if any(a[:-1])]
    L = math.lcm(*map(_divisor, normals))

    def key(a):
        k = L // _divisor(a)
        return (not a[0], *(c * k for c in a[1:-1]), -a[-1] * k)

    normals.sort(key=key)
    n = sum(1 for a in normals if a[0])
    return FacetSet(inst, tuple(normals[:n]), tuple(normals[n:]))


def is_facet(inst: MixingInstance, cut: LinearCut) -> bool:
    """Rank test: does the cut's tight set span an m-dimensional face?

    A constant inequality, with no z and no x term, is refused with
    :class:`ValidationError`.  One packed slack word
    (:func:`core.packed_slacks`, on the cut's primitive normal, the word
    that also decides :func:`core.cut_is_valid`) gives both the validity
    verdict, its fields' top bits, and the tight set: the vertices whose
    field holds a zero slack, one flag byte each, plus the recession ray
    when the z coefficient is zero.  None of these depends on the cut's
    positive scale.  The hull is full dimensional, so a facet needs
    affine rank m + 1: the differences of the tight points from the first
    one, with the ray, must have rank m.  The tight points are the ints
    ``(D z,) + x``, with D the common denominator of the vertex z values:
    scaling one coordinate by D > 0 keeps the affine rank.

    Those differences are checked mod 2 first (:func:`linalg.rank_mod2` on
    the vertices' parity masks, the ray's mask being 1).  Rank over GF(2)
    never exceeds rank over Q, and the cut has a z or an x term, so the
    tight differences and the ray lie in its hyperplane and have rank at
    most m over Q: a mod-2 rank of m proves a facet.  A shortfall, or an
    empty tight set, proves nothing, and :func:`linalg.affine_rank` decides
    exactly; it is the only path that answers False.
    """
    if not (cut.z_coef or any(cut.x_coefs)):
        raise ValidationError("the facet test needs a cut with a z or an x term")
    word, packing = packed_slacks(inst, cut)
    if cut.z_coef < 0 or not packing.nonnegative(word):
        raise InvalidCutError("facet test requires a valid cut")
    directions = []
    if cut.z_coef == 0:
        directions.append(tuple([1] + [0] * inst.m))
    table = _vertex_table(inst)
    flags = packing.zero_flags(word)
    masks = list(compress(table.masks, flags))
    if masks:
        base = masks[0]
        rows = [mask ^ base for mask in masks[1:]]
        if directions:
            rows.append(1)
        if linalg.rank_mod2(rows) == inst.m:
            return True
    tight_points = [(z, *x) for z, x in compress(zip(table.zs, table.xs), flags)]
    return linalg.affine_rank(tight_points, directions) == inst.m + 1


# ---------------------------------------------------------------------------
# Serialization


def _items(records: Iterable[str]) -> Iterator[str]:
    """The records as the items of a JSON array, each with its separator."""
    sep = ""
    for record in records:
        yield sep + record
        sep = ", "


def facetset_pieces(fs: FacetSet) -> Iterator[str]:
    """The text of :func:`facetset_to_json`, in pieces: one per vertex and per facet.

    Each vertex and each facet is rendered from its ints with no dict in
    between.  A vertex's z is D z over D, read from the instance's vertex
    table.  A facet's z, x and rhs are a_z, a and -a_0 over the normal's
    divisor.  Each is rendered by `core.ratio_str` (so z reads "1" or "0"),
    as `core.cut_to_dict` renders its canonical cut, with no Fraction built.
    These strings hold only digits, ``-`` and ``/``, which JSON never
    escapes.  A writer that takes the pieces as they come holds one record
    at a time, never the document.
    """
    text = lru_cache(maxsize=None)(ratio_str)
    table = _vertex_table(fs.instance)

    def vertex(z: int, x: bytes) -> str:
        return f'{{"z": "{text(z, table.D)}", "x": [{", ".join(map(str, x))}]}}'

    def facet(a: tuple[int, ...]) -> str:
        d = _divisor(a)
        x = '", "'.join([text(c, d) for c in a[1:-1]])
        return f'{{"z": "{text(a[0], d)}", "x": ["{x}"], "rhs": "{text(-a[-1], d)}"}}'

    yield '{"vertices": ['
    yield from _items(map(vertex, table.zs, table.xs))
    yield '], "facets": ['
    yield from _items(map(facet, chain(fs.normals, fs.vertical_normals)))
    yield f'], "vertical_count": {len(fs.vertical_normals)}}}'


def facetset_to_json(fs: FacetSet) -> str:
    """The vertices, the facets as `core.cut_to_dict` objects, and the vertical
    count, as one string: the pieces of :func:`facetset_pieces`, joined."""
    return "".join(facetset_pieces(fs))


def facetset_from_json(inst: MixingInstance, text: str) -> FacetSet:
    """Read :func:`facetset_to_json` output back as the facet set of `inst`.

    The facets are parsed as cuts (a cut whose number of x coefficients is
    not ``inst.m`` raises :class:`DimensionError`) and the facet set of their
    distinct primitive normals is built.  The parsed document must then be
    that set's :func:`facetset_to_json` text, or :class:`ValidationError` is
    raised.  That one comparison checks the vertex list, each cut's canonical
    form, the facet order, that no facet repeats or is constant, and
    ``vertical_count``, and it refuses bools and floats.
    """
    doc = "facet set"
    payload = json_object(json.loads(text), doc, ("vertices", "facets", "vertical_count"))
    cuts = map(cut_from_dict, json_array(payload["facets"], doc, "facets"))
    fs = _facetset_from_normals(inst, dict.fromkeys(_cut_normal(inst, c) for c in cuts))
    if json.dumps(payload) != facetset_to_json(fs):
        raise ValidationError(
            "the document is not the facet file of its own facets: the vertex list, "
            "a facet's canonical form, the facet order, a repeat or vertical_count differs"
        )
    return fs
