"""The lifted reformulation's restrictions and their projected hull, as test oracles.

`blp.build_sc` lifts a mixing instance to a bilinear set over the simplex.
Fixing y = e_j (e_0 = 0) leaves the x-space restriction at j; the
x-projection of the disjunctive hull is the convex hull of the nonempty
restrictions plus their shared recession cone.  This module reads each
restriction off `BilinearSet.restrictions`, enumerates its generators by
homogenization (`polyhedron_generators`, on `dd.dual_rays`), and takes the
facets of their union (`projected_hull_facets`), so the tests can compare
the projection with the direct hull of the instance.  The projection runs
through `dd.dual_rays` too, so it checks the reformulation, not DD.

`sc_restriction_witness`, `point_satisfies_bilinear` and `point_in_xi` test
single points against the lifted set.  `parse_report` reads back the json
form of `bench.emit_report`.  None of this is used by the library.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from mixcut import dd, linalg
from mixcut.bench import CoverageReport
from mixcut.blp import BilinearSet, _x_block_cut
from mixcut.core import LinearCut, MixingInstance, ValidationError, canonicalize


def polyhedron_generators(
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
) -> tuple[list[tuple[Fraction, ...]], list[tuple[int, ...]]]:
    """Vertices and extreme rays of {x : rows . x >= rhs} via homogenization.

    The polyhedron must be pointed (the homogenized constraint matrix has
    full column rank); returns ([], rays) for an empty polyhedron.
    """
    hom = [linalg.primitive(tuple(row) + (-Fraction(b),)) for row, b in zip(rows, rhs)]
    n = len(hom[0]) - 1
    hom.append(tuple([0] * n + [1]))
    vertices: list[tuple[Fraction, ...]] = []
    recession: list[tuple[int, ...]] = []
    for r in dd.dual_rays(hom):
        w = r[-1]
        assert w >= 0, "homogenization produced w < 0"
        if w > 0:
            vertices.append(tuple(Fraction(v, w) for v in r[:-1]))
        elif any(r[:-1]):
            recession.append(r[:-1])
    return vertices, recession


# ---------------------------------------------------------------------------
# Points of the lifted set


def sc_restriction_witness(inst: MixingInstance, j: int):
    """Candidate feasible point (z, x, y) for the restriction y = e_j (e_0 = 0).

    These witnesses satisfy every bilinear constraint and the box bounds;
    the knapsack row additionally holds only when the fixed prefix mass fits
    under epsilon (always for j <= p + 1, never for j >= p + 2 unless the
    knapsack is vacuous).
    """
    m = inst.m
    if j == 0:
        return (Fraction(0), tuple(Fraction(1) for _ in range(m)), tuple(Fraction(0) for _ in range(m)))
    x = tuple(Fraction(0) if i == j else Fraction(1) for i in range(1, m + 1))
    y = tuple(Fraction(1) if i == j else Fraction(0) for i in range(1, m + 1))
    return (inst.h_at(j), x, y)


def point_satisfies_bilinear(S: BilinearSet, x: Sequence[Fraction], y: Sequence[Fraction]) -> bool:
    for con in S.constraints:
        total = con.d * -1
        total += sum(con.b[i] * x[i] for i in range(S.n))
        total += sum(con.c[j] * y[j] for j in range(S.m))
        for j in range(S.m):
            if y[j]:
                total += y[j] * sum(con.A[j][i] * x[i] for i in range(S.n))
        if total < 0:
            return False
    return True


def point_in_xi(S: BilinearSet, x: Sequence[Fraction]) -> bool:
    if any(v < 0 for v in x):
        return False
    return all(
        sum(row[i] * x[i] for i in range(S.n)) >= b
        for row, b in zip(S.e_rows, S.f)
    )


# ---------------------------------------------------------------------------
# Restrictions and their hull


def restriction_rows(S: BilinearSet, j: int) -> tuple[list[tuple[Fraction, ...]], list[Fraction]]:
    """H-representation of the x-space restriction at y = e_j (j = 0: y = 0).

    The rows of `S.restrictions[j]`, divided back by the set's denominator,
    then x >= 0.
    """
    T = S.denominator
    rows: list[tuple[Fraction, ...]] = []
    rhs: list[Fraction] = []
    for pairs, row_rhs in S.restrictions[j]:
        row = [Fraction(0)] * S.n
        for i, v in pairs:
            row[i] = Fraction(v, T)
        rows.append(tuple(row))
        rhs.append(Fraction(row_rhs, T))
    for i in range(S.n):
        rows.append(tuple(Fraction(int(k == i)) for k in range(S.n)))
        rhs.append(Fraction(0))
    return rows, rhs


def restriction_generators(
    S: BilinearSet, j: int
) -> tuple[list[tuple[Fraction, ...]], list[tuple[int, ...]]]:
    return polyhedron_generators(*restriction_rows(S, j))


@dataclass(frozen=True)
class AssumptionReport:
    nonempty: tuple[bool, ...]  # indexed by j = 0..m
    recession_shared: bool
    recession: tuple[tuple[int, ...], ...]


def check_restrictions(S: BilinearSet) -> AssumptionReport:
    """Which restrictions are nonempty, and do the nonempty ones share a cone."""
    nonempty = []
    cones: list[tuple[tuple[int, ...], ...]] = []
    for j in range(S.m + 1):
        vertices, rays = restriction_generators(S, j)
        nonempty.append(bool(vertices))
        if vertices:
            cones.append(tuple(sorted(rays)))
    shared = all(c == cones[0] for c in cones) if cones else False
    recession = cones[0] if cones else ()
    return AssumptionReport(tuple(nonempty), shared, recession)


def projected_hull_generators(
    S: BilinearSet,
) -> tuple[list[tuple[Fraction, ...]], list[tuple[int, ...]]]:
    """Generators of the x-projection of the disjunctive hull.

    The projection is the convex hull of the nonempty restrictions plus the
    shared recession cone, so collecting each restriction's generators gives
    an exact V-representation without eliminating the lifted variables.
    """
    points: list[tuple[Fraction, ...]] = []
    rays: list[tuple[int, ...]] = []
    for j in range(S.m + 1):
        vertices, recession = restriction_generators(S, j)
        points.extend(vertices)
        rays.extend(r for r in recession if r not in rays)
    if not points:
        raise ValidationError("every restriction is empty")
    return sorted(set(points)), rays


def projected_hull_facets(S: BilinearSet) -> list[LinearCut]:
    """Facets of the disjunctive projection, as cuts over the x-block."""
    points, rays = projected_hull_generators(S)
    gens = [linalg.primitive(p + (Fraction(1),)) for p in points]
    gens.extend(linalg.primitive(tuple(r) + (0,)) for r in rays)
    facets = []
    for a in dd.dual_rays(gens):
        body, a0 = a[:-1], a[-1]
        if any(body):
            cut = _x_block_cut(S.z_slot, body, -a0, 1)
            facets.append(canonicalize(cut))
    return sorted(facets, key=LinearCut.sort_key)


# ---------------------------------------------------------------------------
# Coverage reports


def parse_report(text: str) -> list[CoverageReport]:
    """Inverse of the json form of `bench.emit_report`."""
    return [
        CoverageReport(
            example=row["example"],
            m=int(row["m"]),
            p=int(row["p"]),
            facet_total=int(row["facet_total"]),
            vertical_count=int(row["vertical_count"]),
            covered=tuple((k, int(v)) for k, v in row["covered"].items()),
            trivial=bool(row["trivial"]),
            incomplete=bool(row.get("incomplete", False)),
        )
        for row in json.loads(text)
    ]
