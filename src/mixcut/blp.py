"""Generic bilinear aggregation engine over a simplex, and the mixing reformulation.

A `BilinearSet` holds constraints of the form ``y^T A x + b.x + c.y >= d``
over ``x`` in a polyhedron and ``y`` in the integral simplex.  Aggregating
weighted constraints, normalizing the y-products, and applying the
substitution rules yields linear cuts in the x variables; a sparse point of
the projection cone (`ConeDual`) certifies each of them.  `aggregate`,
`assemble_dual` and `cone_membership` share one weighted row sum over the
set's restriction table.  The round trip runs on one number format: the
table, the aggregated expression, the substitution result and the dual each
hold ints over one denominator, and the only Fractions are those of the cut
that `SubstitutionResult.mixing_cut` and `cone_membership` return.
`build_sc` produces the lifted reformulation of a mixing instance whose
aggregation cuts are valid for the instance's hull.  Whether such a cut is a
facet is decided by `hull.is_facet`, not here.  The exact x-projection of
the restrictions' hull, which cross-checks the reformulation, lives with the
tests, in `tests/projection_reference.py`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Collection, Iterable, Mapping, NamedTuple, Optional, Sequence

from .core import (
    LinearCut,
    MixingInstance,
    RationalLike,
    ValidationError,
    as_index,
    json_array,
    json_int,
    json_malformed,
    json_object,
    json_rats,
    rat,
    rat_str,
)


@dataclass(frozen=True)
class BilinearConstraint:
    """One constraint y^T A x + b.x + c.y >= d (A is m rows by n columns)."""

    A: tuple[tuple[Fraction, ...], ...]
    b: tuple[Fraction, ...]
    c: tuple[Fraction, ...]
    d: Fraction
    label: str = ""


#: A row read at one vertex of the simplex, as ``pairs . x >= rhs`` times the
#: set's denominator T: its nonzero (x index, T * coefficient) pairs and T * rhs,
#: all ints.
Restriction = tuple[tuple[tuple[int, int], ...], int]

#: The zero every Fraction output shares.
_ZERO = Fraction(0)


def _nonzero(coefs: Iterable[int]) -> tuple[tuple[int, int], ...]:
    return tuple((i, v) for i, v in enumerate(coefs) if v)


class RelationRows(NamedTuple):
    """The table row behind each substitution relation, in sorted relation order."""

    upper: dict[int, int]  # x_i <= 1
    compl: dict[tuple[int, int], int]  # x_i y_j = 0
    compl_complement: dict[tuple[int, int], int]  # (1 - x_i) y_j = 0


@dataclass(frozen=True)
class BilinearSet:
    n: int
    m: int
    constraints: tuple[BilinearConstraint, ...]
    e_rows: tuple[tuple[Fraction, ...], ...]
    f: tuple[Fraction, ...]
    upper_bounded: frozenset[int]
    compl_pairs: frozenset[tuple[int, int]]
    compl_complement_pairs: frozenset[tuple[int, int]]
    z_slot: Optional[int] = None

    @property
    def kappa(self) -> int:
        return len(self.constraints)

    @property
    def tau(self) -> int:
        return len(self.e_rows)

    @cached_property
    def denominator(self) -> int:
        """T: the lcm of every denominator in A, b, c, d, E and f."""
        entries = chain(
            chain.from_iterable(chain(chain.from_iterable(con.A), con.b, con.c, (con.d,))
                                for con in self.constraints),
            chain.from_iterable(self.e_rows),
            self.f,
        )
        return math.lcm(*{v.denominator for v in entries})

    @cached_property
    def restrictions(self) -> tuple[tuple[Restriction, ...], ...]:
        """``restrictions[j][k]``: row k read at y = e_j (e_0 = 0), times T.

        Rows 0..kappa-1 are the constraints: constraint k reads ``b . x >= d``
        at j = 0 and ``(A_j + b) . x >= d - c_j`` at j >= 1.  Row kappa + t is
        the polyhedron row ``E_t x >= f_t``, a constraint with zero A and zero
        c, so it reads the same at every j.  Every entry is stored as an int,
        the rational times :attr:`denominator`, so that weighted sums of rows
        add Python ints.  Every caller that weights, lifts or matches a row
        reads it here.
        """
        T = self.denominator

        def scaled(v) -> int:
            return v.numerator * (T // v.denominator)

        polyhedron = tuple((_nonzero(map(scaled, row)), scaled(rhs))
                           for row, rhs in zip(self.e_rows, self.f))
        bs = [[scaled(v) for v in con.b] for con in self.constraints]
        table = [tuple((_nonzero(b), scaled(con.d)) for con, b in zip(self.constraints, bs))
                 + polyhedron]
        for j in range(self.m):
            table.append(tuple(
                (_nonzero(scaled(a) + v for a, v in zip(con.A[j], b)),
                 scaled(con.d) - scaled(con.c[j]))
                for con, b in zip(self.constraints, bs)
            ) + polyhedron)
        return tuple(table)

    @cached_property
    def relation_rows(self) -> RelationRows:
        """The first table row whose column, read at j = 0..m, backs each relation.

        ``x_i <= 1`` needs ``-x_i >= -1`` at every j; ``x_i y_j = 0`` needs
        ``-x_i >= 0`` at y = e_j, and ``(1 - x_i) y_j = 0`` needs ``x_i >= 1``
        there, each with ``0 >= 0`` at every other j; the table holds each
        pattern times T.  Constraints and polyhedron rows are searched alike,
        in table order.  A relation with no row behind it is a
        :class:`ValidationError`: the substitution would use a relation the
        set does not imply.
        """
        first: dict[tuple[Restriction, ...], int] = {}
        for k, column in enumerate(zip(*self.restrictions)):
            first.setdefault(column, k)

        T = self.denominator

        def row(i: int, j: Optional[int], coef: int, rhs: int) -> Optional[int]:
            """The row reading coef x_i >= rhs at y = e_j (j None: at every j), 0 >= 0 elsewhere."""
            return first.get(tuple(
                (((i, coef * T),), rhs * T) if j in (None, jj) else ((), 0)
                for jj in range(self.m + 1)
            ))

        upper = {}
        for i in sorted(self.upper_bounded):
            upper[i] = row(i, None, -1, -1)
            if upper[i] is None:
                raise ValidationError(f"upper_bounded x_{i} has no row -x_{i} >= -1 in E, f")

        def pairs(relation: frozenset[tuple[int, int]], key: str, coef: int, rhs: int):
            out = {}
            for i, j in sorted(relation):
                out[i, j] = row(i, j, coef, rhs)
                if out[i, j] is None:
                    raise ValidationError(f"{key} entry ({i}, {j}) has no constraint behind it")
            return out

        return RelationRows(
            upper,
            pairs(self.compl_pairs, "compl_pairs", -1, 0),
            pairs(self.compl_complement_pairs, "compl_complement_pairs", 1, 1),
        )


@dataclass(frozen=True)
class BilinearExpr:
    """Aggregated inequality with y-squares folded and y-crosses dropped.

    Represents ``sum quad[j][i] x_i y_{j+1} + lin_x . x + lin_y . y >= rhs``,
    held as ints over one positive ``denominator``: ``quad_num``,
    ``lin_x_num``, ``lin_y_num`` and ``rhs_num``.  The ints and the
    denominator share no common factor, so the denominator is the lcm of the
    coefficients' denominators and equal expressions compare equal.
    ``t_sets_disjoint`` is true unless some polyhedron row is weighted at
    every scenario 0..m; it says nothing about whether the cut is a facet.
    """

    denominator: int
    quad_num: tuple[tuple[int, ...], ...]
    lin_x_num: tuple[int, ...]
    lin_y_num: tuple[int, ...]
    rhs_num: int
    t_sets_disjoint: bool


@dataclass(frozen=True)
class BlpAssignment:
    """Aggregation selection: a base constraint plus weighted constraint sets.

    ``base_j`` = 0 weights the base with the simplex complement 1 - sum(y);
    1..m weights it with y_j.  ``k_weights`` and ``t_weights`` are sparse
    ((j, index, weight) with weight > 0); the base pair may not reappear in
    ``k_weights``.
    """

    base_k: int
    base_j: int
    k_weights: tuple[tuple[int, int, Fraction], ...] = ()
    t_weights: tuple[tuple[int, int, Fraction], ...] = ()

    @staticmethod
    def build(
        base_k: int,
        base_j: int,
        k_weights: Iterable[tuple[int, int, RationalLike]] = (),
        t_weights: Iterable[tuple[int, int, RationalLike]] = (),
    ) -> "BlpAssignment":
        def nonzero(weights, what: str) -> tuple[tuple[int, int, Fraction], ...]:
            read = ((as_index(j, f"{what} scenario"), as_index(i, f"{what} index"), rat(w))
                    for j, i, w in weights)
            return tuple(row for row in read if row[2])

        return BlpAssignment(as_index(base_k, "base constraint index"),
                             as_index(base_j, "base weight index"),
                             nonzero(k_weights, "k_weights"), nonzero(t_weights, "t_weights"))


@dataclass(frozen=True)
class SubstitutionResult:
    """The linear cut ``coefs . x >= rhs`` a substitution leaves, and its moves.

    Held as ints over the expression's ``denominator``: ``coefs_num``,
    ``rhs_num`` and ``moves_num``, each move (j, table row, weight).
    """

    denominator: int
    coefs_num: tuple[int, ...]
    rhs_num: int
    moves_num: tuple[tuple[int, int, int], ...]
    t_sets_disjoint: bool
    z_slot: Optional[int]

    def mixing_cut(self) -> LinearCut:
        """Interpret the x-block as (z, x) and emit a mixing-set cut."""
        if self.z_slot is None:
            raise ValidationError("this bilinear set has no designated z slot")
        return _x_block_cut(self.z_slot, self.coefs_num, self.rhs_num, self.denominator)


def _x_block_cut(
    z_slot: Optional[int], coefs: Sequence[int], rhs: int, denominator: int
) -> LinearCut:
    """The cut ``coefs . x >= rhs``, each int over `denominator`, with z read
    from slot `z_slot` (zero if None): the engine's only Fractions."""
    x = tuple(Fraction(v, denominator) for v in coefs)
    if z_slot is None:
        return LinearCut(_ZERO, x, Fraction(rhs, denominator))
    return LinearCut(x[z_slot], x[:z_slot] + x[z_slot + 1:], Fraction(rhs, denominator))


def _validate_assignment(S: BilinearSet, a: BlpAssignment) -> None:
    as_index(a.base_k, "base constraint index", S.kappa)
    as_index(a.base_j, "base weight index", S.m + 1)
    for weights, what, size in ((a.k_weights, "constraint", S.kappa),
                                (a.t_weights, "polyhedron", S.tau)):
        for j, k, w in weights:
            as_index(j, f"{what} weight scenario", S.m + 1)
            as_index(k, f"{what} weight index", size)
            if w < 0:
                raise ValidationError("aggregation weights must be non-negative")
    if any((k, j) == (a.base_k, a.base_j) for j, k, _ in a.k_weights):
        raise ValidationError("the base pair may not be reweighted")


def _weighted_sum(
    S: BilinearSet, weighted: Iterable[tuple[int, int, int]]
) -> tuple[list[list[int]], list[int], list[int], int]:
    """(quad, lin_x, lin_y, rhs) of the weighted rows, y-normalized.

    Each (j, k, w) adds row k as read at y = e_j in
    :attr:`BilinearSet.restrictions`, times the int w.  Weighting by y_j puts
    the reading into the j-th bilinear row (squares fold to y_j, crosses
    vanish); weighting by the simplex complement (j = 0) keeps the linear part
    and mirrors it negatively into every bilinear row.  Callers scale their
    rational weights by one lcm L, so every sum is a Python int, the rational
    sum times L * T.
    """
    m, n = S.m, S.n
    quad = [[0] * n for _ in range(m)]
    lin_x = [0] * n
    lin_y = [0] * m
    rhs = 0
    for j, k, w in weighted:
        pairs, row_rhs = S.restrictions[j][k]
        if j == 0:
            for i, v in pairs:
                wv = w * v
                lin_x[i] += wv
                for jj in range(m):
                    quad[jj][i] -= wv
            if row_rhs:
                wr = w * row_rhs
                for jj in range(m):
                    lin_y[jj] += wr
                rhs += wr
        else:
            for i, v in pairs:
                quad[j - 1][i] += w * v
            lin_y[j - 1] -= w * row_rhs
    return quad, lin_x, lin_y, rhs


def _assignment_rows(
    S: BilinearSet, a: BlpAssignment, *denominators: int
) -> tuple[int, list[tuple[int, int, int]]]:
    """(L, the assignment's weighted rows (j, table row, weight times L)), validated.

    L is the lcm of the weights' denominators and of `denominators`.  The
    base pair carries weight 1; polyhedron row t is table row kappa + t.
    """
    _validate_assignment(S, a)
    weighted = [*a.k_weights, *((j, S.kappa + t, w) for j, t, w in a.t_weights)]
    L = math.lcm(*denominators, *(w.denominator for _, _, w in weighted))
    return L, [(a.base_j, a.base_k, L),
               *((j, k, w.numerator * (L // w.denominator)) for j, k, w in weighted)]


def aggregate(S: BilinearSet, a: BlpAssignment) -> BilinearExpr:
    """Weighted sum of the selected constraints with y-normalization applied.

    The sum is taken on ints times L * T (L the lcm of the weights'
    denominators) and divided by the gcd of those ints and L * T.
    """
    L, weighted = _assignment_rows(S, a)
    quad, lin_x, lin_y, rhs = _weighted_sum(S, weighted)
    denominator = L * S.denominator
    g = math.gcd(denominator, rhs, *lin_x, *lin_y, *chain.from_iterable(quad))
    if g > 1:
        denominator //= g
        quad = [[v // g for v in row] for row in quad]
        lin_x, lin_y, rhs = [v // g for v in lin_x], [v // g for v in lin_y], rhs // g

    t_sets: dict[int, set[int]] = {}
    for j, t, _ in a.t_weights:
        t_sets.setdefault(j, set()).add(t)
    # the t sets can only share an index when every scenario 0..m has one
    disjoint = len(t_sets) <= S.m or not set.intersection(*t_sets.values())

    return BilinearExpr(
        denominator=denominator,
        quad_num=tuple(map(tuple, quad)),
        lin_x_num=tuple(lin_x),
        lin_y_num=tuple(lin_y),
        rhs_num=rhs,
        t_sets_disjoint=disjoint,
    )


def substitute(S: BilinearSet, expr: BilinearExpr) -> SubstitutionResult:
    """Reduce an aggregated inequality to a linear cut in the x variables.

    Order: bound substitutions for upper-bounded variables, then the two
    complementarity eliminations, then the positive-coefficient collapse of
    the remaining bilinear terms, then of the remaining y terms.  Every
    eligible coefficient is moved, mirroring the closed-form derivations.
    Each move is one more weighted row of the set, recorded in ``moves`` as
    (j, table row, weight) with the row from :attr:`BilinearSet.relation_rows`
    (so an unbacked relation raises :class:`ValidationError`).

    Every move and the column maxima run on the expression's ints, and the
    result keeps them over the expression's denominator.
    """
    m = S.m
    backing = S.relation_rows
    quad = list(map(list, expr.quad_num))
    lin_y = list(expr.lin_y_num)
    lin_x = list(expr.lin_x_num)
    moves: list[tuple[int, int, int]] = []

    # x_i <= 1 moves a positive x_i y_j coefficient u onto y_j: row k at j, weight u
    for i, k in backing.upper.items():
        for j in range(1, m + 1):
            u = quad[j - 1][i]
            if u > 0:
                quad[j - 1][i] = 0
                lin_y[j - 1] += u
                moves.append((j, k, u))

    # x_i y_j = 0 drops the coefficient u: row k at j, weight u when u > 0 (the
    # completion absorbs a negative u)
    for (i, j), k in backing.compl.items():
        u = quad[j - 1][i]
        if u != 0:
            quad[j - 1][i] = 0
            if u > 0:
                moves.append((j, k, u))

    # (1 - x_i) y_j = 0 moves a negative x_i y_j coefficient u onto y_j: row k
    # at j, weight -u
    for (i, j), k in backing.compl_complement.items():
        u = quad[j - 1][i]
        if u < 0:
            quad[j - 1][i] = 0
            lin_y[j - 1] += u
            moves.append((j, k, -u))

    # the positive part of each column's maximum collapses onto x_i, and that
    # of the y terms onto the rhs
    for i, column in enumerate(zip(*quad)):
        lin_x[i] += max(0, *column)

    return SubstitutionResult(
        denominator=expr.denominator,
        coefs_num=tuple(lin_x),
        rhs_num=expr.rhs_num - max(0, *lin_y),
        moves_num=tuple(moves),
        t_sets_disjoint=expr.t_sets_disjoint,
        z_slot=S.z_slot,
    )


# ---------------------------------------------------------------------------
# The mixing reformulation


def build_sc(inst: MixingInstance) -> BilinearSet:
    """Lift a mixing instance to its bilinear reformulation on the simplex.

    x-block layout: slot 0 is z, slots 1..m are the binary indicators.  Five
    constraint groups (complement link both ways, the conditional bound on z,
    self-complementarity, and the prefix complement chain), then the box and
    knapsack rows of the deterministic polyhedron.  Each constraint is
    addressed by its label (``complement+:i``, ``complement-:i``,
    ``zbound:i``, ``self:i``, ``prefix:i<j``), which the JSON carries.  The relations are
    declared, not indexed: :attr:`BilinearSet.relation_rows` finds the box row
    behind each x_i <= 1, the self row behind each x_i y_i = 0 and the prefix
    row behind each (1 - x_i) y_j = 0 (i < j).
    """
    m = inst.m
    n = m + 1
    zero_row = (_ZERO,) * n

    def unit(i: int, value: RationalLike = 1) -> tuple[Fraction, ...]:
        return tuple(rat(value) if k == i else _ZERO for k in range(n))

    constraints: list[BilinearConstraint] = []
    # (1 - x_i)(1 - sum y) >= 0
    for i in range(1, m + 1):
        A = tuple(unit(i) for _ in range(m))
        constraints.append(
            BilinearConstraint(A, unit(i, -1), tuple(Fraction(-1) for _ in range(m)),
                               Fraction(-1), label=f"complement+:{i}")
        )
    # -(1 - x_i)(1 - sum y) >= 0
    for i in range(1, m + 1):
        A = tuple(unit(i, -1) for _ in range(m))
        constraints.append(
            BilinearConstraint(A, unit(i), tuple(Fraction(1) for _ in range(m)),
                               Fraction(1), label=f"complement-:{i}")
        )
    # z y_i - h_i y_i >= 0
    for i in range(1, m + 1):
        A = tuple(unit(0) if j == i - 1 else zero_row for j in range(m))
        c = tuple((-inst.h_at(i) or _ZERO) if j == i - 1 else _ZERO for j in range(m))
        constraints.append(
            BilinearConstraint(A, zero_row, c, _ZERO, label=f"zbound:{i}")
        )
    # -x_i y_i >= 0
    for i in range(1, m + 1):
        A = tuple(unit(i, -1) if j == i - 1 else zero_row for j in range(m))
        constraints.append(
            BilinearConstraint(A, zero_row, (_ZERO,) * m, _ZERO, label=f"self:{i}")
        )
    # -(1 - x_i) y_j >= 0 for i < j
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            A = tuple(unit(i) if jj == j - 1 else zero_row for jj in range(m))
            c = tuple(Fraction(-1) if jj == j - 1 else _ZERO for jj in range(m))
            constraints.append(
                BilinearConstraint(A, zero_row, c, _ZERO, label=f"prefix:{i}<{j}")
            )

    e_rows = [unit(i, -1) for i in range(1, m + 1)]
    f = [Fraction(-1)] * m
    e_rows.append(tuple([_ZERO] + [-q for q in inst.pi]))
    f.append(-inst.epsilon)

    return BilinearSet(
        n=n,
        m=m,
        constraints=tuple(constraints),
        e_rows=tuple(e_rows),
        f=tuple(f),
        upper_bounded=frozenset(range(1, m + 1)),
        compl_pairs=frozenset((i, i) for i in range(1, m + 1)),
        compl_complement_pairs=frozenset(
            (i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)
        ),
        z_slot=0,
    )


# ---------------------------------------------------------------------------
# Projection-cone certificates


class ConeDual(NamedTuple):
    """A point of the projection cone, sparse: every absent key is zero.

    ``rows[j, k]`` weights row k of :attr:`BilinearSet.restrictions` at y =
    e_j (polyhedron row t is k = kappa + t); ``gamma[j, i]`` and ``theta[j]``
    are scenario j's slacks on x_i and on the right-hand side.  Every value
    is a plain int, read as value / ``denominator``, a positive int (1 when
    left out).
    """

    rows: Mapping[tuple[int, int], int]
    gamma: Mapping[tuple[int, int], int]
    theta: Mapping[int, int]
    denominator: int = 1


def assemble_dual(S: BilinearSet, a: BlpAssignment, result: SubstitutionResult) -> ConeDual:
    """The point of the projection cone that certifies a substitution's cut.

    Its rows are the assignment's weighted rows plus the substitution's
    moves, summed by (j, table row); gamma and theta are the canonical
    completion (columnwise positive part of the residual bilinear matrix,
    and its per-scenario slack), read from the weighted sum of those same
    rows, so a move onto the base pair counts in both.  The weights are
    scaled to ints over M, the lcm of the assignment's weight denominators
    and the result's denominator, so the row sum is over M * T; the dual
    holds only its nonzero entries, all ints over ``denominator`` M * T.
    """
    M, weighted = _assignment_rows(S, a, result.denominator)
    weighted.extend((j, k, w * (M // result.denominator)) for j, k, w in result.moves_num)
    quad, _, lin_y, _ = _weighted_sum(S, weighted)
    gamma0 = [max(0, *column) for column in zip(*quad)]
    theta0 = max(0, *lin_y)
    T = S.denominator
    rows: dict[tuple[int, int], int] = {}
    for j, k, w in weighted:
        rows[j, k] = rows.get((j, k), 0) + w * T
    # scenario 0 reads as a zero quad row and a zero lin_y entry
    return ConeDual(
        rows,
        {(j, i): g - v for j, row in enumerate([[0] * S.n, *quad])
         for i, (g, v) in enumerate(zip(gamma0, row)) if g != v},
        {j: theta0 - v for j, v in enumerate([0, *lin_y]) if v != theta0},
        M * T,
    )


def _keys_fit(keys: Collection, sizes: Sequence[int]) -> bool:
    """Is every key a tuple of len(sizes) plain ints (one plain int for one
    size), each within 0..size - 1?

    Each check reads all the keys at once.  False proves nothing: an int
    subclass fits too, and the caller then checks key by key.
    """
    if not keys:
        return True
    if len(sizes) == 1:
        columns = (keys,)
    elif {*map(type, keys)} == {tuple} and {*map(len, keys)} == {len(sizes)}:
        columns = tuple(zip(*keys))
    else:
        return False
    return all({*map(type, column)} == {int} and 0 <= min(column) and max(column) < size
               for column, size in zip(columns, sizes))


def cone_membership(S: BilinearSet, dual: ConeDual) -> tuple[bool, Optional[LinearCut]]:
    """Is the sparse dual in the projection cone; if so, its projected cut.

    A key that indexes nothing (j outside 0..m, a table row, or an x index,
    out of range), a value that is not a plain int or a ``denominator`` that
    is not a positive int raises :class:`ValidationError`, which names the
    map and the key; a negative value is outside the cone.  Each map's keys
    are checked at once (:func:`_keys_fit`); only a map that fails that
    check is read key by key, which accepts int subclasses and names a key
    it refuses.  The rows are summed once by :func:`_weighted_sum`, on ints
    times ``denominator`` * T.
    The dual is in the cone iff ``gamma_j = gamma_0 - quad[j - 1]`` and
    ``theta_j = theta_0 - lin_y[j - 1]`` for every j >= 1; its cut is
    ``(gamma_0 + lin_x) . x >= rhs - theta_0``.
    """
    n, m = S.n, S.m
    D = dual.denominator
    if isinstance(D, bool) or not isinstance(D, int) or D < 1:
        raise ValidationError(f"dual denominator must be a positive int, got {D!r}")
    for entries, what, *sizes in ((dual.rows, "rows", m + 1, S.kappa + S.tau),
                                  (dual.gamma, "gamma", m + 1, n), (dual.theta, "theta", m + 1)):
        # each key is (j, index), or j alone for one size
        if not _keys_fit(entries.keys(), sizes):
            for key in entries:
                index = key if len(sizes) > 1 else (key,)
                if not isinstance(index, tuple) or len(index) != len(sizes):
                    raise ValidationError(f"{what} key {key!r} must be {len(sizes)} indices")
                for i, size in zip(index, sizes):
                    as_index(i, f"{what} key {key!r}: index", size)
        if not {*map(type, entries.values())} <= {int}:
            key, v = next((key, v) for key, v in entries.items() if type(v) is not int)
            raise ValidationError(f"{what} value at key {key!r} must be an int, got {v!r}")
    rows, gamma, theta = dual[:3]
    if min(chain(rows.values(), gamma.values(), theta.values()), default=0) < 0:
        return False, None
    T = S.denominator
    quad, lin_x, lin_y, rhs = _weighted_sum(S, ((j, k, w) for (j, k), w in rows.items()))
    slack = [[0] * n for _ in range(m + 1)]
    for (j, i), v in gamma.items():
        slack[j][i] = v * T
    gamma0, theta0 = slack[0], theta.get(0, 0) * T
    if any(theta.get(j, 0) * T != theta0 - v for j, v in enumerate(lin_y, 1)) or any(
            slack[j] != [g - v for g, v in zip(gamma0, row)] for j, row in enumerate(quad, 1)):
        return False, None
    return True, _x_block_cut(S.z_slot, [g + v for g, v in zip(gamma0, lin_x)],
                              rhs - theta0, D * T)


# ---------------------------------------------------------------------------
# Serialization


def bilinear_set_to_json(S: BilinearSet) -> str:
    payload = {
        "n": S.n,
        "m": S.m,
        "constraints": [
            {
                "A": [[rat_str(v) for v in row] for row in con.A],
                "b": [rat_str(v) for v in con.b],
                "c": [rat_str(v) for v in con.c],
                "d": rat_str(con.d),
                "label": con.label,
            }
            for con in S.constraints
        ],
        "E": [[rat_str(v) for v in row] for row in S.e_rows],
        "f": [rat_str(v) for v in S.f],
        "upper_bounded": sorted(S.upper_bounded),
        "compl_pairs": sorted(map(list, S.compl_pairs)),
        "compl_complement_pairs": sorted(map(list, S.compl_complement_pairs)),
        "z_slot": S.z_slot,
    }
    return json.dumps(payload)


#: The document name in the messages of malformed bilinear sets and assignments.
_DOC = "bilinear"


def bilinear_set_from_json(text: str) -> BilinearSet:
    """Parse :func:`bilinear_set_to_json` output.

    ``n`` and ``m`` must be JSON integers, ``m`` at least 1 as in an
    instance, every vector and matrix an array of the right length, and
    every index in range; any other malformation raises
    :class:`ValidationError`, and so does an upper bound or a
    complementarity pair with no row behind it
    (:attr:`BilinearSet.relation_rows`).
    """
    payload = json_object(json.loads(text), _DOC, ("n", "m", "constraints", "E", "f"))
    n = json_int(payload["n"], _DOC, "n")
    m = json_int(payload["m"], _DOC, "m", 1)
    constraints = []
    for k, con in enumerate(json_array(payload["constraints"], _DOC, "constraints")):
        if not isinstance(con, dict) or any(key not in con for key in "Abcd"):
            raise json_malformed(_DOC, f"constraint {k} must be an object with A, b, c and d", con)
        label = con.get("label", "")
        if not isinstance(label, str):
            raise json_malformed(_DOC, f"constraint {k} label must be a string", label)
        constraints.append(
            BilinearConstraint(
                A=tuple(json_rats(row, _DOC, f"constraint {k} A row", n)
                        for row in json_array(con["A"], _DOC, f"constraint {k} A", m)),
                b=json_rats(con["b"], _DOC, f"constraint {k} b", n),
                c=json_rats(con["c"], _DOC, f"constraint {k} c", m),
                d=rat(con["d"]),
                label=label,
            )
        )
    e_rows = tuple(json_rats(row, _DOC, "E row", n) for row in json_array(payload["E"], _DOC, "E"))
    f = json_rats(payload["f"], _DOC, "f", len(e_rows))

    def pairs(key: str) -> frozenset[tuple[int, int]]:
        """(x index, scenario) pairs: 0 <= i < n and 1 <= j <= m."""
        out = set()
        for pair in json_array(payload.get(key, []), _DOC, key):
            i, j = json_array(pair, _DOC, f"{key} entry", 2)
            out.add((json_int(i, _DOC, f"{key} x index", 0, n),
                     json_int(j, _DOC, f"{key} scenario", 1, m + 1)))
        return frozenset(out)

    compl = pairs("compl_pairs")
    complc = pairs("compl_complement_pairs")
    upper = frozenset(
        json_int(i, _DOC, "upper_bounded entry", 0, n)
        for i in json_array(payload.get("upper_bounded", []), _DOC, "upper_bounded")
    )
    z_slot = payload.get("z_slot")
    if z_slot is not None:
        z_slot = json_int(z_slot, _DOC, "z_slot", 0, n)
    S = BilinearSet(
        n=n,
        m=m,
        constraints=tuple(constraints),
        e_rows=e_rows,
        f=f,
        upper_bounded=upper,
        compl_pairs=compl,
        compl_complement_pairs=complc,
        z_slot=z_slot,
    )
    S.relation_rows  # refuse an unbacked relation here, not at its first use
    return S


def assignment_to_json(a: BlpAssignment) -> str:
    payload = {
        "base": [a.base_k, a.base_j],
        "k_weights": [[j, k, rat_str(w)] for j, k, w in a.k_weights],
        "t_weights": [[j, t, rat_str(w)] for j, t, w in a.t_weights],
    }
    return json.dumps(payload)


def assignment_from_json(text: str) -> BlpAssignment:
    """Parse :func:`assignment_to_json` output.

    ``base`` must be an array of two integers and each weight an array
    [j, index, weight]; any other malformation raises :class:`ValidationError`.
    """
    payload = json.loads(text)
    if not isinstance(payload, dict) or "base" not in payload:
        raise json_malformed(_DOC, "the assignment must be an object with a base", payload)
    base_k, base_j = (
        json_int(v, _DOC, "base entry") for v in json_array(payload["base"], _DOC, "base", 2)
    )

    def weights(key: str) -> list[tuple[int, int, Fraction]]:
        out = []
        for entry in json_array(payload.get(key, []), _DOC, key):
            j, index, w = json_array(entry, _DOC, f"{key} entry", 3)
            out.append((json_int(j, _DOC, f"{key} scenario"),
                        json_int(index, _DOC, f"{key} index"), rat(w)))
        return out

    return BlpAssignment.build(base_k, base_j, weights("k_weights"), weights("t_weights"))
