"""Dense projection-cone membership, used as a test oracle.

`dense_cone_membership(S, dual)` is the direct reading of the cone's
defining identities: for every scenario j >= 1, every x coordinate i and the
right-hand side, it sums each constraint's and each polyhedron row's term
over all of alpha_j, alpha_0, beta_j and beta_0, zero weights included, and
requires the total to vanish.  The scenario-0 blocks then give the projected
cut.

`dense_dual(S, dual)` lays a sparse `blp.ConeDual` out as that dense vector,
each int value divided by the dual's denominator: alpha blocks j = 0..m (each
kappa long), beta blocks j = 0..m (each tau long), gamma blocks j = 0..m
(each n long), then theta_0..m, zeros included.  `blp.cone_membership`
reads the sparse dual through the weighted row sum behind `blp.aggregate`,
so it shares no loop with this one; the tests require both to return
identical results, or both to raise.

`fraction_weighted_sum(S, weighted)` is the weighted row sum behind
`blp.aggregate`, summed as Fractions over rows read straight from the
constraints and the polyhedron, not from the set's integer restriction table.

`fraction_substitute(S, expr)` is `blp.substitute` moving and collapsing
the expression's Fractions entry by entry, without scaling them to ints; it
returns a `FractionSubstitution`, which the tests compare with the ints of
`blp.SubstitutionResult` read as Fractions.

`fractions_over(denominator, value)` reads the engine's ints over their
denominator as Fractions: the one route from `blp.BilinearExpr` and
`blp.SubstitutionResult` to the Fraction oracles here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

from mixcut.blp import BilinearExpr, BilinearSet, ConeDual
from mixcut.core import LinearCut, RationalLike, ValidationError, rat


def fractions_over(denominator: int, value: int | Sequence):
    """`value` / `denominator` as a Fraction, or a tuple of them for a
    (nested) sequence of ints."""
    if isinstance(value, int):
        return Fraction(value, denominator)
    return tuple(fractions_over(denominator, v) for v in value)


def dense_dual(S: BilinearSet, dual: ConeDual) -> list[RationalLike]:
    """The dense vector of a sparse dual, each value divided by the dual's
    denominator; absent entries are 0.

    A key with no slot in the layout, a value that is not a plain int or a
    denominator that is not a positive int raises :class:`ValidationError`.
    """
    n, m, kappa, tau = S.n, S.m, S.kappa, S.tau
    D = dual.denominator
    if isinstance(D, bool) or not isinstance(D, int) or D < 1:
        raise ValidationError(f"the dense layout needs a positive int denominator, got {D!r}")
    vec: list[RationalLike] = [0] * ((m + 1) * (kappa + tau + n + 1))

    def value(v: int) -> Fraction:
        if type(v) is not int:
            raise ValidationError(f"the dense layout reads int values, got {v!r}")
        return Fraction(v, D)

    def slot(start: int, j, i, size: int) -> int:
        """Entry i of block j, blocks `size` long from `start`."""
        if type(j) is not int or type(i) is not int or not (0 <= j <= m and 0 <= i < size):
            raise ValidationError(f"the dense layout has no slot for ({j!r}, {i!r})")
        return start + j * size + i

    for (j, k), w in dual.rows.items():
        pos = slot(0, j, k, kappa) if k < kappa else slot((m + 1) * kappa, j, k - kappa, tau)
        vec[pos] = value(w)
    for (j, i), g in dual.gamma.items():
        vec[slot((m + 1) * (kappa + tau), j, i, n)] = value(g)
    for j, v in dual.theta.items():
        vec[slot((m + 1) * (kappa + tau + n), j, 0, 1)] = value(v)
    return vec


def dense_cone_membership(
    S: BilinearSet, dual: Sequence[RationalLike]
) -> tuple[bool, Optional[LinearCut]]:
    """Is the weight vector in the projection cone; if so, its projected cut.

    Layout: alpha blocks j = 0..m (each kappa long), beta blocks j = 0..m
    (each tau long), gamma blocks j = 0..m (each n long), then theta_0..m.
    """
    n, m, kappa, tau = S.n, S.m, S.kappa, S.tau
    expected = (m + 1) * (kappa + tau + n + 1)
    vec = [rat(v) for v in dual]
    if len(vec) != expected:
        raise ValidationError(f"dual vector must have length {expected}")
    if any(v < 0 for v in vec):
        return False, None
    pos = 0
    alpha = [vec[pos + j * kappa : pos + (j + 1) * kappa] for j in range(m + 1)]
    pos += (m + 1) * kappa
    beta = [vec[pos + j * tau : pos + (j + 1) * tau] for j in range(m + 1)]
    pos += (m + 1) * tau
    gamma = [vec[pos + j * n : pos + (j + 1) * n] for j in range(m + 1)]
    pos += (m + 1) * n
    theta = vec[pos : pos + m + 1]

    for j in range(1, m + 1):
        for i in range(n):
            total = gamma[j][i] - gamma[0][i]
            for k, con in enumerate(S.constraints):
                total += (con.A[j - 1][i] + con.b[i]) * alpha[j][k]
                total -= con.b[i] * alpha[0][k]
            for t in range(tau):
                total += S.e_rows[t][i] * (beta[j][t] - beta[0][t])
            if total != 0:
                return False, None
        total = theta[j] - theta[0]
        for k, con in enumerate(S.constraints):
            total += (con.c[j - 1] - con.d) * alpha[j][k]
            total += con.d * alpha[0][k]
        for t in range(tau):
            total += S.f[t] * (beta[0][t] - beta[j][t])
        if total != 0:
            return False, None

    coefs = []
    for i in range(n):
        c = gamma[0][i]
        for k, con in enumerate(S.constraints):
            c += con.b[i] * alpha[0][k]
        for t in range(tau):
            c += S.e_rows[t][i] * beta[0][t]
        coefs.append(c)
    rhs = -theta[0]
    for k, con in enumerate(S.constraints):
        rhs += con.d * alpha[0][k]
    for t in range(tau):
        rhs += S.f[t] * beta[0][t]
    if S.z_slot is not None:
        cut = LinearCut(
            coefs[S.z_slot],
            tuple(c for i, c in enumerate(coefs) if i != S.z_slot),
            rhs,
        )
    else:
        cut = LinearCut(Fraction(0), tuple(coefs), rhs)
    return True, cut


def _reading(S: BilinearSet, j: int, k: int) -> tuple[list[Fraction], Fraction]:
    """Row k read at y = e_j: ``b . x >= d`` at j = 0, ``(A_j + b) . x >= d - c_j``
    at j >= 1, and polyhedron row t = k - kappa as ``E_t x >= f_t`` at every j."""
    if k >= S.kappa:
        return list(S.e_rows[k - S.kappa]), S.f[k - S.kappa]
    con = S.constraints[k]
    if j == 0:
        return list(con.b), con.d
    return [a + b for a, b in zip(con.A[j - 1], con.b)], con.d - con.c[j - 1]


def fraction_weighted_sum(
    S: BilinearSet, weighted: Iterable[tuple[int, int, Fraction]]
) -> tuple[list[list[Fraction]], list[Fraction], list[Fraction], Fraction]:
    """(quad, lin_x, lin_y, rhs) of the weighted rows, y-normalized.

    Weighting by y_j puts the reading at e_j into the j-th bilinear row;
    weighting by the simplex complement (j = 0) keeps the linear part and
    mirrors it negatively into every bilinear row.
    """
    m, n = S.m, S.n
    quad = [[Fraction(0)] * n for _ in range(m)]
    lin_x = [Fraction(0)] * n
    lin_y = [Fraction(0)] * m
    rhs = Fraction(0)
    for j, k, w in weighted:
        coefs, row_rhs = _reading(S, j, k)
        if j == 0:
            for i, v in enumerate(coefs):
                lin_x[i] += w * v
                for jj in range(m):
                    quad[jj][i] -= w * v
            for jj in range(m):
                lin_y[jj] += w * row_rhs
            rhs += w * row_rhs
        else:
            for i, v in enumerate(coefs):
                quad[j - 1][i] += w * v
            lin_y[j - 1] -= w * row_rhs
    return quad, lin_x, lin_y, rhs


class FractionSubstitution(NamedTuple):
    """The Fraction fields of a `blp.SubstitutionResult`."""

    coefs: tuple[Fraction, ...]
    rhs: Fraction
    moves: tuple[tuple[int, int, Fraction], ...]
    t_sets_disjoint: bool
    z_slot: Optional[int]


def fraction_substitute(S: BilinearSet, expr: BilinearExpr) -> FractionSubstitution:
    """`blp.substitute` on Fractions: the same moves, in the same order.

    Bound substitutions for upper-bounded variables, then the two
    complementarity eliminations, then the positive part of each column's
    maximum onto x_i and that of the y terms onto the rhs.
    """
    m = S.m
    backing = S.relation_rows
    zero = Fraction(0)
    quad = [list(row) for row in fractions_over(expr.denominator, expr.quad_num)]
    lin_y = list(fractions_over(expr.denominator, expr.lin_y_num))
    lin_x = list(fractions_over(expr.denominator, expr.lin_x_num))
    moves: list[tuple[int, int, Fraction]] = []

    # x_i <= 1 moves a positive x_i y_j coefficient u onto y_j: row k at j, weight u
    for i, k in backing.upper.items():
        for j in range(1, m + 1):
            u = quad[j - 1][i]
            if u > 0:
                quad[j - 1][i] = zero
                lin_y[j - 1] += u
                moves.append((j, k, u))

    # x_i y_j = 0 drops the coefficient u: row k at j, weight u when u > 0
    for (i, j), k in backing.compl.items():
        u = quad[j - 1][i]
        if u != 0:
            quad[j - 1][i] = zero
            if u > 0:
                moves.append((j, k, u))

    # (1 - x_i) y_j = 0 moves a negative x_i y_j coefficient u onto y_j: row k
    # at j, weight -u
    for (i, j), k in backing.compl_complement.items():
        u = quad[j - 1][i]
        if u < 0:
            quad[j - 1][i] = zero
            lin_y[j - 1] += u
            moves.append((j, k, -u))

    for i in range(S.n):
        best = max(zero, *(row[i] for row in quad))
        if best:
            lin_x[i] += best

    return FractionSubstitution(
        coefs=tuple(lin_x),
        rhs=fractions_over(expr.denominator, expr.rhs_num) - max(zero, *lin_y),
        moves=tuple(moves),
        t_sets_disjoint=expr.t_sets_disjoint,
        z_slot=S.z_slot,
    )
