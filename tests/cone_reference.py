"""Dense projection-cone membership, used as a test oracle.

`dense_cone_membership(S, dual)` is the direct reading of the cone's
defining identities: for every scenario j >= 1, every x coordinate i and the
right-hand side, it sums each constraint's and each polyhedron row's term
over all of alpha_j, alpha_0, beta_j and beta_0, zero weights included, and
requires the total to vanish.  The scenario-0 blocks then give the projected
cut.

`blp.cone_membership` evaluates only the nonzero weights and compares every
scenario with the projected cut, so it shares no loop with this one; the
tests require both to return identical results, or the same error.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from mixcut.blp import BilinearSet
from mixcut.core import LinearCut, RationalLike, ValidationError, rat


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
