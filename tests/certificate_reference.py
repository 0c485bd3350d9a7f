"""Fraction oracle for the generic family's certificate rows.

`families` decides every certificate condition on scaled ints: ratio bounds
and covering ratios are compared by cross-multiplication.  This module keeps
the plain rational statement of the same conditions, so the tests can check
that the int kernel (`families.gen_blp_generic`) gives the same certificate,
the same infeasible scenario or the same error text.  Its parameter checks
and its cut are the Fraction ones of `generator_reference`.  It is not used
by the library.

`first_generic_choice` is the search that `families._first_generic_choice`
replaces by its closed form: r upward, then phantom sets by size and in
lexicographic order, each tested whole.

`facet_necessity_count` counts the certificate conditions that hold with
equality.  It is the only copy of that count, kept as the subject of an open
question: the count is not a facet test.  The facet z + 2 x_1 >= 20 of
L(3,1), certified with r = 1, t_set = (1,) and beta = (0, 0, 4), counts
6 < 2m + 1 = 7, and `hull.is_facet` decides facetness exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Optional, Sequence

from mixcut.core import MixingInstance, mixing_form
from mixcut.families import (
    BlpGenericParams,
    FamilyParamError,
    GenericCutResult,
    _Form,
    _given_certificate,
)
from generator_reference import generic_structure_check


@dataclass(frozen=True)
class CertificateRow:
    """Scenario j's certificate conditions before A_j is chosen.

    ``positions`` are the q positions k with q_k > j, ``bounds`` their ratio
    bounds phi_k / (m pi_{q_k}) and ``weights`` their probabilities pi_{q_k}.
    ``coef`` and ``rhs`` are the covering coefficient and right-hand side
    (divided by m) with A_j empty; each position moved into A_j takes its
    weight off the coefficient and phi_k / m off the right-hand side.
    """

    positions: tuple[int, ...]
    bounds: tuple[Fraction, ...]
    weights: tuple[Fraction, ...]
    coef: Fraction
    rhs: Fraction


def certificate_rows(
    inst: MixingInstance,
    r: int,
    t: Sequence[int],
    delta: Sequence[Fraction],
    q: Sequence[int],
    phi: Sequence[Fraction],
) -> Iterator[CertificateRow]:
    """The certificate rows of scenarios j = 1..m, in order."""
    m = inst.m
    weights = [inst.pi_at(qk) for qk in q]
    bounds = [f / (m * w) for f, w in zip(phi, weights)]
    phi_at = dict(zip(q, phi))
    delta_sums = [Fraction(0)]
    for d in delta:
        delta_sums.append(delta_sums[-1] + d)
    a_j = 0  # number of t entries below j
    for j in range(1, m + 1):
        while a_j < len(t) and t[a_j] < j:
            a_j += 1
        positions = tuple(k for k in range(len(q)) if q[k] > j)
        row_weights = tuple(weights[k] for k in positions)
        coef = inst.prefix(j) - inst.pi_at(j) - inst.epsilon + sum(row_weights, Fraction(0))
        anchor = inst.h_at(t[a_j]) if a_j < len(t) else inst.h_at(r + 1)
        rhs = anchor - inst.h_at(j) - delta_sums[a_j] - phi_at.get(j, Fraction(0))
        yield CertificateRow(
            positions, tuple(bounds[k] for k in positions), row_weights, coef, rhs / m
        )


def split_row(
    row: CertificateRow, a_pos: frozenset[int]
) -> tuple[Fraction, Optional[Fraction], Fraction, Fraction]:
    """(lo, hi, coef, rhs) of the row with A_j = a_pos (hi None when unbounded)."""
    lo, hi, coef, rhs = Fraction(0), None, row.coef, row.rhs
    for k, bound, weight in zip(row.positions, row.bounds, row.weights):
        if k in a_pos:
            lo = max(lo, bound)
            coef -= weight
            rhs -= bound * weight  # = phi_k / m
        elif hi is None or bound < hi:
            hi = bound
    return lo, hi, coef, rhs


def least_beta(row: CertificateRow, a_pos: frozenset[int]) -> Optional[Fraction]:
    """Least feasible multiplier for scenario j, or None when infeasible."""
    lo, hi, coef, rhs = split_row(row, a_pos)
    if coef > 0:
        lo = max(lo, rhs / coef)
    elif coef < 0:
        hi = rhs / coef if hi is None else min(hi, rhs / coef)
    elif rhs > 0:
        return None
    if hi is not None and lo > hi:
        return None
    return lo


def conditions_hold(row: CertificateRow, a_pos: frozenset[int], beta_j: Fraction) -> bool:
    lo, hi, coef, rhs = split_row(row, a_pos)
    return lo <= beta_j and (hi is None or beta_j <= hi) and beta_j * coef >= rhs


def search_row(row: CertificateRow) -> Optional[tuple[frozenset[int], Fraction]]:
    """First feasible (A_j, beta_j) in deterministic subset order."""
    relevant = row.positions
    for mask in range(1 << len(relevant)):
        a_pos = frozenset(relevant[i] for i in range(len(relevant)) if mask >> i & 1)
        beta = least_beta(row, a_pos)
        if beta is not None:
            return a_pos, beta
    return None


def certify(
    inst: MixingInstance,
    r: int,
    t: tuple[int, ...],
    delta: tuple[Fraction, ...],
    q: tuple[int, ...],
    phi: tuple[Fraction, ...],
    a_posed: Optional[Sequence[frozenset[int]]] = None,
    beta: Optional[Sequence[Fraction]] = None,
) -> tuple[Optional[BlpGenericParams], Optional[int]]:
    """The certificate, or None and the first infeasible scenario."""
    chosen = []
    for j, row in enumerate(certificate_rows(inst, r, t, delta, q, phi), start=1):
        if a_posed is None:
            found = search_row(row)
        else:
            a_pos = a_posed[j - 1]
            if beta is None:
                beta_j = least_beta(row, a_pos)
            elif conditions_hold(row, a_pos, beta[j - 1]):
                beta_j = beta[j - 1]
            else:
                beta_j = None
            found = None if beta_j is None else (a_pos, beta_j)
        if found is None:
            return None, j
        chosen.append(found)
    cert = BlpGenericParams(
        r=r,
        t_set=t,
        delta=delta,
        q_list=q,
        phi=phi,
        a_sets=tuple(frozenset(q[k] for k in a_pos) for a_pos, _ in chosen),
        beta=tuple(b for _, b in chosen),
    )
    return cert, None


def gen_blp_generic(inst: MixingInstance, params: BlpGenericParams) -> GenericCutResult:
    """`families.gen_blp_generic` on the Fraction rows."""
    t, delta, q, phi = generic_structure_check(inst, params)
    m = inst.m
    a_posed = beta = None
    if params.a_sets is not None:
        a_posed, beta = _given_certificate(m, q, params.a_sets, params.beta)
    elif params.beta is not None:
        raise FamilyParamError("beta needs a_sets: a multiplier is checked against its A_j")
    cert, infeasible_j = certify(inst, params.r, t, delta, q, phi, a_posed, beta)
    if cert is None:
        return GenericCutResult(False, None, None, infeasible_j=infeasible_j)
    tx = list(t) + [params.r + 1]
    coefs = [inst.h_at(tx[i]) - inst.h_at(tx[i + 1]) + delta[i] for i in range(len(t))]
    cut = mixing_form(m, t, coefs, q, phi, inst.h_at(t[0]))
    return GenericCutResult(True, cut, cert)


def first_generic_choice(
    inst: MixingInstance, form: _Form
) -> Optional[tuple[int, tuple[int, ...]]]:
    """The first (r, t_set with phantoms) in search order with h_{t_1} = rhs_base."""
    t_vis, q = form.t, form.q
    hi = inst.p if not q else min(inst.p, q[0] - 1)
    for r in range(t_vis[-1], hi + 1):
        pool = [i for i in range(1, r + 1) if i not in t_vis]
        need = max(0, len(q) - (inst.p - r) - len(t_vis))
        for extra in range(need, len(pool) + 1):
            for phantom in combinations(pool, extra):
                t = tuple(sorted(t_vis + phantom))
                if form.h[t[0]] == form.rhs_base:
                    return r, t
    return None


def facet_necessity_count(inst: MixingInstance, params: BlpGenericParams) -> int:
    """Number of certificate conditions that hold with equality.

    Counts, over the scenarios j = 1..m, the ratio bounds that hold with
    equality, the covering inequality when it is tight, and, when beta_j is
    zero, each later scenario outside t_set and q_list.  Requires a certified
    parameter set.
    """
    if params.a_sets is None or params.beta is None:
        raise FamilyParamError("necessity counting requires a certificate (a_sets, beta)")
    t, delta, q, phi = generic_structure_check(inst, params)
    a_posed, beta = _given_certificate(inst.m, q, params.a_sets, params.beta)
    m = inst.m
    pq = set(t) | set(q)
    count = 0
    for j, row in enumerate(certificate_rows(inst, params.r, t, delta, q, phi), start=1):
        a_pos = a_posed[j - 1]
        b = beta[j - 1]
        if not conditions_hold(row, a_pos, b):
            raise FamilyParamError(f"certificate conditions fail at scenario {j}")
        count += sum(1 for bound in row.bounds if b == bound)
        _, _, coef, rhs = split_row(row, a_pos)
        if b * coef == rhs:
            count += 1
        if b == 0:
            count += sum(1 for i in range(j + 1, m + 1) if i not in pq)
    return count
