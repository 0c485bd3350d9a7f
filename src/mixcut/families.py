"""Closed-form inequality families: generators and membership certifiers.

Seven nested families are supported, from the classic star inequalities up
to the generic aggregation family with its per-scenario certificate search.
Generators validate their parameter preconditions exactly and emit canonical
cuts; `member_of` answers whether a given hull facet can be reproduced by
some parameterization of a family, returning the witnessing parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, permutations, product
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .core import (
    LinearCut,
    MixingInstance,
    ParsedMixingForm,
    Rational,
    ValidationError,
    canonicalize,
    mixing_form,
    parse_mixing_form,
    rat,
)

FAMILIES = (
    "star",
    "strengthened_star",
    "lifted",
    "kucukyavuz",
    "zhao",
    "blp_uniform",
    "blp_generic",
)


class FamilyParamError(ValidationError):
    """Family parameters violate the theorem's hypotheses."""


# ---------------------------------------------------------------------------
# Parameter records


@dataclass(frozen=True)
class StarParams:
    t_set: tuple[int, ...]


@dataclass(frozen=True)
class LiftedParams:
    """Parameters for the three lifted families (negative-coefficient terms).

    ``q_list`` order is significant for the permuted families.  ``s_list``
    applies only to the general-probability family; when omitted it is
    derived from the knapsack feasibility conditions.
    """

    r: int
    t_set: tuple[int, ...]
    q_list: tuple[int, ...] = ()
    s_list: Optional[tuple[int, ...]] = None


@dataclass(frozen=True)
class BlpUniformParams:
    r: int
    t_set: tuple[int, ...]
    q_list: tuple[int, ...]
    delta: tuple[Fraction, ...]


@dataclass(frozen=True)
class BlpGenericParams:
    """Generic-family parameters plus an optional certificate.

    ``a_sets`` maps each scenario j = 1..m to a set of scenario indices drawn
    from ``q_list`` (entries not exceeding j are inert); ``beta`` is the
    per-scenario multiplier vector.  When both are present they form the
    certificate that the emitted cut is a valid aggregation.
    """

    r: int
    t_set: tuple[int, ...]
    delta: tuple[Fraction, ...]
    q_list: tuple[int, ...] = ()
    phi: tuple[Fraction, ...] = ()
    a_sets: Optional[tuple[frozenset[int], ...]] = None
    beta: Optional[tuple[Fraction, ...]] = None


@dataclass(frozen=True)
class GenericCutResult:
    accepted: bool
    cut: Optional[LinearCut]
    certificate: Optional[BlpGenericParams]
    infeasible_j: Optional[int] = None

    def __bool__(self) -> bool:
        return self.accepted


@dataclass(frozen=True)
class Membership:
    member: bool
    via: Optional[str] = None
    certificate: object = None

    def __bool__(self) -> bool:
        return self.member


# ---------------------------------------------------------------------------
# Shared validation helpers


def _check_increasing(t_set: Sequence[int], upper: int, what: str) -> tuple[int, ...]:
    t = tuple(int(i) for i in t_set)
    if not t:
        raise FamilyParamError(f"{what} must be nonempty")
    if any(a >= b for a, b in zip(t, t[1:])):
        raise FamilyParamError(f"{what} must be strictly increasing")
    if t[0] < 1 or t[-1] > upper:
        raise FamilyParamError(f"{what} must lie within 1..{upper}")
    return t


def _telescope(inst: MixingInstance, t: Sequence[int], anchor: int) -> list[Fraction]:
    """Coefficients h_{t_i} - h_{t_{i+1}} with the final index replaced by `anchor`."""
    idx = list(t) + [anchor]
    return [inst.h_at(idx[i]) - inst.h_at(idx[i + 1]) for i in range(len(t))]


def _require_uniform(inst: MixingInstance, family: str) -> None:
    if not inst.uniform:
        raise FamilyParamError(f"the {family} family requires a uniform instance")


# ---------------------------------------------------------------------------
# Generators


def gen_star(inst: MixingInstance, params: StarParams) -> LinearCut:
    """Telescoping inequality over an increasing index set, anchored at 0.

    Valid for the knapsack-free mixing relaxation, hence for the instance.
    """
    t = _check_increasing(params.t_set, inst.m, "t_set")
    coefs = _telescope(inst, t, inst.m + 1)  # h_{m+1} = 0 anchor
    return mixing_form(inst.m, t, coefs, (), (), inst.h_at(t[0]))


def gen_strengthened_star(inst: MixingInstance, params: StarParams) -> LinearCut:
    """Telescoping inequality over indices within 1..p, anchored at h_{p+1}."""
    t = _check_increasing(params.t_set, inst.p, "t_set")
    coefs = _telescope(inst, t, inst.p + 1)
    return mixing_form(inst.m, t, coefs, (), (), inst.h_at(t[0]))


def _lifts(
    inst: MixingInstance,
    anchor: int,
    q: Sequence[int],
    ends: Sequence[int],
    cutoffs: Sequence[int],
    shift: Fraction = Fraction(0),
) -> list[Fraction]:
    """Lift coefficients of the sequence q by the crossing recursion.

    phi_1 = h_anchor - h_{ends_1} - shift, and for i > 1
    phi_i = max(phi_{i-1}, h_anchor - h_{ends_i} - shift - sum of phi_k over
    the earlier k with q_k >= cutoffs_i).  Every lifted family is this one
    recursion; it differs only in its anchor, ends, cutoffs and shift.
    """
    base = inst.h_at(anchor) - shift
    phis: list[Fraction] = []
    for i, end in enumerate(ends):
        restricted = sum((phis[k] for k in range(i) if q[k] >= cutoffs[i]), Fraction(0))
        value = base - inst.h_at(end) - restricted
        phis.append(max(phis[-1], value) if phis else value)
    return phis


def gen_luedtke_lifted(inst: MixingInstance, params: LiftedParams) -> LinearCut:
    """Lifted telescoping inequality for the cardinality case, sorted lifting set."""
    _require_uniform(inst, "lifted")
    r, p = params.r, inst.p
    if not 1 <= r <= p:
        raise FamilyParamError("r must lie within 1..p")
    t = _check_increasing(params.t_set, r, "t_set")
    q = tuple(params.q_list)
    if len(q) != p - r:
        raise FamilyParamError(f"q_list must have exactly p - r = {p - r} entries")
    if q:
        _check_increasing(q, inst.m, "q_list")
        if q[0] <= p:
            raise FamilyParamError("q_list must lie within p+1..m")
    # sorted lifting: every earlier lift counts, so the cutoffs are 0
    phis = _lifts(inst, r + 1, q, range(r + 2, r + len(q) + 2), [0] * len(q))
    coefs = _telescope(inst, t, r + 1)
    return mixing_form(inst.m, t, coefs, q, phis, inst.h_at(t[0]))


def gen_kucukyavuz(inst: MixingInstance, params: LiftedParams) -> LinearCut:
    """Lifted inequality with a permuted lifting sequence, q_i >= r + i + 1."""
    _require_uniform(inst, "kucukyavuz")
    r, p = params.r, inst.p
    if not 1 <= r <= p:
        raise FamilyParamError("r must lie within 1..p")
    t = _check_increasing(params.t_set, r, "t_set")
    q = tuple(params.q_list)
    if len(q) != p - r:
        raise FamilyParamError(f"q_list must have exactly p - r = {p - r} entries")
    if len(set(q)) != len(q):
        raise FamilyParamError("q_list entries must be distinct")
    ends = range(r + 2, r + len(q) + 2)  # also the cutoffs and the q_i bounds
    for i, (qi, lo) in enumerate(zip(q, ends), start=1):
        if not lo <= qi <= inst.m:
            raise FamilyParamError(f"q_{i} = {qi} violates q_i >= r + i + 1")
    phis = _lifts(inst, r + 1, q, ends, ends)
    coefs = _telescope(inst, t, r + 1)
    return mixing_form(inst.m, t, coefs, q, phis, inst.h_at(t[0]))


def _zhao_w_tails(inst: MixingInstance, q: Sequence[int]) -> list[Fraction]:
    """Suffix sums of the lifting probabilities in descending-probability order."""
    w = sorted(q, key=lambda i: (-inst.pi_at(i), i))
    tails = [Fraction(0)] * (len(q) + 1)
    for i in range(len(q) - 1, -1, -1):
        tails[i] = tails[i + 1] + inst.pi_at(w[i])
    return tails


def _zhao_derive_s(
    inst: MixingInstance, r: int, q: Sequence[int]
) -> tuple[Optional[tuple[int, ...]], Optional[int]]:
    """The unique s-sequence satisfying the knapsack crossing conditions.

    For each position i the prefix mass of scenarios 1..r+s_i-1 plus the
    suffix mass of the lifting set must not exceed epsilon, while including
    scenario r+s_i pushes it strictly over.  Returns (None, i) when no such
    integer exists for position i (1-based).
    """
    tails = _zhao_w_tails(inst, q)
    s: list[int] = []
    for i in range(len(q)):
        room = inst.epsilon - tails[i]
        if inst.prefix(r) > room:
            return None, i + 1
        si = None
        for cand in range(1, inst.m - r + 1):
            if inst.prefix(r + cand - 1) <= room < inst.prefix(r + cand):
                si = cand
                break
        if si is None:
            return None, i + 1
        s.append(si)
    return tuple(s), None


def _zhao_check_s(
    inst: MixingInstance, r: int, q: Sequence[int], s: Sequence[int]
) -> Optional[int]:
    """Failing position (1-based) of the crossing conditions, or None."""
    tails = _zhao_w_tails(inst, q)
    for i, si in enumerate(s):
        if r + si > inst.m:
            return i + 1
        if not (
            inst.prefix(r + si) + tails[i] > inst.epsilon
            and inst.prefix(r + si - 1) + tails[i] <= inst.epsilon
        ):
            return i + 1
    return None


def _zhao_ends_cutoffs(
    r: int, s: Sequence[int], s_top: int
) -> tuple[list[int], list[int]]:
    """Ends and cutoffs of the s-shifted lifting; the cutoffs also bound q_i below."""
    sx = list(s) + [s_top]
    ends = [r + sx[1]] + [r + sx[i] + 1 for i in range(1, len(s))]
    cutoffs = [r + min(1 + sx[i], sx[i + 1]) for i in range(len(s))]
    return ends, cutoffs


def gen_zhao(inst: MixingInstance, params: LiftedParams) -> LinearCut:
    """General-probability lifted inequality with the s-shifted anchors.

    All feasibility conditions are verified exactly; a violated knapsack
    crossing condition is reported with its failing position.
    """
    r, p, theta = params.r, inst.p, inst.theta
    if not 1 <= r <= p:
        raise FamilyParamError("r must lie within 1..p")
    t = _check_increasing(params.t_set, r, "t_set")
    q = tuple(params.q_list)
    v = len(q)
    if v < 1:
        raise FamilyParamError("q_list must be nonempty (use the star families otherwise)")
    if len(set(q)) != len(q):
        raise FamilyParamError("q_list entries must be distinct")
    if v > theta - r:
        raise FamilyParamError(f"need |q_list| <= theta - r = {theta - r}")
    if params.s_list is not None:
        s = tuple(int(x) for x in params.s_list)
        if len(s) != v:
            raise FamilyParamError("s_list must match q_list in length")
        bad = _zhao_check_s(inst, r, q, s)
        if bad is not None:
            raise FamilyParamError(f"knapsack crossing condition fails at iota={bad}")
    else:
        s, bad = _zhao_derive_s(inst, r, q)
        if s is None:
            raise FamilyParamError(f"knapsack crossing condition fails at iota={bad}")
    s_top = p - r + 1
    if any(a > b for a, b in zip(s, list(s[1:]) + [s_top])) or s[0] < 1:
        raise FamilyParamError("s-sequence must be nondecreasing within 1..p-r+1")
    ends, cutoffs = _zhao_ends_cutoffs(r, s, s_top)
    for i, (qi, lo) in enumerate(zip(q, cutoffs), start=1):
        if not lo <= qi <= inst.m or qi <= r + s[0]:
            raise FamilyParamError(f"q_{i} = {qi} outside its admissible range")
    phis = _lifts(inst, r + s[0], q, ends, cutoffs)
    coefs = _telescope(inst, t, r + s[0])
    return mixing_form(inst.m, t, coefs, q, phis, inst.h_at(t[0]))


def gen_blp_uniform(inst: MixingInstance, params: BlpUniformParams) -> LinearCut:
    """Aggregation family for the cardinality case: shifted coefficients.

    The delta shifts relax the telescoping coefficients; the lifting values
    follow the same crossing recursion as the permuted family but discounted
    by the total shift.
    """
    _require_uniform(inst, "blp_uniform")
    if inst.epsilon == 1:
        raise FamilyParamError(
            "the shifted families need epsilon < 1 (their multiplier construction"
            " divides by 1 - epsilon); the star families cover the vacuous knapsack"
        )
    r, p = params.r, inst.p
    if not 1 <= r <= p:
        raise FamilyParamError("r must lie within 1..p")
    t = _check_increasing(params.t_set, r, "t_set")
    q = tuple(params.q_list)
    v = len(q)
    if not 1 <= v <= p - r:
        raise FamilyParamError(f"need 1 <= |q_list| <= p - r = {p - r}")
    if len(set(q)) != len(q):
        raise FamilyParamError("q_list entries must be distinct")
    delta = tuple(rat(d) for d in params.delta)
    if len(delta) != len(t):
        raise FamilyParamError("delta must match t_set in length")
    # s_iota = p - r - v + iota, so the anchor sits at h_{p-v+1} and the
    # lifting ends, cutoffs and q_i lower bounds are r + s_iota + 1
    anchor = p - v + 1
    ends = range(anchor + 1, anchor + v + 1)
    tx = list(t) + [anchor]
    for i, d in enumerate(delta):
        if d < inst.h_at(tx[i + 1]) - inst.h_at(tx[i]):
            raise FamilyParamError(f"delta_{i + 1} below its telescoping lower bound")
    # every prefix including the full sum must be non-negative: the proof's
    # scenario cases rely on it, and a negative total genuinely produces
    # invalid inequalities
    for k in range(2, len(t) + 2):
        if sum(delta[: k - 1], Fraction(0)) < 0:
            raise FamilyParamError(f"partial delta sum through {k - 1} is negative")
    delta_sum = sum(delta, Fraction(0))
    if delta_sum > inst.h_at(anchor) - inst.h_at(anchor + 1):
        raise FamilyParamError("total delta exceeds the first anchor gap")
    for i, (qi, lo) in enumerate(zip(q, ends), start=1):
        if not lo <= qi <= inst.m:
            raise FamilyParamError(f"q_{i} = {qi} outside r+s_{i}+1..m")
    phis = _lifts(inst, anchor, q, ends, ends, delta_sum)
    coefs = [
        inst.h_at(tx[i]) - inst.h_at(tx[i + 1]) + delta[i] for i in range(len(t))
    ]
    return mixing_form(inst.m, t, coefs, q, phis, inst.h_at(t[0]))


# ---------------------------------------------------------------------------
# Generic certificate machinery


@dataclass(frozen=True)
class _CertificateRow:
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


def _certificate_rows(
    inst: MixingInstance,
    r: int,
    t: Sequence[int],
    delta: Sequence[Fraction],
    q: Sequence[int],
    phi: Sequence[Fraction],
) -> Iterator[_CertificateRow]:
    """The certificate rows of scenarios j = 1..m, in order.

    Each q position's weight and ratio bound is computed once for all j; the
    shift sums come from prefix sums of delta, and phi_j by q index.
    """
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
        yield _CertificateRow(
            positions, tuple(bounds[k] for k in positions), row_weights, coef, rhs / m
        )


def _split_row(
    row: _CertificateRow, a_pos: frozenset[int]
) -> tuple[Fraction, Optional[Fraction], Fraction, Fraction]:
    """(lo, hi, coef, rhs) of the row with A_j = a_pos (0-based q positions).

    The ratio window is lo <= beta_j <= hi (hi None when unbounded); lo is at
    least 0.  Positions not above j are inert.
    """
    lo, hi, coef, rhs = Fraction(0), None, row.coef, row.rhs
    for k, bound, weight in zip(row.positions, row.bounds, row.weights):
        if k in a_pos:
            lo = max(lo, bound)
            coef -= weight
            rhs -= bound * weight  # = phi_k / m
        elif hi is None or bound < hi:
            hi = bound
    return lo, hi, coef, rhs


def _beta_bounds_for_j(row: _CertificateRow, a_pos: frozenset[int]) -> Optional[Fraction]:
    """Least feasible multiplier for scenario j, or None when infeasible.

    Combines the ratio window from the lifted coefficients with the covering
    requirement beta_j * coef >= rhs.
    """
    lo, hi, coef, rhs = _split_row(row, a_pos)
    if coef > 0:
        lo = max(lo, rhs / coef)
    elif coef < 0:
        hi = rhs / coef if hi is None else min(hi, rhs / coef)
    elif rhs > 0:
        return None
    if hi is not None and lo > hi:
        return None
    return lo


def _certificate_conditions_hold(
    row: _CertificateRow, a_pos: frozenset[int], beta_j: Fraction
) -> bool:
    lo, hi, coef, rhs = _split_row(row, a_pos)
    return lo <= beta_j and (hi is None or beta_j <= hi) and beta_j * coef >= rhs


def _search_certificate_j(row: _CertificateRow) -> Optional[tuple[frozenset[int], Fraction]]:
    """First feasible (A_j, beta_j) in deterministic subset order."""
    relevant = row.positions
    for mask in range(1 << len(relevant)):
        a_pos = frozenset(relevant[i] for i in range(len(relevant)) if mask >> i & 1)
        beta = _beta_bounds_for_j(row, a_pos)
        if beta is not None:
            return a_pos, beta
    return None


def _certify(
    inst: MixingInstance,
    r: int,
    t: tuple[int, ...],
    delta: tuple[Fraction, ...],
    q: tuple[int, ...],
    phi: tuple[Fraction, ...],
    a_posed: Optional[Sequence[frozenset[int]]] = None,
    beta: Optional[Sequence[Fraction]] = None,
) -> tuple[Optional[BlpGenericParams], Optional[int]]:
    """The certificate, or None and the first infeasible scenario.

    Without ``a_posed`` each scenario's (A_j, beta_j) is searched; with it,
    the given beta_j is verified, or the least feasible one is taken.
    """
    chosen = []
    for j, row in enumerate(_certificate_rows(inst, r, t, delta, q, phi), start=1):
        if a_posed is None:
            found = _search_certificate_j(row)
        else:
            a_pos = a_posed[j - 1]
            if beta is None:
                beta_j = _beta_bounds_for_j(row, a_pos)
            elif _certificate_conditions_hold(row, a_pos, beta[j - 1]):
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


def _generic_structure_check(
    inst: MixingInstance, params: BlpGenericParams
) -> tuple[tuple[int, ...], tuple[Fraction, ...], tuple[int, ...], tuple[Fraction, ...]]:
    if inst.epsilon == 1:
        raise FamilyParamError(
            "the aggregation family needs epsilon < 1 (its multiplier construction"
            " divides by 1 - epsilon); the star families cover the vacuous knapsack"
        )
    r, p = params.r, inst.p
    if not 1 <= r <= p:
        raise FamilyParamError("r must lie within 1..p")
    t = _check_increasing(params.t_set, r, "t_set")
    delta = tuple(rat(d) for d in params.delta)
    if len(delta) != len(t):
        raise FamilyParamError("delta must match t_set in length")
    q = tuple(params.q_list)
    if q:
        _check_increasing(q, inst.m, "q_list")
        if q[0] <= r:
            raise FamilyParamError("q_list must lie within r+1..m")
    if len(q) > p - r + len(t):
        raise FamilyParamError(f"need |q_list| <= p - r + |t_set| = {p - r + len(t)}")
    phi = tuple(rat(v) for v in params.phi)
    if len(phi) != len(q):
        raise FamilyParamError("phi must match q_list in length")
    if any(v < 0 for v in phi):
        raise FamilyParamError("phi entries must be non-negative")
    tx = list(t) + [r + 1]
    for i, d in enumerate(delta):
        if d < inst.h_at(tx[i + 1]) - inst.h_at(tx[i]):
            raise FamilyParamError(f"delta_{i + 1} below its telescoping lower bound")
    if sum(delta, Fraction(0)) > inst.h_at(r + 1):
        raise FamilyParamError("total delta exceeds h_{r+1}")
    return t, delta, q, phi


def _a_values_to_positions(
    q: Sequence[int], a_sets: Sequence[Iterable[int]]
) -> list[frozenset[int]]:
    pos = {qi: k for k, qi in enumerate(q)}
    out = []
    for a in a_sets:
        ids = frozenset(pos[x] for x in a if x in pos)
        out.append(ids)
    return out


def gen_blp_generic(inst: MixingInstance, params: BlpGenericParams) -> GenericCutResult:
    """Emit the generic aggregation cut when a multiplier certificate exists.

    With ``a_sets``/``beta`` supplied they are verified; otherwise each
    scenario is searched independently (subsets of the lifting positions
    above the scenario, smallest feasible multiplier).  On failure the first
    infeasible scenario is reported and no cut is emitted.
    """
    t, delta, q, phi = _generic_structure_check(inst, params)
    m = inst.m
    a_posed = beta = None
    if params.a_sets is not None:
        if len(params.a_sets) != m:
            raise FamilyParamError("a_sets must have one entry per scenario")
        a_posed = _a_values_to_positions(q, params.a_sets)
        if params.beta is not None:
            beta = tuple(rat(b) for b in params.beta)
            if len(beta) != m or any(b < 0 for b in beta):
                raise FamilyParamError("beta must be m non-negative rationals")
    cert, infeasible_j = _certify(inst, params.r, t, delta, q, phi, a_posed, beta)
    if cert is None:
        return GenericCutResult(False, None, None, infeasible_j=infeasible_j)
    tx = list(t) + [params.r + 1]
    coefs = [inst.h_at(tx[i]) - inst.h_at(tx[i + 1]) + delta[i] for i in range(len(t))]
    cut = mixing_form(m, t, coefs, q, phi, inst.h_at(t[0]))
    return GenericCutResult(True, cut, cert)


def facet_necessity_count(inst: MixingInstance, params: BlpGenericParams) -> int:
    """Number of certificate conditions that hold with equality.

    Counts ties among the ratio bounds, the covering inequalities and the
    sign conditions on multiplier products; a cut can only be facet-defining
    when this count reaches 2m + 1.  Requires a certified parameter set.
    """
    if params.a_sets is None or params.beta is None:
        raise FamilyParamError("necessity counting requires a certificate (a_sets, beta)")
    t, delta, q, phi = _generic_structure_check(inst, params)
    a_posed = _a_values_to_positions(q, params.a_sets)
    beta = tuple(rat(b) for b in params.beta)
    m = inst.m
    pq = set(t) | set(q)
    count = 0
    for j, row in enumerate(_certificate_rows(inst, params.r, t, delta, q, phi), start=1):
        a_pos = a_posed[j - 1]
        b = beta[j - 1]
        if not _certificate_conditions_hold(row, a_pos, b):
            raise FamilyParamError(f"certificate conditions fail at scenario {j}")
        count += sum(1 for bound in row.bounds if b == bound)
        _, _, coef, rhs = _split_row(row, a_pos)
        if b * coef == rhs:
            count += 1
        if b == 0:
            count += sum(1 for i in range(j + 1, m + 1) if i not in pq)
    return count


# ---------------------------------------------------------------------------
# Membership


def member_of(inst: MixingInstance, facet: LinearCut, family: str) -> Membership:
    """Does some parameterization of `family` reproduce this facet exactly?

    The facet must be canonical with z coefficient 1 (vertical facets have
    no family membership).  Memberships are inclusive along the family
    hierarchy; on non-uniform instances the cardinality-only families are
    simply empty.  The witness is the highest family on the chain from
    `family` down whose own check holds.
    """
    if family not in FAMILIES:
        raise ValidationError(f"unknown family {family!r}")
    facet = canonicalize(facet)
    if facet.z_coef != 1:
        raise ValidationError("family membership is defined for z_coef = 1 cuts only")
    parsed = parse_mixing_form(inst, facet)
    degenerate = _degenerate(inst, facet, parsed)
    if degenerate is not None:
        return Membership(degenerate, "degenerate" if degenerate else None)
    table = _family_table(inst)
    name: Optional[str] = family
    while name is not None:
        check, name = table[name]
        found = check(inst, parsed) if check is not None else None
        if found:
            return found
    return Membership(False)


def _memberships(
    inst: MixingInstance, facet: LinearCut, names: Sequence[str] = FAMILIES
) -> dict[str, bool]:
    """Whether `member_of` holds for each of `names`, without its witnesses.

    Each chain is walked up from its bottom and stops at the first family
    whose own check holds; the verdicts are shared across `names`, so a
    costly check runs only when no family below it holds.
    """
    parsed = parse_mixing_form(inst, facet)
    degenerate = _degenerate(inst, facet, parsed)
    if degenerate is not None:
        return {name: degenerate for name in names}
    table = _family_table(inst)
    held: dict[str, bool] = {}

    def holds(name: str) -> bool:
        if name not in held:
            check, parent = table[name]
            held[name] = (parent is not None and holds(parent)) or (
                check is not None and bool(check(inst, parsed))
            )
        return held[name]

    return {name: holds(name) for name in names}


def _degenerate(
    inst: MixingInstance, facet: LinearCut, parsed: ParsedMixingForm
) -> Optional[bool]:
    """For a cut with no x terms, whether it is the degenerate facet; else None."""
    if parsed.p_coefs or parsed.q_phis:
        return None
    return facet.rhs == inst.h_at(inst.p + 1)


_Check = Callable[[MixingInstance, ParsedMixingForm], Membership]


def _family_table(inst: MixingInstance) -> dict[str, tuple[Optional[_Check], Optional[str]]]:
    """Each family's own check and its parent in the inclusion chain.

    A family holds when its own check or its parent holds.  A None check
    never holds: with a vacuous knapsack (epsilon = 1) the shifted families'
    multiplier construction is undefined, so they collapse onto the chain
    below them.  On non-uniform instances the cardinality-only families are
    empty, and zhao and blp_generic both hang off strengthened_star.
    """
    shifted = inst.epsilon != 1
    generic = _proper_blp_generic if shifted else None
    table: dict[str, tuple[Optional[_Check], Optional[str]]] = {
        "star": (_proper_star, None),
        "strengthened_star": (_proper_strengthened_star, "star"),
    }
    if inst.uniform:
        table["lifted"] = (_proper_lifted, "strengthened_star")
        table["kucukyavuz"] = (_proper_kucukyavuz, "lifted")
        table["zhao"] = (_proper_zhao, "kucukyavuz")
        table["blp_uniform"] = (_proper_blp_uniform if shifted else None, "zhao")
        table["blp_generic"] = (generic, "blp_uniform")
    else:
        table["lifted"] = table["kucukyavuz"] = table["blp_uniform"] = (None, None)
        table["zhao"] = (_proper_zhao, "strengthened_star")
        table["blp_generic"] = (generic, "strengthened_star")
    return table


def _proper_star(inst: MixingInstance, parsed: ParsedMixingForm) -> Membership:
    if parsed.q_phis or not parsed.p_coefs:
        return Membership(False)
    t = parsed.t_list
    if parsed.rhs_base != inst.h_at(t[0]):
        return Membership(False)
    if list(parsed.coefs) != _telescope(inst, t, inst.m + 1):
        return Membership(False)
    return Membership(True, "star", StarParams(t))


def _proper_strengthened_star(inst: MixingInstance, parsed: ParsedMixingForm) -> Membership:
    if parsed.q_phis or not parsed.p_coefs:
        return Membership(False)
    t = parsed.t_list
    if t[-1] > inst.p or parsed.rhs_base != inst.h_at(t[0]):
        return Membership(False)
    if list(parsed.coefs) != _telescope(inst, t, inst.p + 1):
        return Membership(False)
    return Membership(True, "strengthened_star", StarParams(t))


def _parsed_phi_map(parsed: ParsedMixingForm) -> dict[int, Fraction]:
    return dict(parsed.q_phis)


def _lift_orders(parsed: ParsedMixingForm) -> Iterator[tuple[int, ...]]:
    """The orders of q_list whose parsed lifts never decrease.

    `_lifts` is a running max, so no other order can match.  The orders are
    the product of the permutations inside each block of equal lift, blocks
    in increasing lift order: exactly those of ``permutations(q_list)`` that
    survive, in the same order, so the first match does not change.
    """
    blocks: dict[Fraction, list[int]] = {}
    for qi, phi in parsed.q_phis:
        blocks.setdefault(phi, []).append(qi)
    for parts in product(*(permutations(blocks[phi]) for phi in sorted(blocks))):
        yield tuple(chain.from_iterable(parts))


def _proper_lifted(inst: MixingInstance, parsed: ParsedMixingForm) -> Membership:
    if not parsed.q_phis or not parsed.p_coefs:
        return Membership(False)
    p = inst.p
    q = parsed.q_list  # sorted ascending by construction
    r = p - len(q)
    t = parsed.t_list
    if r < 1 or t[-1] > r or q[0] <= p:
        return Membership(False)
    if parsed.rhs_base != inst.h_at(t[0]):
        return Membership(False)
    if list(parsed.coefs) != _telescope(inst, t, r + 1):
        return Membership(False)
    ends = range(r + 2, r + len(q) + 2)
    if _lifts(inst, r + 1, q, ends, [0] * len(q)) != list(parsed.phis):
        return Membership(False)
    return Membership(True, "lifted", LiftedParams(r, t, q))


def _proper_kucukyavuz(inst: MixingInstance, parsed: ParsedMixingForm) -> Membership:
    if not parsed.q_phis or not parsed.p_coefs:
        return Membership(False)
    p = inst.p
    r = p - len(parsed.q_phis)
    t = parsed.t_list
    if r < 1 or t[-1] > r:
        return Membership(False)
    if parsed.rhs_base != inst.h_at(t[0]):
        return Membership(False)
    if list(parsed.coefs) != _telescope(inst, t, r + 1):
        return Membership(False)
    phi_of = _parsed_phi_map(parsed)
    ends = range(r + 2, r + len(parsed.q_list) + 2)
    for perm in _lift_orders(parsed):
        if any(qi < lo for qi, lo in zip(perm, ends)):
            continue
        if _lifts(inst, r + 1, perm, ends, ends) == [phi_of[qi] for qi in perm]:
            return Membership(True, "kucukyavuz", LiftedParams(r, t, perm))
    return Membership(False)


def _proper_zhao(inst: MixingInstance, parsed: ParsedMixingForm) -> Membership:
    if not parsed.q_phis or not parsed.p_coefs:
        return Membership(False)
    t = parsed.t_list
    v = len(parsed.q_phis)
    phi_of = _parsed_phi_map(parsed)
    if parsed.rhs_base != inst.h_at(t[0]):
        return Membership(False)
    for r in range(t[-1], min(inst.p, inst.theta - v) + 1):
        s, _bad = _zhao_derive_s(inst, r, parsed.q_list)
        if s is None:
            continue
        s_top = inst.p - r + 1
        if s[0] < 1 or any(a > b for a, b in zip(s, list(s[1:]) + [s_top])):
            continue
        if list(parsed.coefs) != _telescope(inst, t, r + s[0]):
            continue
        ends, cutoffs = _zhao_ends_cutoffs(r, s, s_top)
        for perm in _lift_orders(parsed):
            if any(qi <= r + s[0] or qi < lo for qi, lo in zip(perm, cutoffs)):
                continue
            if _lifts(inst, r + s[0], perm, ends, cutoffs) == [phi_of[qi] for qi in perm]:
                return Membership(
                    True, "zhao", LiftedParams(r, t, perm, s_list=s)
                )
    return Membership(False)


def _proper_blp_uniform(inst: MixingInstance, parsed: ParsedMixingForm) -> Membership:
    """Search for generating parameters with r = p - |q| and every q entry visible.

    A smaller r gives the same cut.  A generating q-sequence could also lead
    with entries whose lift works out to zero: invisible in the cut, they
    enlarge v and move the anchor A down.  Such a candidate never certifies a
    cut that the visible-only one misses.  A zero first lift needs the shift
    total h_A - h_{A+1}, and each further zero lift needs h_{A+1} = ... =
    h_{A+extra}.  Drop the zero entries instead, so that r grows by extra:
    the shift total becomes h_{A+extra} - h_{A+1} = 0, while the visible
    lifts, their cutoffs and their q bounds stay as they were.
    """
    if not parsed.q_phis or not parsed.p_coefs:
        return Membership(False)
    t = parsed.t_list
    v = len(parsed.q_phis)
    r = inst.p - v
    if r < 1 or t[-1] > r or parsed.rhs_base != inst.h_at(t[0]):
        return Membership(False)
    anchor = r + 1
    tx = list(t) + [anchor]
    delta = [
        parsed.coefs[i] - inst.h_at(tx[i]) + inst.h_at(tx[i + 1])
        for i in range(len(t))
    ]
    if any(sum(delta[: k - 1], Fraction(0)) < 0 for k in range(2, len(t) + 2)):
        return Membership(False)
    delta_sum = sum(delta, Fraction(0))
    if delta_sum > inst.h_at(anchor) - inst.h_at(anchor + 1):
        return Membership(False)
    phi_of = _parsed_phi_map(parsed)
    ends = range(anchor + 1, anchor + v + 1)
    for perm in _lift_orders(parsed):
        if any(qi < lo for qi, lo in zip(perm, ends)):
            continue
        if _lifts(inst, anchor, perm, ends, ends, delta_sum) == [phi_of[qi] for qi in perm]:
            return Membership(True, "blp_uniform", BlpUniformParams(r, t, perm, tuple(delta)))
    return Membership(False)


def _proper_blp_generic(inst: MixingInstance, parsed: ParsedMixingForm) -> Membership:
    """Certificate search over r and phantom zero-coefficient index choices.

    A generating index set may include positions whose shifted coefficient is
    zero; they drop out of the cut but count toward |t_set|, which is what
    bounds the number of lifted terms, and they shift the per-scenario
    covering sums.  The search tries the fewest phantoms first.
    """
    if not parsed.p_coefs:
        return Membership(False)
    t_vis = parsed.t_list
    q = parsed.q_list
    phi = tuple(parsed.phis)
    v = len(q)
    l_vis = len(t_vis)
    hi = inst.p
    if q:
        hi = min(hi, q[0] - 1)
    coef_of = dict(parsed.p_coefs)
    for r in range(t_vis[-1], hi + 1):
        pool = [i for i in range(1, r + 1) if i not in coef_of]
        need = max(0, v - (inst.p - r) - l_vis)
        for extra in range(need, len(pool) + 1):
            for phantom in combinations(pool, extra):
                t = tuple(sorted(t_vis + phantom))
                if parsed.rhs_base != inst.h_at(t[0]):
                    continue
                tx = list(t) + [r + 1]
                delta = tuple(
                    coef_of.get(t[i], Fraction(0)) - inst.h_at(tx[i]) + inst.h_at(tx[i + 1])
                    for i in range(len(t))
                )
                if sum(delta, Fraction(0)) > inst.h_at(r + 1):
                    continue
                cert, _ = _certify(inst, r, t, delta, q, phi)
                if cert is not None:
                    return Membership(True, "blp_generic", cert)
    return Membership(False)
