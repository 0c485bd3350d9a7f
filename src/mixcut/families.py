"""Closed-form inequality families: generators and membership certifiers.

Seven nested families are supported, from the classic star inequalities up
to the generic aggregation family with its per-scenario certificate search.
Generators validate their parameter preconditions exactly and emit canonical
cuts; `member_of` answers whether a given hull facet can be reproduced by
some parameterization of a family, returning the witnessing parameters.

Each lifted family's closed form has one home: a `_Lifting` (anchor, ends,
cutoffs and the lower bound on each q_i), built by `_consecutive` for the
cardinality families and by `_zhao_lifting` for the s-shifted one, is read
both by the family's generator (`_lifted_cut`) and by its membership check,
whose search over q orders is `_match_lifts`.  Zhao's knapsack crossing
rule is coded once, in `_zhao_derive_s`: the conditions fix each s_i, so a
given s_list is checked by comparison with the derived one.

Generators, membership checks and certificate conditions all run on Python
ints: each instance's integer view (`core._int_view`: pi and epsilon over
their common denominator D, h over its own, H), and each cut scaled by one
F, a multiple of H and of the cut's denominators (`_Form`).  A check reads
the form off a facet's primitive integer normal, the one double description
gives (`_normal_form`); `member_of` takes a cut's from `core._cut_normal`.
A generator builds it from its parameters (`_shifted_form`), tests each
shift hypothesis with the function its check calls (`_uniform_shifts`,
`_generic_shift_fits`) and returns `_Form.cut`.  Fractions appear only in
parsed parameters, returned cuts and witnesses.

The generic family's certificate search (`_search_rows`) takes, for each
scenario, the smallest feasible prefix of the lifting positions in ratio
order, up to a whole tie group; that is the first feasible A_j in subset
order.  Its choice of r and phantom indices (`_first_generic_choice`) is a
closed form too: only the first index of t_set is tested, so for each r
the first admissible pool start, with the fewest phantoms the count bound
allows, is the first hit of the subset search.  Each family's own check
returns its int search result, or None.  The verdict path (`_memberships`,
behind `bench.coverage`) only tests it; `member_of` and `gen_blp_generic`
alone turn it into parameter records, frozensets and Fractions
(`_witness`, `_certificate_values`).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate, chain, permutations, product
from typing import (
    Callable,
    Collection,
    Iterable,
    Iterator,
    NamedTuple,
    Optional,
    Sequence,
)

from .core import (
    LinearCut,
    MixingInstance,
    ValidationError,
    _int_view,
    _IntView,
    _cut_normal,
    _scale,
    as_index,
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


@dataclass(frozen=True)
class Membership:
    member: bool
    via: Optional[str] = None
    certificate: object = None

    def __bool__(self) -> bool:
        return self.member


# ---------------------------------------------------------------------------
# Shared validation helpers


def _indices(values: Iterable, what: str) -> tuple[int, ...]:
    return tuple(as_index(x, f"each {what} entry", error=FamilyParamError) for x in values)


def _check_increasing(t_set: Iterable, upper: int, what: str) -> tuple[int, ...]:
    t = _indices(t_set, what)
    if not t:
        raise FamilyParamError(f"{what} must be nonempty")
    if any(a >= b for a, b in zip(t, t[1:])):
        raise FamilyParamError(f"{what} must be strictly increasing")
    if t[0] < 1 or t[-1] > upper:
        raise FamilyParamError(f"{what} must lie within 1..{upper}")
    return t


def _lifted_indices(
    inst: MixingInstance, params: LiftedParams | BlpUniformParams | BlpGenericParams
) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(r, t_set, q_list) of the lifted and aggregation families, checked.

    r lies within 1..p, t_set increases within 1..r, and the q_list entries
    are distinct within 1..m (zhao reads pi_{q_i} before its own q bounds).
    """
    r = as_index(params.r, "r", error=FamilyParamError)
    if not 1 <= r <= inst.p:
        raise FamilyParamError("r must lie within 1..p")
    t = _check_increasing(params.t_set, r, "t_set")
    q = _indices(params.q_list, "q_list")
    if len(set(q)) != len(q) or not all(1 <= qi <= inst.m for qi in q):
        raise FamilyParamError("q_list entries must be distinct within 1..m")
    return r, t, q


def _rationals(values: Iterable, like: Sequence, what: str, of: str) -> tuple[Fraction, ...]:
    """``values`` as rationals, one per entry of ``like`` (the list named ``of``)."""
    out = tuple(rat(v) for v in values)
    if len(out) != len(like):
        raise FamilyParamError(f"{what} must match {of} in length")
    return out


def _telescope(h: Sequence, t: Sequence[int], anchor: int) -> tuple:
    """Coefficients h_{t_i} - h_{t_{i+1}} with the final index replaced by `anchor`.

    ``h`` is a form's F h, indexed by scenario with h[m + 1] = 0.
    """
    idx = list(t) + [anchor]
    return tuple(h[idx[i]] - h[idx[i + 1]] for i in range(len(t)))


def _require_uniform(inst: MixingInstance, family: str) -> None:
    if not inst.uniform:
        raise FamilyParamError(f"the {family} family requires a uniform instance")


@dataclass(frozen=True)
class _Form:
    """A mixing-form cut z + sum coef_t x_t + sum phi_q (1 - x_q) >= rhs_base, times F.

    F is a multiple of the view's H and of every denominator of the cut, so
    ``h`` (F h, indexed as in `_IntView`), ``coefs`` (on ``t``), ``phis``
    (on ``q``) and ``rhs_base`` are ints.  A form read from a facet
    (`_normal_form`) lists only its nonzero coefficients; one built from
    generator parameters (`_shifted_form`) lists t and q as given.
    """

    view: _IntView
    F: int
    h: tuple[int, ...]
    t: tuple[int, ...]
    coefs: tuple[int, ...]
    q: tuple[int, ...]
    phis: tuple[int, ...]
    rhs_base: int

    @property
    def q_phis(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.q, self.phis))

    def fractions(self, values: Iterable[int]) -> tuple[Fraction, ...]:
        """The rationals that `values` stand for (each divided by F)."""
        return tuple(Fraction(v, self.F) for v in values)

    def cut(self) -> LinearCut:
        """The canonical cut, z_coef = 1, with x coefficient -phi_q on q and
        right-hand side rhs_base - sum(phi): the generators' one exit."""
        x = [0] * self.view.m
        for i, c in zip(self.t, self.coefs):
            x[i - 1] = c
        for i, v in self.q_phis:
            x[i - 1] = -v
        rhs = Fraction(self.rhs_base - sum(self.phis), self.F)
        return LinearCut(Fraction(1), self.fractions(x), rhs)


def _normal_form(inst: MixingInstance, normal: Sequence[int]) -> _Form:
    """The mixing form of the primitive normal (a_z, a_1, ..., a_m, a_0), a_z > 0.

    The normal stands for a_z z + a.x + a_0 >= 0, whose canonical cut is
    z + (a / a_z).x >= -a_0 / a_z.  Since the normal is primitive, the lcm
    of that cut's denominators is a_z itself, so F = lcm(H, a_z).
    """
    view = _int_view(inst)
    a_z = normal[0]
    F = math.lcm(view.H, a_z)
    k = F // a_z
    x = [c * k for c in normal[1:-1]]
    t = tuple(i for i, c in enumerate(x, start=1) if c > 0)
    q = tuple(i for i, c in enumerate(x, start=1) if c < 0)
    phis = tuple(-x[i - 1] for i in q)
    return _Form(
        view, F, view.h_times(F), t, tuple(x[i - 1] for i in t), q, phis,
        sum(phis) - normal[-1] * k,
    )


def _shifted_form(
    inst: MixingInstance, t: tuple[int, ...], anchor: int,
    delta: Sequence[Fraction] = (), q: tuple[int, ...] = (), phi: Sequence[Fraction] = (),
) -> _Form:
    """The cut of checked generator parameters as a `_Form`, t and q as given.

    The t_set coefficients telescope to h_anchor, each plus its delta, and q
    carries the lifts phi; F = lcm(H, the denominators of delta and phi).
    The telescoping lower bound delta_i >= h_{t_{i+1}} - h_{t_i} (the index
    after t's last entry taken as ``anchor``) is that coefficient i is
    non-negative.
    """
    view = _int_view(inst)
    F = math.lcm(view.H, *(x.denominator for x in chain(delta, phi)))
    h = view.h_times(F)
    coefs = _telescope(h, t, anchor)
    if delta:
        coefs = tuple(c + _scale(d, F) for c, d in zip(coefs, delta))
    for i, c in enumerate(coefs, start=1):
        if c < 0:
            raise FamilyParamError(f"delta_{i} below its telescoping lower bound")
    return _Form(view, F, h, t, coefs, q, tuple(_scale(v, F) for v in phi), h[t[0]])


# ---------------------------------------------------------------------------
# Generators


class _Lifting(NamedTuple):
    """A lifted family's closed form for one parameter choice.

    The t_set coefficients telescope to h_anchor, lift i follows `_lifts`
    with ``ends[i]`` and ``cutoffs[i]``, and q_i must lie within
    ``lower[i]``..m.  Each family's generator and membership check read the
    same record.
    """

    anchor: int
    ends: Sequence[int]
    cutoffs: Sequence[int]
    lower: Sequence[int]


def _consecutive(anchor: int, v: int) -> _Lifting:
    """Ends, cutoffs and q_i lower bounds anchor + i, for i = 1..v.

    This is the lifting of the permuted cardinality family at anchor r + 1
    (v = p - r), and of the shifted one at anchor p - v + 1: its s_iota =
    p - r - v + iota make every r + s_iota + 1 equal to p - v + 1 + iota.
    """
    ends = range(anchor + 1, anchor + v + 1)
    return _Lifting(anchor, ends, ends, ends)


def _lifts(h: Sequence, lift: _Lifting, q: Sequence[int], shift=0) -> list:
    """Lift coefficients of the sequence q by the crossing recursion.

    phi_1 = h_anchor - h_{ends_1} - shift, and for i > 1
    phi_i = max(phi_{i-1}, h_anchor - h_{ends_i} - shift - sum of phi_k over
    the earlier k with q_k >= cutoffs_i).  Every lifted family is this one
    recursion; it differs only in its `_Lifting` and shift.  It is linear up
    to a running max, so a form's F h and F times the shift give F times
    the lifts.
    """
    base = h[lift.anchor] - shift
    phis: list = []
    for i, end in enumerate(lift.ends):
        cutoff = lift.cutoffs[i]
        value = base - h[end] - sum(phis[k] for k in range(i) if q[k] >= cutoff)
        phis.append(max(phis[-1], value) if phis else value)
    return phis


def _lifted_cut(form: _Form, q: tuple[int, ...], lift: _Lifting, shift: int = 0) -> LinearCut:
    """The cut of `form`, built at ``lift.anchor``, with the checked q lifted.

    ``shift`` is F times the total of delta, which discounts the lifts.
    """
    for i, (qi, lo) in enumerate(zip(q, lift.lower), start=1):
        if not lo <= qi <= form.view.m:
            raise FamilyParamError(f"q_{i} = {qi} outside its admissible range {lo}..m")
    return replace(form, q=q, phis=tuple(_lifts(form.h, lift, q, shift))).cut()


def _star_cut(inst: MixingInstance, params: StarParams, top: int) -> LinearCut:
    """Telescoping inequality over indices within 1..top, anchored at h_{top+1}."""
    t = _check_increasing(params.t_set, top, "t_set")
    return _shifted_form(inst, t, top + 1).cut()


def gen_star(inst: MixingInstance, params: StarParams) -> LinearCut:
    """Telescoping inequality over an increasing index set, anchored at 0.

    Valid for the knapsack-free mixing relaxation, hence for the instance.
    """
    return _star_cut(inst, params, inst.m)  # h_{m+1} = 0 anchor


def gen_strengthened_star(inst: MixingInstance, params: StarParams) -> LinearCut:
    """Telescoping inequality over indices within 1..p, anchored at h_{p+1}."""
    return _star_cut(inst, params, inst.p)


def gen_luedtke_lifted(inst: MixingInstance, params: LiftedParams) -> LinearCut:
    """Lifted telescoping inequality for the cardinality case, sorted lifting set.

    This is `gen_kucukyavuz` on an increasing q_list within p+1..m: every
    earlier q_k >= p + 1 reaches every cutoff r + i + 1 <= p + 1, so every
    earlier lift counts, as the sorted lifting has it.
    """
    _require_uniform(inst, "lifted")
    q = _indices(params.q_list, "q_list")
    if any(a >= b for a, b in zip(q, q[1:])) or (q and q[0] <= inst.p):
        raise FamilyParamError("q_list must be strictly increasing within p+1..m")
    return gen_kucukyavuz(inst, params)


def gen_kucukyavuz(inst: MixingInstance, params: LiftedParams) -> LinearCut:
    """Lifted inequality with a permuted lifting sequence, q_i >= r + i + 1."""
    _require_uniform(inst, "kucukyavuz")
    r, t, q = _lifted_indices(inst, params)
    if len(q) != inst.p - r:
        raise FamilyParamError(f"q_list must have exactly p - r = {inst.p - r} entries")
    lift = _consecutive(r + 1, len(q))
    return _lifted_cut(_shifted_form(inst, t, lift.anchor), q, lift)


def _zhao_w_tails(view: _IntView, q: Sequence[int]) -> list[int]:
    """Suffix sums of the lifting probabilities in descending-probability order, times D."""
    w = sorted(q, key=lambda i: (-view.pi[i], i))
    tails = [0] * (len(q) + 1)
    for i in range(len(q) - 1, -1, -1):
        tails[i] = tails[i + 1] + view.pi[w[i]]
    return tails


def _zhao_derive_s(view: _IntView, r: int, tails: Sequence[int]) -> tuple[int, ...]:
    """The s-sequence fixed by the knapsack crossing conditions, up to its first failure.

    For each position i the prefix mass of scenarios 1..r+s_i-1 plus the
    suffix mass ``tails[i]`` of the lifting set must not exceed epsilon, while
    including scenario r+s_i pushes it strictly over (all in D units).  The
    prefix masses increase strictly, so at most one s_i >= 1 with r + s_i <= m
    qualifies, found by bisection.  The entries before the first position
    without one are returned, so a short result fails at position len + 1.
    """
    s: list[int] = []
    for i in range(len(tails) - 1):
        room = view.eps - tails[i]
        k = bisect_right(view.prefix, room)  # first k with prefix[k] > room
        if k <= r or k > view.m:
            break
        s.append(k - r)
    return tuple(s)


def _zhao_lifting(r: int, s: Sequence[int], p: int) -> _Lifting:
    """The s-shifted lifting of a full-length s from `_zhao_derive_s`.

    Such an s is nondecreasing within 1..p-r+1: the tails decrease, so the
    room and its bisection index k_i increase; k_i > r gives s_i >= 1; and
    prefix[p+1] > epsilon (or k <= m when p = m) gives s_i <= p - r + 1.
    """
    sx = list(s) + [p - r + 1]
    anchor = r + s[0]
    ends = [r + sx[1]] + [r + sx[i] + 1 for i in range(1, len(s))]
    cutoffs = [r + min(1 + sx[i], sx[i + 1]) for i in range(len(s))]
    return _Lifting(anchor, ends, cutoffs, [max(c, anchor + 1) for c in cutoffs])


def gen_zhao(inst: MixingInstance, params: LiftedParams) -> LinearCut:
    """General-probability lifted inequality with the s-shifted anchors.

    All feasibility conditions are verified exactly; a violated knapsack
    crossing condition is reported with its failing position.
    """
    r, t, q = _lifted_indices(inst, params)
    v = len(q)
    if v < 1:
        raise FamilyParamError("q_list must be nonempty (use the star families otherwise)")
    if v > inst.theta - r:
        raise FamilyParamError(f"need |q_list| <= theta - r = {inst.theta - r}")
    view = _int_view(inst)
    s = _zhao_derive_s(view, r, _zhao_w_tails(view, q))
    given = s
    if params.s_list is not None:
        given = _indices(params.s_list, "s_list")
        if len(given) != v:
            raise FamilyParamError("s_list must match q_list in length")
    # the crossing conditions fix each s_i, so only the derived s can pass
    iota = next((i for i, (a, b) in enumerate(zip(given, s), start=1) if a != b), len(s) + 1)
    if iota <= v:
        raise FamilyParamError(f"knapsack crossing condition fails at iota={iota}")
    lift = _zhao_lifting(r, s, inst.p)
    return _lifted_cut(_shifted_form(inst, t, lift.anchor), q, lift)


def gen_blp_uniform(inst: MixingInstance, params: BlpUniformParams) -> LinearCut:
    """Aggregation family for the cardinality case: shifted coefficients.

    The delta shifts relax the telescoping coefficients; the lifting values
    follow the same crossing recursion as the permuted family at r = p - v,
    but discounted by the total shift.
    """
    _require_uniform(inst, "blp_uniform")
    if inst.epsilon == 1:
        raise FamilyParamError(
            "the shifted families need epsilon < 1 (their multiplier construction"
            " divides by 1 - epsilon); the star families cover the vacuous knapsack"
        )
    r, t, q = _lifted_indices(inst, params)
    v = len(q)
    if not 1 <= v <= inst.p - r:
        raise FamilyParamError(f"need 1 <= |q_list| <= p - r = {inst.p - r}")
    lift = _consecutive(inst.p - v + 1, v)
    form = _shifted_form(inst, t, lift.anchor, _rationals(params.delta, t, "delta", "t_set"))
    delta, fault = _uniform_shifts(form, lift.anchor)
    if fault is not None:
        raise FamilyParamError(fault)
    return _lifted_cut(form, q, lift, sum(delta))


def _uniform_shifts(form: _Form, anchor: int) -> tuple[list[int], Optional[str]]:
    """F delta (the coefficients less the telescope to h_anchor) and the
    first shift hypothesis of blp_uniform it fails, or None.

    Every prefix sum, the full one included, must be non-negative: the
    proof's scenario cases rely on it, and a negative total genuinely
    produces invalid inequalities.  The total must not exceed h_A - h_{A+1}.
    """
    h = form.h
    delta = [c - d for c, d in zip(form.coefs, _telescope(h, form.t, anchor))]
    for k, total in enumerate(accumulate(delta), start=1):
        if total < 0:
            return delta, f"partial delta sum through {k} is negative"
    if total > h[anchor] - h[anchor + 1]:
        return delta, "total delta exceeds the first anchor gap"
    return delta, None


# ---------------------------------------------------------------------------
# Generic certificate machinery


def _row_heads(form: _Form, W: Sequence[int]) -> Iterator[tuple[int, int, int]]:
    """(k, C, R) of scenario j's certificate conditions, for j = 1..m in order.

    Row j's positions are the q positions k..len(q) - 1, those with q_k > j
    (q is increasing).  Position k has P_k = F phi_k and W_k = D pi_{q_k}
    (``W``).  C is D times the covering coefficient and R is m F times its
    right-hand side, both with A_j empty; each position moved into A_j takes
    W_k off C and P_k off R.  The ratio bound phi_k / (m pi_{q_k}) is
    u P_k / W_k and the covering ratio is u R / C, with one unit
    u = D / (m F): a ratio is held as (numerator, denominator) in units of
    u, with a positive denominator, and ratios are compared by
    cross-multiplication.

    Scenario j's covering right-hand side is h_{a} - h_j - (delta_1 + ... +
    delta_{a-1}) - phi_j, where a is the first t entry not below j (r + 1
    when there is none).  The delta telescope against h_{t_1} = rhs_base, so
    this is rhs_base minus the coefficients on the t entries below j, minus
    h_j and phi_j: it reads the cut alone, whatever r and any
    zero-coefficient t entries are.  That sum and k are carried from one
    scenario to the next.
    """
    view, h, q = form.view, form.h, form.q
    P_at = dict(zip(q, form.phis))
    w_tails = list(accumulate(reversed(W), initial=0))[::-1]
    covered, i, k = form.rhs_base, 0, 0
    for j in range(1, view.m + 1):
        while i < len(form.t) and form.t[i] < j:
            covered -= form.coefs[i]
            i += 1
        while k < len(q) and q[k] <= j:
            k += 1
        yield k, view.prefix[j - 1] - view.eps + w_tails[k], covered - h[j] - P_at.get(j, 0)


def _covering_beta(
    lo: tuple[int, int], hi: Optional[tuple[int, int]], C: int, R: int
) -> Optional[tuple[int, int]]:
    """Least beta_j in the ratio window lo..hi (hi None when unbounded) with
    beta_j C >= R, or None when there is none."""
    if C > 0:
        if R * lo[1] > lo[0] * C:
            lo = (R, C)
    elif C < 0:
        if hi is None or -R * hi[1] < hi[0] * -C:
            hi = (-R, -C)
    elif R > 0:
        return None
    if hi is not None and lo[0] * hi[1] > hi[0] * lo[1]:
        return None
    return lo


#: An int certificate: per scenario j = 1..m, (A_j as q positions, b, d) with
#: beta_j = b / d in units of u (see `_row_heads`).
_IntCertificate = list[tuple[Collection[int], int, int]]


def _search_rows(
    form: _Form, W: Sequence[int]
) -> tuple[Optional[_IntCertificate], Optional[int]]:
    """Each scenario's first feasible (A_j, beta_j) in subset order, or None
    and the first infeasible j.

    Subset order is bit-mask order over the row's positions, and beta_j is
    the least multiplier of the first feasible A_j.  A feasible A_j has
    every ratio bound in it at most beta_j and every one outside it at
    least beta_j.  If it splits a group of tied ratios, their ratio is
    beta_j; taking the group's members out of A_j takes P_k = beta_j W_k off
    both sides of the covering condition, so that smaller mask is feasible
    at the same beta_j.  The first feasible A_j is therefore the smallest
    feasible ratio prefix: the first g tie groups in increasing ratio order.
    A_j empty is decided in O(1) against the least ratio above j, the other
    prefixes by one scan in ratio order.  The scan adds one position at a
    time, yet stops only after a whole tie group: a feasible prefix that
    splits a group would make the prefix before the group feasible, and the
    scan tried that one first.
    """
    P, n = form.phis, len(W)
    least: list = [None] * (n + 1)  # least ratio among positions k..n-1
    for k in reversed(range(n)):
        nxt = least[k + 1]
        least[k] = nxt if nxt and nxt[0] * W[k] <= P[k] * nxt[1] else (P[k], W[k])
    L = math.lcm(*W)  # P_k (L / W_k) orders the ratios, ties equal
    ranked = sorted(range(n), key=lambda k: P[k] * (L // W[k]))
    found: _IntCertificate = []
    for j, (k, C, R) in enumerate(_row_heads(form, W), start=1):
        a_pos, beta = (), _covering_beta((0, 1), least[k], C, R)
        row = [i for i in ranked if i >= k] if beta is None else ()
        for g, i in enumerate(row, start=1):
            C -= W[i]
            R -= P[i]
            hi = (P[row[g]], W[row[g]]) if g < len(row) else None
            beta = _covering_beta((P[i], W[i]), hi, C, R)
            if beta is not None:
                a_pos = row[:g]
                break
        if beta is None:
            return None, j
        found.append((a_pos, *beta))
    return found, None


def _in_units(form: _Form, beta: Fraction) -> tuple[int, int]:
    """beta as a ratio in units of u = D / (m F)."""
    return beta.numerator * form.view.m * form.F, beta.denominator * form.view.D


def _certify(
    form: _Form,
    a_posed: Optional[Sequence[frozenset[int]]] = None,
    beta: Optional[Sequence[Fraction]] = None,
) -> tuple[Optional[_IntCertificate], Optional[int]]:
    """The int certificate for j = 1..m, or None and the first infeasible scenario.

    Without ``a_posed`` each scenario's (A_j, beta_j) is searched
    (`_search_rows`); with it, the given beta_j is verified, or the least
    feasible one is taken.
    """
    P, W = form.phis, tuple(form.view.pi[qk] for qk in form.q)
    if a_posed is None:
        return _search_rows(form, W)
    found: _IntCertificate = []
    for j, (k, C, R) in enumerate(_row_heads(form, W), start=1):
        a_pos, lo, hi = a_posed[j - 1], (0, 1), None
        for i in range(k, len(P)):
            if i in a_pos:
                if P[i] * lo[1] > lo[0] * W[i]:
                    lo = (P[i], W[i])
                C -= W[i]
                R -= P[i]
            elif hi is None or P[i] * hi[1] < hi[0] * W[i]:
                hi = (P[i], W[i])
        if beta is None:
            beta_j = _covering_beta(lo, hi, C, R)
        else:
            beta_j = b, d = _in_units(form, beta[j - 1])
            if not (lo[0] * d <= b * lo[1] and (hi is None or b * hi[1] <= hi[0] * d)
                    and b * C >= R * d):
                beta_j = None
        if beta_j is None:
            return None, j
        found.append((a_pos, *beta_j))
    return found, None


def _certificate_values(
    form: _Form, found: _IntCertificate
) -> tuple[tuple[frozenset[int], ...], tuple[Fraction, ...]]:
    """An int certificate's A_j as sets of q values and its beta_j as rationals."""
    D, mF = form.view.D, form.view.m * form.F
    return (
        tuple(frozenset(form.q[k] for k in a_pos) for a_pos, _, _ in found),
        tuple(Fraction(b * D, d * mF) for _, b, d in found),
    )


def _generic_shift_fits(form: _Form) -> bool:
    """Whether the total of delta is at most h_{r+1}: the coefficients sum to
    h_{t_1} - h_{r+1} plus that total, and rhs_base is h_{t_1}."""
    return sum(form.coefs) <= form.rhs_base


def _a_values_to_positions(
    q: Sequence[int], a_sets: Sequence[Iterable[int]]
) -> list[frozenset[int]]:
    """Each A_j as q positions; a value outside ``q_list`` is refused."""
    pos = {qi: k for k, qi in enumerate(q)}
    out = []
    for j, a in enumerate(a_sets, start=1):
        a = frozenset(a)
        if not a <= pos.keys():
            raise FamilyParamError(f"A_{j} holds values outside q_list: {sorted(a - pos.keys())}")
        out.append(frozenset(pos[x] for x in a))
    return out


def _given_certificate(
    m: int,
    q: Sequence[int],
    a_sets: Sequence[Iterable[int]],
    beta: Optional[Sequence],
) -> tuple[list[frozenset[int]], Optional[tuple[Fraction, ...]]]:
    """A supplied certificate, checked: m A_j sets within ``q_list`` and m betas >= 0.

    Returns the A_j as q positions and beta as rationals (None when not given).
    """
    if len(a_sets) != m:
        raise FamilyParamError("a_sets must have one entry per scenario")
    a_posed = _a_values_to_positions(q, a_sets)
    if beta is not None:
        beta = tuple(rat(b) for b in beta)
        if len(beta) != m or any(b < 0 for b in beta):
            raise FamilyParamError("beta must be m non-negative rationals")
    return a_posed, beta


def gen_blp_generic(inst: MixingInstance, params: BlpGenericParams) -> GenericCutResult:
    """Emit the generic aggregation cut when a multiplier certificate exists.

    With ``a_sets``/``beta`` supplied they are verified; otherwise each
    scenario is searched independently (the first feasible subset of the
    lifting positions above the scenario, smallest feasible multiplier; see
    `_search_rows`).  A ``beta`` without ``a_sets`` is refused, since each
    beta_j is checked against its A_j.  On failure the first infeasible
    scenario is reported and no cut is emitted.
    """
    if inst.epsilon == 1:
        raise FamilyParamError(
            "the aggregation family needs epsilon < 1 (its multiplier construction"
            " divides by 1 - epsilon); the star families cover the vacuous knapsack"
        )
    r, t, q = _lifted_indices(inst, params)
    delta = _rationals(params.delta, t, "delta", "t_set")
    _shifted_form(inst, t, r + 1, delta)  # refuses a delta below its bound before q_list
    if any(a >= b for a, b in zip(q, q[1:])) or (q and q[0] <= r):
        raise FamilyParamError("q_list must be strictly increasing within r+1..m")
    if len(q) > inst.p - r + len(t):
        raise FamilyParamError(f"need |q_list| <= p - r + |t_set| = {inst.p - r + len(t)}")
    phi = _rationals(params.phi, q, "phi", "q_list")
    if any(v < 0 for v in phi):
        raise FamilyParamError("phi entries must be non-negative")
    form = _shifted_form(inst, t, r + 1, delta, q, phi)
    if not _generic_shift_fits(form):
        raise FamilyParamError("total delta exceeds h_{r+1}")
    a_posed = beta = None
    if params.a_sets is not None:
        a_posed, beta = _given_certificate(inst.m, q, params.a_sets, params.beta)
    elif params.beta is not None:
        raise FamilyParamError("beta needs a_sets: a multiplier is checked against its A_j")
    found, infeasible_j = _certify(form, a_posed, beta)
    if found is None:
        return GenericCutResult(False, None, None, infeasible_j=infeasible_j)
    cert = BlpGenericParams(params.r, t, delta, q, phi, *_certificate_values(form, found))
    return GenericCutResult(True, form.cut(), cert)


# ---------------------------------------------------------------------------
# Membership


def member_of(inst: MixingInstance, facet: LinearCut, family: str) -> Membership:
    """Does some parameterization of `family` reproduce this facet exactly?

    The facet is read as its primitive normal (`core._cut_normal`), so any
    positive scale of a cut gives the same answer; its z coefficient must be
    positive (vertical facets have no family membership).  Memberships are
    inclusive along the family hierarchy; on non-uniform instances the
    cardinality-only families are simply empty.  The witness is the highest family on the chain from
    `family` down whose own check holds, built from that check's int result.
    """
    if family not in FAMILIES:
        raise ValidationError(f"unknown family {family!r}")
    normal = _cut_normal(inst, facet)
    if normal[0] <= 0:
        raise ValidationError("family membership is defined for z_coef = 1 cuts only")
    form = _normal_form(inst, normal)
    degenerate = _degenerate(inst, form)
    if degenerate is not None:
        return Membership(degenerate, "degenerate" if degenerate else None)
    table = _family_table(inst)
    name: Optional[str] = family
    while name is not None:
        check, parent = table[name]
        found = check(inst, form) if check is not None else None
        if found is not None:
            return Membership(True, name, _witness(form, name, found))
        name = parent
    return Membership(False)


def _memberships(
    inst: MixingInstance, normal: Sequence[int], names: Sequence[str] = FAMILIES
) -> dict[str, bool]:
    """Whether `member_of` holds for each of `names`, without its witnesses.

    `normal` is a nonvertical facet's primitive integer normal
    (`hull.FacetSet.normals`), which gives the `_Form` that `member_of`
    reads from the facet's canonical cut.  Each chain is walked up from its
    bottom and stops at the first family whose own check holds; the verdicts
    are shared across `names`, so a costly check runs only when no family
    below it holds.  A check's int result is only tested, never turned into
    a witness.
    """
    form = _normal_form(inst, normal)
    degenerate = _degenerate(inst, form)
    if degenerate is not None:
        return {name: degenerate for name in names}
    table = _family_table(inst)
    held: dict[str, bool] = {}

    # holds refers to itself, so each call leaves one small reference cycle.
    # A cycle-free walk was tried: with no cyclic garbage a full collection
    # almost never runs, and only a full collection empties CPython's tuple
    # free lists, so the coverage sweep's peak RSS rose by about 0.4 MB.
    def holds(name: str) -> bool:
        if name not in held:
            check, parent = table[name]
            held[name] = (parent is not None and holds(parent)) or (
                check is not None and check(inst, form) is not None
            )
        return held[name]

    return {name: holds(name) for name in names}


def _degenerate(inst: MixingInstance, form: _Form) -> Optional[bool]:
    """For a cut with no x terms, whether it is the degenerate facet; else None."""
    if form.t or form.q:
        return None
    return form.rhs_base == form.h[inst.p + 1]


#: A family's own check: its int search result when it holds, else None.
_Check = Callable[[MixingInstance, _Form], Optional[tuple]]


@lru_cache(maxsize=256)
def _family_table(inst: MixingInstance) -> dict[str, tuple[Optional[_Check], Optional[str]]]:
    """Each family's own check and its parent in the inclusion chain, built
    once per instance.

    A family holds when its own check or its parent holds.  A None check
    never holds: with a vacuous knapsack (epsilon = 1) the shifted families'
    multiplier construction is undefined, so they collapse onto the chain
    below them.  On non-uniform instances the cardinality-only families are
    empty, and zhao and blp_generic both hang off strengthened_star.
    """
    shifted = inst.epsilon != 1
    generic = _proper_blp_generic if shifted else None
    table: dict[str, tuple[Optional[_Check], Optional[str]]] = {
        "star": (partial(_proper_star, inst.m), None),
        "strengthened_star": (partial(_proper_star, inst.p), "star"),
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


def _telescopes(form: _Form, top: int, anchor: int) -> bool:
    """Whether t_set is nonempty within 1..top, starts at the base right-hand
    side (h_{t_1}) and telescopes to h_anchor."""
    t = form.t
    return (
        bool(t)
        and t[-1] <= top
        and form.rhs_base == form.h[t[0]]
        and form.coefs == _telescope(form.h, t, anchor)
    )


def _proper_star(top: int, inst: MixingInstance, form: _Form) -> Optional[tuple]:
    """The star family (top = m) or the strengthened one (top = p): (t_set,)."""
    if form.q or not _telescopes(form, top, top + 1):
        return None
    return (form.t,)


def _lift_orders(form: _Form) -> Iterator[tuple[int, ...]]:
    """The orders of q_list whose lifts never decrease.

    `_lifts` is a running max, so no other order can match.  The orders are
    the product of the permutations inside each block of equal lift, blocks
    in increasing lift order: exactly those of ``permutations(q_list)`` that
    survive, in the same order, so the first match does not change.
    """
    blocks: dict[int, list[int]] = {}
    for qi, phi in form.q_phis:
        blocks.setdefault(phi, []).append(qi)
    for parts in product(*(permutations(blocks[phi]) for phi in sorted(blocks))):
        yield tuple(chain.from_iterable(parts))


def _match_lifts(form: _Form, lift: _Lifting, shift: int = 0) -> Optional[tuple[int, ...]]:
    """The first order of q_list that ``lift`` admits and whose lifts are the form's.

    Every order from `_lift_orders` lists the lifts in increasing order.
    """
    want = sorted(form.phis)
    for perm in _lift_orders(form):
        if all(lo <= qi for qi, lo in zip(perm, lift.lower)) and (
            _lifts(form.h, lift, perm, shift) == want
        ):
            return perm
    return None


def _proper_lifted(inst: MixingInstance, form: _Form) -> Optional[tuple]:
    """(r, t_set, q_list) of the sorted lifting."""
    v = len(form.q)  # q is sorted ascending by construction
    r = inst.p - v
    if not v or r < 1 or form.q[0] <= inst.p or not _telescopes(form, r, r + 1):
        return None
    if _lifts(form.h, _consecutive(r + 1, v), form.q) != list(form.phis):
        return None
    return r, form.t, form.q


def _proper_kucukyavuz(inst: MixingInstance, form: _Form) -> Optional[tuple]:
    """(r, t_set, q_list) of the first matching lifting order."""
    v = len(form.q)
    r = inst.p - v
    if not v or r < 1 or not _telescopes(form, r, r + 1):
        return None
    perm = _match_lifts(form, _consecutive(r + 1, v))
    if perm is None:
        return None
    return r, form.t, perm


def _proper_zhao(inst: MixingInstance, form: _Form) -> Optional[tuple]:
    """(r, t_set, q_list, s_list) of the first r and lifting order that match."""
    t, v = form.t, len(form.q)
    if not v or not t or form.rhs_base != form.h[t[0]]:
        return None
    tails = _zhao_w_tails(form.view, form.q)
    for r in range(t[-1], min(inst.p, inst.theta - v) + 1):
        s = _zhao_derive_s(form.view, r, tails)
        if len(s) < v or form.coefs != _telescope(form.h, t, r + s[0]):
            continue
        perm = _match_lifts(form, _zhao_lifting(r, s, inst.p))
        if perm is not None:
            return r, t, perm, s
    return None


def _proper_blp_uniform(inst: MixingInstance, form: _Form) -> Optional[tuple]:
    """(r, t_set, q_list, F delta) with r = p - |q| and every q entry visible.

    A smaller r gives the same cut.  A generating q-sequence could also lead
    with entries whose lift works out to zero: invisible in the cut, they
    enlarge v and move the anchor A down.  Such a candidate never certifies a
    cut that the visible-only one misses.  A zero first lift needs the shift
    total h_A - h_{A+1}, and each further zero lift needs h_{A+1} = ... =
    h_{A+extra}.  Drop the zero entries instead, so that r grows by extra:
    the shift total becomes h_{A+extra} - h_{A+1} = 0, while the visible
    lifts, their cutoffs and their q bounds stay as they were.
    """
    t, v = form.t, len(form.q)
    r = inst.p - v
    if not v or not t or r < 1 or t[-1] > r or form.rhs_base != form.h[t[0]]:
        return None
    lift = _consecutive(r + 1, v)
    delta, fault = _uniform_shifts(form, lift.anchor)
    if fault is not None:
        return None
    perm = _match_lifts(form, lift, sum(delta))
    if perm is None:
        return None
    return r, t, perm, delta


def _proper_blp_generic(inst: MixingInstance, form: _Form) -> Optional[tuple]:
    """(r, t_set with phantoms, int certificate) of the certificate search.

    A generating index set may include positions whose shifted coefficient is
    zero; they drop out of the cut but count toward |t_set|, which is what
    bounds the number of lifted terms.  The search tries r upward and the
    fewest phantoms first, and takes the first choice with h_{t_1} equal to
    the base right-hand side.  Nothing else depends on the choice: the total
    shift is the coefficient sum minus h_{t_1}, plus h_{r+1}, so it stays
    within h_{r+1} for every choice or for none, and the certificate rows
    read the cut alone (`_row_heads`).  So the rows are certified once, for
    the first choice.
    """
    if not form.t or not _generic_shift_fits(form):
        return None
    choice = _first_generic_choice(inst, form)
    if choice is None:
        return None
    found, _ = _certify(form)
    if found is None:
        return None
    return *choice, found


def _first_generic_choice(
    inst: MixingInstance, form: _Form
) -> Optional[tuple[int, tuple[int, ...]]]:
    """The first (r, t_set with phantoms) in search order with h_{t_1} = rhs_base.

    The order is r upward, then the fewest phantoms (at least the `need` that
    |q| <= p - r + |t_set| asks for), then phantom sets in lexicographic
    order.  Only the smallest index of t_set, min(first phantom, t_1), is
    tested, so each r has a closed form: no phantoms if none are needed and
    h_{t_1} fits; otherwise e = max(need, 1) consecutive pool entries from
    the first entry x with h_{min(x, t_1)} = rhs_base and e - 1 entries after
    it.  More phantoms only shrink the admissible starts.
    """
    t_vis, q, h = form.t, form.q, form.h
    hi = inst.p if not q else min(inst.p, q[0] - 1)
    for r in range(t_vis[-1], hi + 1):
        need = max(0, len(q) - (inst.p - r) - len(t_vis))
        if not need and h[t_vis[0]] == form.rhs_base:
            return r, t_vis
        pool = [i for i in range(1, r + 1) if i not in t_vis]
        e = max(need, 1)
        starts = (at for at in range(len(pool) - e + 1)
                  if h[min(pool[at], t_vis[0])] == form.rhs_base)
        at = next(starts, None)
        if at is not None:
            return r, tuple(sorted(t_vis + tuple(pool[at:at + e])))
    return None


def _witness(form: _Form, name: str, found: tuple) -> object:
    """The parameters record of family `name` from its own check's int result."""
    if name == "blp_uniform":
        return BlpUniformParams(*found[:3], form.fractions(found[3]))
    if name != "blp_generic":
        return (StarParams if name.endswith("star") else LiftedParams)(*found)
    r, t, certificate = found
    coef_of = dict(zip(form.t, form.coefs))
    delta = [coef_of.get(i, 0) - c for i, c in zip(t, _telescope(form.h, t, r + 1))]
    return BlpGenericParams(
        r, t, form.fractions(delta), form.q, form.fractions(form.phis),
        *_certificate_values(form, certificate),
    )
