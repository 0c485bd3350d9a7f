"""Fraction oracle for the family generators.

`families` builds every generated cut on ints over one F (`families._Form`,
built by `families._shifted_form`) and states each shift hypothesis once,
on that form, for its generator and its membership check alike.  This
module keeps the plain rational path the generators took before: h as
Fractions indexed by scenario (`fraction_h`), t telescoped to h_anchor plus
delta, q lifted by the crossing recursion (`families._telescope` and
`families._lifts` read any numbers), all handed to `core.mixing_form`; and
the telescoping lower bounds (`check_delta`), blp_uniform's prefix and
anchor-gap conditions and the generic total shift, each on rationals.  The
tests check that each generator gives the same cut, or the same exception
and text, as its copy here; `certificate_reference.gen_blp_generic` is the
generic family's.  It is not used by the library.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Optional, Sequence

from mixcut.core import LinearCut, MixingInstance, _int_view, mixing_form, rat
from mixcut.families import (
    BlpGenericParams,
    BlpUniformParams,
    FamilyParamError,
    LiftedParams,
    StarParams,
    _check_increasing,
    _consecutive,
    _indices,
    _Lifting,
    _lifted_indices,
    _lifts,
    _require_uniform,
    _telescope,
    _zhao_derive_s,
    _zhao_lifting,
    _zhao_w_tails,
)


def fraction_h(inst: MixingInstance) -> tuple[Fraction, ...]:
    """h indexed by scenario, with h[0] unused and h[m + 1] = 0."""
    return (Fraction(0),) + inst.h + (Fraction(0),)


def check_delta(
    inst: MixingInstance, t: tuple[int, ...], delta: Iterable, anchor: int
) -> tuple[Fraction, ...]:
    """The shifts as rationals, one per t entry, each at least its telescoping lower bound.

    delta_i >= h_{t_{i+1}} - h_{t_i}, with the index after t's last entry
    taken as ``anchor``.
    """
    delta = tuple(rat(d) for d in delta)
    if len(delta) != len(t):
        raise FamilyParamError("delta must match t_set in length")
    tx = t + (anchor,)
    for i, d in enumerate(delta):
        if d < inst.h_at(tx[i + 1]) - inst.h_at(tx[i]):
            raise FamilyParamError(f"delta_{i + 1} below its telescoping lower bound")
    return delta


def lifted_cut(
    inst: MixingInstance,
    t: tuple[int, ...],
    q: tuple[int, ...],
    lift: _Lifting,
    delta: Optional[Sequence[Fraction]] = None,
) -> LinearCut:
    """The cut of checked t and q: t telescoped to h_anchor plus delta, q
    lifted, the lifts discounted by the total of delta."""
    for i, (qi, lo) in enumerate(zip(q, lift.lower), start=1):
        if not lo <= qi <= inst.m:
            raise FamilyParamError(f"q_{i} = {qi} outside its admissible range {lo}..m")
    h = fraction_h(inst)
    coefs = _telescope(h, t, lift.anchor)
    shift = 0
    if delta is not None:
        coefs = tuple(c + d for c, d in zip(coefs, delta))
        shift = sum(delta)
    return mixing_form(inst.m, t, coefs, q, _lifts(h, lift, q, shift), inst.h_at(t[0]))


def _star_cut(inst: MixingInstance, params: StarParams, top: int) -> LinearCut:
    t = _check_increasing(params.t_set, top, "t_set")
    return lifted_cut(inst, t, (), _consecutive(top + 1, 0))


def gen_star(inst: MixingInstance, params: StarParams) -> LinearCut:
    return _star_cut(inst, params, inst.m)


def gen_strengthened_star(inst: MixingInstance, params: StarParams) -> LinearCut:
    return _star_cut(inst, params, inst.p)


def gen_luedtke_lifted(inst: MixingInstance, params: LiftedParams) -> LinearCut:
    _require_uniform(inst, "lifted")
    q = _indices(params.q_list, "q_list")
    if any(a >= b for a, b in zip(q, q[1:])) or (q and q[0] <= inst.p):
        raise FamilyParamError("q_list must be strictly increasing within p+1..m")
    return gen_kucukyavuz(inst, params)


def gen_kucukyavuz(inst: MixingInstance, params: LiftedParams) -> LinearCut:
    _require_uniform(inst, "kucukyavuz")
    r, t, q = _lifted_indices(inst, params)
    if len(q) != inst.p - r:
        raise FamilyParamError(f"q_list must have exactly p - r = {inst.p - r} entries")
    return lifted_cut(inst, t, q, _consecutive(r + 1, len(q)))


def gen_zhao(inst: MixingInstance, params: LiftedParams) -> LinearCut:
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
    iota = next((i for i, (a, b) in enumerate(zip(given, s), start=1) if a != b), len(s) + 1)
    if iota <= v:
        raise FamilyParamError(f"knapsack crossing condition fails at iota={iota}")
    return lifted_cut(inst, t, q, _zhao_lifting(r, s, inst.p))


def gen_blp_uniform(inst: MixingInstance, params: BlpUniformParams) -> LinearCut:
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
    anchor = lift.anchor
    delta = check_delta(inst, t, params.delta, anchor)
    for k, total in enumerate(accumulate(delta), start=1):
        if total < 0:
            raise FamilyParamError(f"partial delta sum through {k} is negative")
    if sum(delta) > inst.h_at(anchor) - inst.h_at(anchor + 1):
        raise FamilyParamError("total delta exceeds the first anchor gap")
    return lifted_cut(inst, t, q, lift, delta)


def generic_structure_check(
    inst: MixingInstance, params: BlpGenericParams
) -> tuple[tuple[int, ...], tuple[Fraction, ...], tuple[int, ...], tuple[Fraction, ...]]:
    """The generic family's parameters, checked: (t_set, delta, q_list, phi)."""
    if inst.epsilon == 1:
        raise FamilyParamError(
            "the aggregation family needs epsilon < 1 (its multiplier construction"
            " divides by 1 - epsilon); the star families cover the vacuous knapsack"
        )
    r, t, q = _lifted_indices(inst, params)
    delta = check_delta(inst, t, params.delta, r + 1)
    if any(a >= b for a, b in zip(q, q[1:])) or (q and q[0] <= r):
        raise FamilyParamError("q_list must be strictly increasing within r+1..m")
    if len(q) > inst.p - r + len(t):
        raise FamilyParamError(f"need |q_list| <= p - r + |t_set| = {inst.p - r + len(t)}")
    phi = tuple(rat(v) for v in params.phi)
    if len(phi) != len(q):
        raise FamilyParamError("phi must match q_list in length")
    if any(v < 0 for v in phi):
        raise FamilyParamError("phi entries must be non-negative")
    if sum(delta) > inst.h_at(r + 1):
        raise FamilyParamError("total delta exceeds h_{r+1}")
    return t, delta, q, phi


#: Each cut-returning generator of `families` by name, with its copy here.
GENERATORS = {
    "star": gen_star,
    "strengthened_star": gen_strengthened_star,
    "lifted": gen_luedtke_lifted,
    "kucukyavuz": gen_kucukyavuz,
    "zhao": gen_zhao,
    "blp_uniform": gen_blp_uniform,
}
