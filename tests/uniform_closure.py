"""Brute-force closure of the uniform shifted generator, used as a test oracle.

`uniform_closure(inst, facet)` asks whether `gen_blp_uniform` emits the
facet under any admissible parameters, by trying them all:

- every r in 1..p and every lift count v in 1..p-r;
- every t_set within 1..r that holds the facet's positive indices, with any
  of its zero-coefficient indices added (they carry a zero shifted
  coefficient);
- every ordered q_list of length v that holds the facet's negative indices,
  with any of its remaining zero-coefficient indices added (they carry a
  zero lift).

A t_set coefficient is never negative (each shift is bounded below by its
telescoping gap), and a lift is never negative, so these are all the
candidates.  Given r, v and t_set, the shifts are fixed by the facet: the
generator is affine in the shifts, so they are read off as the facet's
t_set coefficients minus those of the zero-shift cut.  The generator's own
parameter checks decide what is admissible, and its cut is compared with
the facet exactly.

The search shares no code with the membership certifier
(`families._proper_blp_uniform`): it makes no choice of r, keeps every
zero-lift q entry and prunes no q order, so it checks all three.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from typing import Optional

from mixcut import families as fam
from mixcut.core import LinearCut, MixingInstance, canonicalize


def uniform_closure(
    inst: MixingInstance, facet: LinearCut
) -> Optional[fam.BlpUniformParams]:
    """Parameters under which `gen_blp_uniform` emits `facet`, or None."""
    facet = canonicalize(facet)
    x = facet.x_coefs
    indices = range(1, inst.m + 1)
    positive = [i for i in indices if x[i - 1] > 0]
    negative = [i for i in indices if x[i - 1] < 0]
    zero = [i for i in indices if x[i - 1] == 0]
    for r in range(1, inst.p + 1):
        if positive and positive[-1] > r:
            continue
        optional_t = [i for i in zero if i <= r]
        for size in range(len(optional_t) + 1):
            for extra_t in combinations(optional_t, size):
                t = tuple(sorted(positive + list(extra_t)))
                if not t:
                    continue
                optional_q = [i for i in zero if i not in extra_t]
                for v in range(max(1, len(negative)), inst.p - r + 1):
                    found = _search_q(inst, facet, r, t, negative, optional_q, v)
                    if found is not None:
                        return found
    return None


def _search_q(inst, facet, r, t, negative, optional_q, v):
    delta = None
    for extra_q in combinations(optional_q, v - len(negative)):
        for q in permutations(negative + list(extra_q)):
            try:
                if delta is None:
                    zero_shift = fam.gen_blp_uniform(
                        inst, fam.BlpUniformParams(r, t, q, (Fraction(0),) * len(t))
                    )
                    delta = tuple(
                        facet.x_coefs[i - 1] - zero_shift.x_coefs[i - 1] for i in t
                    )
                params = fam.BlpUniformParams(r, t, q, delta)
                cut = fam.gen_blp_uniform(inst, params)
            except fam.FamilyParamError:
                continue
            if canonicalize(cut) == facet:
                return params
    return None
