"""Generators and membership certifiers for the inequality families."""

import math
import random
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcut import families as fam
from mixcut import hull
from mixcut.bench import benchmark_instance
from mixcut.core import _cut_normal, build_instance, cut_is_valid, make_cut
import certificate_reference as ref
import generator_reference as gen_ref
import hulls
from hull_oracles import ParsedMixingForm
from uniform_closure import uniform_closure

SEQ_L = [20, 18, 14, 11, 6, 5, 4, 3, 2, 1]

EQ12 = make_cut(1, [6, 0, 0, 2, -3, -3, 0, 0, 0, 0], 14)


class TestStar:
    def test_telescoping(self):
        inst = build_instance(3, [20, 18, 14], None, 1)
        cut = fam.gen_star(inst, fam.StarParams((1, 2, 3)))
        assert cut == make_cut(1, [2, 4, 14], 20)

    def test_single_element(self, ex21):
        cut = fam.gen_star(ex21, fam.StarParams((1,)))
        assert cut == make_cut(1, [20] + [0] * 9, 20)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_coefficients_sum_to_rhs(self, data, ex21):
        t = tuple(sorted(data.draw(
            st.lists(st.integers(1, 10), unique=True, min_size=1, max_size=5))))
        cut = fam.gen_star(ex21, fam.StarParams(t))
        assert sum(cut.x_coefs, Fraction(0)) == cut.rhs

    def test_star_cuts_valid_even_with_knapsack(self, ex21):
        for t in [(1,), (1, 2), (2, 5, 9), (1, 4, 7, 10)]:
            assert cut_is_valid(ex21, fam.gen_star(ex21, fam.StarParams(t)))


class TestStrengthenedStar:
    def test_worked_example(self):
        inst = benchmark_instance("L", 5, 3)
        cut = fam.gen_strengthened_star(inst, fam.StarParams((1, 2, 3)))
        assert cut == make_cut(1, [2, 4, 3, 0, 0], 20)

    def test_last_index(self):
        inst = benchmark_instance("L", 5, 3)
        cut = fam.gen_strengthened_star(inst, fam.StarParams((3,)))
        assert cut == make_cut(1, [0, 0, 3, 0, 0], 14)

    def test_index_beyond_p_rejected(self):
        inst = benchmark_instance("L", 5, 3)
        with pytest.raises(fam.FamilyParamError):
            fam.gen_strengthened_star(inst, fam.StarParams((1, 4)))

    def test_all_generated_cuts_valid(self):
        inst = benchmark_instance("K", 6, 4)
        for size in (1, 2, 3):
            for t in combinations(range(1, inst.p + 1), size):
                assert cut_is_valid(inst, fam.gen_strengthened_star(inst, fam.StarParams(t)))


class TestLifted:
    def test_worked_example(self):
        inst = benchmark_instance("L", 5, 3)
        cut = fam.gen_luedtke_lifted(inst, fam.LiftedParams(2, (1, 2), (4,)))
        assert cut == make_cut(1, [2, 4, 0, -3, 0], 17)

    def test_empty_lifting_reduces_to_strengthened_star(self):
        inst = benchmark_instance("L", 5, 3)
        lifted = fam.gen_luedtke_lifted(inst, fam.LiftedParams(3, (1, 3), ()))
        assert lifted == fam.gen_strengthened_star(inst, fam.StarParams((1, 3)))

    def test_requires_uniform(self, ex42):
        with pytest.raises(fam.FamilyParamError):
            fam.gen_luedtke_lifted(ex42, fam.LiftedParams(2, (1,), (5, 6)))

    def test_outputs_valid(self):
        inst = benchmark_instance("L", 6, 4)
        for r in (2, 3):
            for q in combinations(range(inst.p + 1, 7), inst.p - r):
                cut = fam.gen_luedtke_lifted(inst, fam.LiftedParams(r, (1, r), q))
                assert cut_is_valid(inst, cut)


class TestKucukyavuz:
    def test_admissible_arrangement(self):
        inst = benchmark_instance("L", 6, 4)
        cut = fam.gen_kucukyavuz(inst, fam.LiftedParams(2, (1, 2), (4, 5)))
        assert cut == make_cut(1, [2, 4, 0, -3, -8, 0], 9)
        assert cut_is_valid(inst, cut)

    def test_position_bound_enforced(self):
        inst = benchmark_instance("L", 6, 4)
        with pytest.raises(fam.FamilyParamError):
            fam.gen_kucukyavuz(inst, fam.LiftedParams(2, (1, 2), (5, 4)))
        # the lifts of that order give an invalid cut, which the membership
        # checks refuse by the same bound
        cut = make_cut(1, [2, 4, 0, -5, -3, 0], 12)
        assert not cut_is_valid(inst, cut)
        assert not fam.member_of(inst, cut, "blp_uniform")

    def test_agrees_with_lifted_on_shared_domain(self):
        inst = benchmark_instance("L", 7, 5)
        for r in (3, 4):
            for q in combinations(range(inst.p + 1, 8), inst.p - r):
                a = fam.gen_luedtke_lifted(inst, fam.LiftedParams(r, (1,), q))
                b = fam.gen_kucukyavuz(inst, fam.LiftedParams(r, (1,), q))
                assert a == b

    def test_permuted_outputs_valid(self):
        inst = benchmark_instance("K", 7, 5)
        for q in [(4, 6, 5), (4, 5, 7), (5, 4, 6), (3, 5, 6)]:
            params = fam.LiftedParams(2, (1, 2), q)
            if any(qi < 2 + i + 2 for i, qi in enumerate(q)):
                with pytest.raises(fam.FamilyParamError):
                    fam.gen_kucukyavuz(inst, params)
            else:
                assert cut_is_valid(inst, fam.gen_kucukyavuz(inst, params))


class TestZhao:
    def test_worked_general_probability_cut(self, ex42):
        cut = fam.gen_zhao(ex42, fam.LiftedParams(1, (1,), (4, 7, 8)))
        assert cut == make_cut(1, [2, 0, 0, -4, 0, 0, -4, -8, 0, 0], 24)
        assert cut_is_valid(ex42, cut)

    def test_explicit_s_sequence_accepted(self, ex42):
        cut = fam.gen_zhao(ex42, fam.LiftedParams(1, (1,), (4, 7, 8), s_list=(1, 2, 3)))
        assert cut == make_cut(1, [2, 0, 0, -4, 0, 0, -4, -8, 0, 0], 24)

    # the crossing conditions fix s = (1, 2, 3) here; iota is the first entry off it
    @pytest.mark.parametrize("s_list,iota", [((3, 3, 3), 1), ((1, 3, 3), 2), ((1, 2, 4), 3)])
    def test_crossing_violation_reports_position(self, ex42, s_list, iota):
        with pytest.raises(fam.FamilyParamError, match=f"iota={iota}"):
            fam.gen_zhao(ex42, fam.LiftedParams(1, (1,), (4, 7, 8), s_list=s_list))

    def test_uniform_matches_kucukyavuz(self):
        inst = benchmark_instance("L", 7, 4)
        for r in (1, 2):
            for q in combinations(range(r + 2, 8), inst.p - r):
                want = fam.gen_kucukyavuz(inst, fam.LiftedParams(r, (1,), q))
                got = fam.gen_zhao(inst, fam.LiftedParams(r, (1,), q))
                assert got == want

    def test_outputs_valid_general_probability(self, ex42):
        for r in (1, 2):
            for q in [(4, 7), (5, 6), (4, 5, 6), (6, 7, 8)]:
                try:
                    cut = fam.gen_zhao(ex42, fam.LiftedParams(r, (r,), q))
                except fam.FamilyParamError:
                    continue
                assert cut_is_valid(ex42, cut)


class TestBlpUniform:
    def test_worked_example(self, ex21):
        params = fam.BlpUniformParams(1, (1,), (6, 8, 7), (Fraction(1),))
        cut = fam.gen_blp_uniform(ex21, params)
        assert cut == make_cut(1, [3, 0, 0, 0, 0, -3, -5, -3, 0, 0], 9)

    def test_zero_shift_reduces_to_zhao(self):
        inst = benchmark_instance("L", 6, 4)
        params = fam.BlpUniformParams(2, (1, 2), (4, 5), (Fraction(0), Fraction(0)))
        assert fam.gen_blp_uniform(inst, params) == fam.gen_zhao(
            inst, fam.LiftedParams(2, (1, 2), (4, 5))
        )

    def test_shift_constraints_enforced(self, ex21):
        with pytest.raises(fam.FamilyParamError):
            fam.gen_blp_uniform(ex21, fam.BlpUniformParams(1, (1,), (6,), (Fraction(50),)))
        with pytest.raises(fam.FamilyParamError):
            fam.gen_blp_uniform(
                ex21, fam.BlpUniformParams(2, (1, 2), (6,), (Fraction(-1), Fraction(1)))
            )

    def test_outputs_valid_and_facet_checkable(self, ex21):
        params = fam.BlpUniformParams(1, (1,), (6, 8, 7), (Fraction(1),))
        cut = fam.gen_blp_uniform(ex21, params)
        assert cut_is_valid(ex21, cut)
        assert hull.is_facet(ex21, cut)

    def test_zero_lift_leading_entry_certified_without_it(self):
        # the shift total equals h_2 - h_3, so the lift of q_1 = 3 is zero and
        # the cut shows only q = 4; dropping the zero entry raises r to 2 and
        # brings the shift total to 0, which is what the certifier finds
        inst = build_instance(7, [20, 18, 14, 11, 11, 6, 4], None, Fraction(3, 7))
        assert inst.p == 3
        cut = fam.gen_blp_uniform(
            inst, fam.BlpUniformParams(1, (1,), (3, 4), (Fraction(4),))
        )
        assert cut == make_cut(1, [6, 0, 0, -3, 0, 0, 0], 17)
        assert hull.is_facet(inst, cut)
        result = fam.member_of(inst, cut, "blp_uniform")
        assert result.via == "blp_uniform"
        assert result.certificate == fam.BlpUniformParams(2, (1,), (4,), (Fraction(0),))
        assert fam.gen_blp_uniform(inst, result.certificate) == cut


class TestIndexParams:
    """r, t_set, q_list and s_list are ints: a float or a bool is refused, not
    truncated or left to fail on indexing."""

    CASES = {
        "star_float_t": ("gen_star", fam.StarParams((1.7,))),
        "zhao_float_s": ("gen_zhao", fam.LiftedParams(1, (1,), (4, 7, 8), s_list=(1.9, 2, 3))),
        "kucukyavuz_float_r": ("gen_kucukyavuz", fam.LiftedParams(2.0, (1, 2), (4, 5))),
        "kucukyavuz_float_q": ("gen_kucukyavuz", fam.LiftedParams(2, (1, 2), (4.0, 5))),
        "blp_generic_float_r": ("gen_blp_generic", fam.BlpGenericParams(2.5, (1, 2), (0, 0))),
        "zhao_bool_r": ("gen_zhao", fam.LiftedParams(True, (1,), (4, 7, 8))),
        "lifted_bool_t": ("gen_luedtke_lifted", fam.LiftedParams(2, (True, 2), (5, 6))),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_non_int_index_refused(self, case, ex42):
        name, params = self.CASES[case]
        inst = ex42 if name == "gen_zhao" else benchmark_instance("L", 6, 4)
        with pytest.raises(fam.FamilyParamError, match="must be an int"):
            getattr(fam, name)(inst, params)


class TestUniformClosureOracle:
    """The brute-force oracle of acceptance criteria 1-3 is not vacuous."""

    def test_regenerates_worked_example(self, ex21):
        cut = fam.gen_blp_uniform(
            ex21, fam.BlpUniformParams(1, (1,), (6, 8, 7), (Fraction(1),))
        )
        params = uniform_closure(ex21, cut)
        assert params is not None
        assert fam.gen_blp_uniform(ex21, params) == cut

    def test_rejects_generic_only_facet(self, ex21):
        assert uniform_closure(ex21, EQ12) is None

    def test_facet_beyond_zhao_and_its_perturbation(self):
        inst = benchmark_instance("L", 6, 4)
        facet = make_cut(1, [3, 0, 0, -3, -8, -3], 6)
        assert hull.is_facet(inst, facet)
        assert not fam.member_of(inst, facet, "zhao")
        assert fam.member_of(inst, facet, "blp_uniform")
        assert uniform_closure(inst, facet) is not None
        assert uniform_closure(inst, make_cut(1, [3, 0, 0, -3, -7, -3], 6)) is None


class TestBlpGeneric:
    def test_worked_certificate_beta(self, ex21):
        params = fam.BlpGenericParams(
            r=4,
            t_set=(1, 4),
            delta=(Fraction(-3), Fraction(-3)),
            q_list=(5, 6),
            phi=(Fraction(3), Fraction(3)),
            a_sets=(frozenset(), frozenset(), frozenset(), frozenset(),
                    frozenset({5}), frozenset({5, 6}), frozenset(), frozenset(),
                    frozenset(), frozenset()),
        )
        result = fam.gen_blp_generic(ex21, params)
        assert result.accepted
        assert result.cut == EQ12
        assert result.certificate.beta == (
            Fraction(0), Fraction(0), Fraction(0), Fraction(3), Fraction(3),
            Fraction(4), Fraction(4), Fraction(3), Fraction(5, 2), Fraction(11, 5),
        )

    def test_searched_certificate(self, ex21):
        params = fam.BlpGenericParams(
            r=4, t_set=(1, 4), delta=(Fraction(-3), Fraction(-3)),
            q_list=(5, 6), phi=(Fraction(3), Fraction(3)),
        )
        result = fam.gen_blp_generic(ex21, params)
        assert result.accepted and result.cut == EQ12

    def test_rejection_names_first_infeasible_scenario(self, ex42):
        params = fam.BlpGenericParams(
            r=1, t_set=(1,), delta=(Fraction(0),),
            q_list=(4, 7, 8), phi=(Fraction(4), Fraction(4), Fraction(8)),
        )
        result = fam.gen_blp_generic(ex42, params)
        assert not result.accepted
        assert result.infeasible_j == 3

    def test_empty_lifting_certifies_strengthened_star(self):
        inst = benchmark_instance("L", 6, 4)
        params = fam.BlpGenericParams(
            r=inst.p, t_set=(1, 3), delta=(Fraction(0), Fraction(0))
        )
        result = fam.gen_blp_generic(inst, params)
        assert result.accepted
        assert result.cut == fam.gen_strengthened_star(inst, fam.StarParams((1, 3)))
        # scenarios up to p+1 certify with zero multipliers
        assert all(b == 0 for b in result.certificate.beta[: inst.p + 1])


class TestNecessityCount:
    def test_worked_certificate_reaches_threshold(self, ex21):
        params = fam.BlpGenericParams(
            r=4, t_set=(1, 4), delta=(Fraction(-3), Fraction(-3)),
            q_list=(5, 6), phi=(Fraction(3), Fraction(3)),
            a_sets=(frozenset(), frozenset(), frozenset(), frozenset(),
                    frozenset({5}), frozenset({5, 6}), frozenset(), frozenset(),
                    frozenset(), frozenset()),
            beta=(Fraction(0), Fraction(0), Fraction(0), Fraction(3), Fraction(3),
                  Fraction(4), Fraction(4), Fraction(3), Fraction(5, 2), Fraction(11, 5)),
        )
        assert ref.facet_necessity_count(ex21, params) >= 2 * ex21.m + 1

    def test_slack_certificate_below_threshold(self, ex21):
        params = fam.BlpGenericParams(
            r=4, t_set=(1, 4), delta=(Fraction(-3), Fraction(-3)),
            q_list=(5, 6), phi=(Fraction(3), Fraction(3)),
            a_sets=(frozenset(),) * 10,
            beta=(Fraction(0), Fraction(1), Fraction(1), Fraction(3), Fraction(3),
                  Fraction(5), Fraction(5), Fraction(4), Fraction(3), Fraction(3)),
        )
        # interior perturbation: the certificate still verifies but loses ties
        count = ref.facet_necessity_count(ex21, params)
        assert count < 2 * ex21.m + 1

    def test_count_invariant_under_q_reordering(self, ex21):
        base = dict(
            r=1, t_set=(1,), delta=(Fraction(1),),
            phi=(Fraction(3), Fraction(3), Fraction(5)),
        )
        counts = set()
        for order, phis in [((6, 8, 7), (3, 3, 5)), ((6, 7, 8), (3, 5, 3)), ((8, 7, 6), (3, 5, 3))]:
            params = fam.BlpGenericParams(
                r=1, t_set=(1,), delta=(Fraction(1),),
                q_list=tuple(sorted(order)),
                phi=tuple(Fraction(v) for q, v in sorted(zip(order, phis))),
            )
            result = fam.gen_blp_generic(ex21, params)
            assert result.accepted
            counts.add(ref.facet_necessity_count(ex21, result.certificate))
        assert len(counts) == 1

    def test_searched_certificates_verify_on_partial_cell(self):
        # K(7,5) has facets outside the generic family, so the search both
        # succeeds and fails on this cell
        inst = benchmark_instance("K", 7, 5)
        facets = hulls.facets(inst).nonvertical
        certified = 0
        for facet in facets:
            result = fam.member_of(inst, facet, "blp_generic")
            if result.via != "blp_generic":
                continue
            cert = result.certificate
            full = fam.gen_blp_generic(inst, cert)
            assert full.accepted and full.cut == facet
            given_a = fam.gen_blp_generic(inst, replace(cert, beta=None))
            assert given_a.accepted and given_a.certificate.beta == cert.beta
            ref.facet_necessity_count(inst, cert)
            certified += 1
        assert certified > 0
        assert sum(bool(fam.member_of(inst, f, "blp_generic")) for f in facets) < len(facets)

    def test_facet_can_count_below_2m_plus_1(self):
        """The count is no facet test: an L(3,1) facet with a searched certificate counts 6 < 7."""
        inst = benchmark_instance("L", 3, 1)
        facet = make_cut(1, [2, 0, 0], 20)
        assert hull.is_facet(inst, facet)
        result = fam.member_of(inst, facet, "blp_generic")
        assert result.via == "blp_generic"
        cert = result.certificate
        assert (cert.r, cert.t_set, cert.beta) == (1, (1,), (0, 0, 4))
        assert ref.facet_necessity_count(inst, cert) == 6 < 2 * inst.m + 1

    def test_uncertified_params_rejected(self, ex21):
        params = fam.BlpGenericParams(r=4, t_set=(1, 4), delta=(Fraction(-3), Fraction(-3)))
        with pytest.raises(fam.FamilyParamError):
            ref.facet_necessity_count(ex21, params)

    @staticmethod
    def _l53_certificate():
        """A searched certificate of an L(5,3) facet with a nonempty q_list."""
        inst = benchmark_instance("L", 5, 3)
        for facet in hulls.facets(inst).nonvertical:
            result = fam.member_of(inst, facet, "blp_generic")
            if result.via == "blp_generic" and result.certificate.q_list:
                return inst, result.certificate
        raise AssertionError("no L(5,3) certificate with a q_list")

    @pytest.mark.parametrize("field,length", [("a_sets", 2), ("a_sets", 6), ("beta", 2), ("beta", 6)])
    def test_certificate_lengths_checked(self, field, length):
        """Both kernels and `gen_blp_generic` refuse a certificate without m entries."""
        inst, cert = self._l53_certificate()
        ref.facet_necessity_count(inst, cert)
        entries = getattr(cert, field)
        bad = replace(cert, **{field: (entries * 2)[:length]})
        for check in (ref.facet_necessity_count, fam.gen_blp_generic, ref.gen_blp_generic):
            with pytest.raises(fam.FamilyParamError, match="one entry per scenario|m non-negative"):
                check(inst, bad)

    def test_a_values_outside_q_list_refused(self):
        inst, cert = self._l53_certificate()
        bad = replace(cert, a_sets=cert.a_sets[:1] + (frozenset({9}),) + cert.a_sets[2:])
        for check in (ref.facet_necessity_count, fam.gen_blp_generic, ref.gen_blp_generic):
            with pytest.raises(fam.FamilyParamError, match=r"A_2 holds values outside q_list: \[9\]"):
                check(inst, bad)


# (benchmark cell or h, None or (weights, epsilon numerator)): two uniform
# cells, a vacuous-knapsack cell, and two general-probability instances
# (on the second, zhao and blp_generic cover different facets, so both
# branches of that tree are exercised)
MEMBERSHIP_INSTANCES = [
    (("L", 6, 4), None),
    (("K", 7, 5), None),
    (("K", 6, 6), None),
    ((30, 24, 17, 11, 6, 2), ((1, 3, 2, 1, 4, 1), 7)),
    ((28, 21, 15, 10, 4, 2), ((1, 2, 1, 3, 2, 1), 5)),
]


def _membership_instance(data, weights):
    if weights is None:
        return benchmark_instance(*data)
    w, eps = weights
    return build_instance(
        len(data), data, [Fraction(x, sum(w)) for x in w], Fraction(eps, sum(w))
    )


class TestMembership:
    def test_worked_example_memberships(self, ex21):
        assert not fam.member_of(ex21, EQ12, "zhao")
        assert not fam.member_of(ex21, EQ12, "blp_uniform")
        cert = fam.member_of(ex21, EQ12, "blp_generic")
        assert cert
        regenerated = fam.gen_blp_generic(ex21, cert.certificate)
        assert regenerated.accepted and regenerated.cut == EQ12

    def test_shifted_example_memberships(self, ex21):
        cut = make_cut(1, [3, 0, 0, 0, 0, -3, -5, -3, 0, 0], 9)
        assert fam.member_of(ex21, cut, "blp_uniform")
        assert not fam.member_of(ex21, cut, "zhao")

    def test_general_probability_non_nesting(self, ex21, ex42):
        cut42 = fam.gen_zhao(ex42, fam.LiftedParams(1, (1,), (4, 7, 8)))
        assert fam.member_of(ex42, cut42, "zhao")
        assert not fam.member_of(ex42, cut42, "blp_generic")
        assert fam.member_of(ex21, EQ12, "blp_generic")
        assert not fam.member_of(ex21, EQ12, "zhao")

    def test_degenerate_facet_in_every_family(self):
        inst = benchmark_instance("L", 5, 3)
        degenerate = make_cut(1, [0] * 5, inst.h_at(inst.p + 1))
        for family in fam.FAMILIES:
            assert fam.member_of(inst, degenerate, family)

    def test_vertical_cut_rejected(self):
        inst = benchmark_instance("L", 5, 3)
        with pytest.raises(fam.FamilyParamError.__mro__[1]):  # ValidationError
            fam.member_of(inst, make_cut(0, [1, 0, 0, 0, 0], 0), "star")

    @pytest.mark.parametrize("data,weights", [(("L", 6, 3), None)] + MEMBERSHIP_INSTANCES)
    def test_certificate_soundness_on_hull(self, data, weights):
        """Every witness regenerates its facet; K(6,6) yields star witnesses
        and the general-probability instances zhao ones."""
        inst = _membership_instance(data, weights)
        fs = hulls.facets(inst)
        regen = {
            "star": fam.gen_star,
            "strengthened_star": fam.gen_strengthened_star,
            "lifted": fam.gen_luedtke_lifted,
            "kucukyavuz": fam.gen_kucukyavuz,
            "zhao": fam.gen_zhao,
            "blp_uniform": fam.gen_blp_uniform,
        }
        vias = set()
        for facet in fs.nonvertical:
            for family in fam.FAMILIES:
                result = fam.member_of(inst, facet, family)
                if not result or result.via == "degenerate":
                    continue
                vias.add(result.via)
                if result.via == "blp_generic":
                    assert fam.gen_blp_generic(inst, result.certificate).cut == facet
                else:
                    assert regen[result.via](inst, result.certificate) == facet
        if inst.p == inst.m:
            assert "star" in vias
        if not inst.uniform:
            assert "zhao" in vias

    def test_nesting_chain_on_facets(self):
        order = list(fam.FAMILIES)
        for example, m, p in [("L", 5, 3), ("L", 6, 4), ("K", 6, 3)]:
            inst = benchmark_instance(example, m, p)
            for facet in hulls.facets(inst).nonvertical:
                flags = [bool(fam.member_of(inst, facet, f)) for f in order]
                assert flags == sorted(flags), (example, m, p, facet)


class TestLazyMembership:
    @given(
        phis=st.lists(st.integers(1, 3), min_size=0, max_size=6),
        gaps=st.lists(st.integers(1, 3), min_size=6, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_lift_orders_are_the_nondecreasing_permutations(self, phis, gaps):
        q = [sum(gaps[: k + 1]) for k in range(len(phis))]
        parsed = ParsedMixingForm(
            (), tuple(zip(q, (Fraction(v, 2) for v in phis))), Fraction(0), True
        )
        phi_of = dict(parsed.q_phis)
        want = [
            perm for perm in permutations(parsed.q_list)
            if all(phi_of[a] <= phi_of[b] for a, b in zip(perm, perm[1:]))
        ]
        assert list(fam._lift_orders(parsed)) == want

    @pytest.mark.parametrize("data,weights", MEMBERSHIP_INSTANCES)
    def test_walk_up_matches_walk_down(self, data, weights):
        """`_memberships` gives `member_of`'s verdicts for every subset of names.

        Each subset is asked for in chain order and reversed, so the shared
        verdicts are filled from the bottom and from the top of each chain.
        """
        inst = _membership_instance(data, weights)
        fs = hulls.facets(inst)
        for normal, facet in zip(fs.normals, fs.nonvertical):
            truth = {name: bool(fam.member_of(inst, facet, name)) for name in fam.FAMILIES}
            for size in range(len(fam.FAMILIES) + 1):
                for names in combinations(fam.FAMILIES, size):
                    for order in (names, names[::-1]):
                        got = fam._memberships(inst, normal, order)
                        assert list(got) == list(order)
                        assert got == {name: truth[name] for name in order}, (facet, order)


class TestValiditySweep:
    @pytest.mark.parametrize("example,m,p", [("L", 5, 3), ("K", 6, 4)])
    def test_generator_sweep_is_valid(self, example, m, p):
        inst = benchmark_instance(example, m, p)
        for size in (1, 2):
            for t in combinations(range(1, inst.p + 1), size):
                assert cut_is_valid(inst, fam.gen_star(inst, fam.StarParams(t)))
                assert cut_is_valid(
                    inst, fam.gen_strengthened_star(inst, fam.StarParams(t))
                )
        for r in range(1, inst.p + 1):
            for q in combinations(range(inst.p + 1, inst.m + 1), inst.p - r):
                cut = fam.gen_luedtke_lifted(inst, fam.LiftedParams(r, (r,), q))
                assert cut_is_valid(inst, cut)


def _kernel_instances():
    """Uniform cells (D = m, H = 1) and general-probability instances with
    rational h (D != m, H > 1), one with a vacuous knapsack."""
    out = [benchmark_instance(*cell) for cell in [("L", 6, 4), ("K", 7, 5), ("L", 8, 5)]]
    for h, w, eps in [
        ((30, Fraction(49, 2), 17, Fraction(35, 3), 6, 2), (1, 3, 2, 1, 4, 1), 7),
        ((28, 21, Fraction(31, 2), 10, 4, Fraction(3, 2)), (1, 2, 1, 3, 2, 1), 5),
        ((40, 32, Fraction(59, 6), Fraction(14, 3), Fraction(9, 2), 3, 1), (3, 6, 4, 2, 5, 3, 4), 12),
        ((74, 36, Fraction(80, 3), 26, Fraction(33, 2), Fraction(49, 3), 11, Fraction(25, 3)),
         (3, 3, 1, 1, 2, 1, 1, 1), 8),
        ((9, 7, Fraction(5, 2), 1), (1, 2, 3, 4), 10),
    ]:
        total = sum(w)
        out.append(build_instance(
            len(h), h, [Fraction(x, total) for x in w], Fraction(eps, total)
        ))
    return out


KERNEL_INSTANCES = _kernel_instances()


@lru_cache(maxsize=None)
def _kernel_certificates():
    """(instance, blp_generic witness) for every such facet of KERNEL_INSTANCES."""
    out = []
    for inst in KERNEL_INSTANCES:
        for facet in hulls.facets(inst).nonvertical:
            cert = fam.member_of(inst, facet, "blp_generic").certificate
            if isinstance(cert, fam.BlpGenericParams):
                out.append((inst, cert))
    return out


_SMALL = st.builds(Fraction, st.integers(0, 12), st.sampled_from([1, 2, 3, 6]))


class TestIntKernel:
    """The scaled-int certificate kernel against the Fraction rows of
    `certificate_reference`: same certificate repr, same infeasible j, same
    error text."""

    @staticmethod
    def outcome(fn, inst, params):
        try:
            result = fn(inst, params)
        except fam.FamilyParamError as exc:
            return f"error: {exc}", None
        return repr(result), result

    def agree(self, inst, params):
        """`gen_blp_generic` of both kernels agree; returns the int kernel's result."""
        got, result = self.outcome(fam.gen_blp_generic, inst, params)
        assert got == self.outcome(ref.gen_blp_generic, inst, params)[0], params
        return result

    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_random_parameters(self, data):
        inst = data.draw(st.sampled_from(KERNEL_INSTANCES))
        m, p = inst.m, inst.p
        r = data.draw(st.integers(1, p))
        t = tuple(sorted(data.draw(st.sets(st.integers(1, r), min_size=1))))
        tx = t + (r + 1,)
        # each delta at or a little above its telescoping lower bound, now
        # and then below it
        offset = st.one_of(
            st.just(Fraction(0)), st.just(Fraction(0)), _SMALL, _SMALL.map(lambda v: -v - 1)
        )
        delta = tuple(
            inst.h_at(tx[i + 1]) - inst.h_at(tx[i]) + data.draw(offset) for i in range(len(t))
        )
        q = ()
        if r < m:
            q = tuple(sorted(data.draw(
                st.sets(st.integers(r + 1, m), max_size=p - r + len(t))
            )))
        # lifts as gaps of h, which certify more often, or small rationals
        gaps = st.sampled_from([inst.h_at(a) - inst.h_at(b) for a in range(1, m + 1)
                                for b in range(a + 1, m + 2)])
        phi = tuple(data.draw(gaps | _SMALL) for _ in q)
        params = fam.BlpGenericParams(r, t, delta, q, phi)
        a_sets = tuple(
            frozenset(data.draw(st.sets(st.sampled_from(q)))) if q else frozenset()
            for _ in range(m)
        )
        beta = tuple(data.draw(_SMALL) for _ in range(m))
        self.agree(inst, replace(params, a_sets=a_sets, beta=beta))
        for result in (self.agree(inst, params), self.agree(inst, replace(params, a_sets=a_sets))):
            if result is None or not result.accepted:
                continue
            cert = result.certificate
            self.agree(inst, cert)
            # one multiplier moved off its value by 1/6 either way
            j = data.draw(st.integers(0, m - 1))
            moved = abs(cert.beta[j] + data.draw(st.sampled_from([Fraction(-1, 6), Fraction(1, 6)])))
            self.agree(inst, replace(cert, beta=cert.beta[:j] + (moved,) + cert.beta[j + 1:]))

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_moved_facet_certificates(self, data):
        """Facet witnesses with one delta, phi or beta entry moved by 1/6 or 1/2:
        parameter sets on both sides of the acceptance boundary."""
        inst, cert = data.draw(st.sampled_from(_kernel_certificates()))
        step = data.draw(st.sampled_from([Fraction(1, 6), Fraction(-1, 6), Fraction(1, 2)]))

        def moved(values):
            if not values:
                return values
            j = data.draw(st.integers(0, len(values) - 1))
            return values[:j] + (max(Fraction(0), values[j] + step),) + values[j + 1:]

        field = data.draw(st.sampled_from(["delta", "phi", "beta", None]))
        if field is not None:
            cert = replace(cert, **{field: moved(getattr(cert, field))})
        self.agree(inst, cert)
        self.agree(inst, replace(cert, beta=None))
        self.agree(inst, replace(cert, a_sets=None, beta=None))

    @pytest.mark.parametrize("k", range(len(KERNEL_INSTANCES)))
    def test_facet_certificates(self, k):
        """Each blp_generic witness on the hull is what the Fraction rows find,
        and they accept it with its A_j and beta."""
        inst = KERNEL_INSTANCES[k]
        for facet in hulls.facets(inst).nonvertical:
            cert = fam.member_of(inst, facet, "blp_generic").certificate
            if not isinstance(cert, fam.BlpGenericParams):
                continue
            searched = ref.gen_blp_generic(inst, replace(cert, a_sets=None, beta=None))
            assert searched.certificate == cert and searched.cut == facet
            assert repr(self.agree(inst, cert)) == repr(searched)


class TestRatioPrefixSearch:
    """The certificate search of `families._certify` (smallest feasible ratio
    prefix, `_search_rows`) against the subset-order search of
    `certificate_reference`, row by row: same A_j, same beta_j, same first
    infeasible j."""

    @staticmethod
    def reference(inst, r, t, delta, q, phi):
        """((A_j as q values, beta_j) per scenario up to the first infeasible
        one, that j or None)."""
        chosen = []
        for j, row in enumerate(ref.certificate_rows(inst, r, t, delta, q, phi), start=1):
            found = ref.search_row(row)
            if found is None:
                return chosen, j
            a_pos, beta = found
            chosen.append((frozenset(q[k] for k in a_pos), beta))
        return chosen, None

    def agree(self, inst, r, t, delta, q, phi):
        form = fam._shifted_form(inst, t, r + 1, delta, q, phi)
        found, infeasible_j = fam._certify(form)
        chosen, want_j = self.reference(inst, r, t, delta, q, phi)
        assert infeasible_j == want_j
        if found is not None:
            assert list(zip(*fam._certificate_values(form, found))) == chosen
        return chosen

    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_tied_ratios(self, data):
        """Facet witnesses of uniform and general instances with their lifts
        moved so that ratio groups tie: each phi_k keeps its value, takes one
        value v repeated, or takes c m pi_{q_k} for one c."""
        inst, cert = data.draw(st.sampled_from(_kernel_certificates()))
        v = data.draw(st.sampled_from(cert.phi)) if cert.phi else Fraction(0)
        c = data.draw(_SMALL)
        phi = tuple(
            data.draw(st.sampled_from([own, v, c * inst.m * inst.pi_at(qk)]))
            for qk, own in zip(cert.q_list, cert.phi)
        )
        self.agree(inst, cert.r, cert.t_set, cert.delta, cert.q_list, phi)

    def test_whole_tie_group(self):
        """L(7,3) with the lifts phi = (3, 3) tied: A_5 is the group {6, 7}."""
        inst = benchmark_instance("L", 7, 3)
        args = (1, (1,), (Fraction(1),), (6, 7), (Fraction(3), Fraction(3)))
        chosen = self.agree(inst, *args)
        assert [a for a, _ in chosen] == [frozenset()] * 4 + [frozenset({6, 7})] + [frozenset()] * 2
        result = fam.gen_blp_generic(inst, fam.BlpGenericParams(*args))
        assert result.certificate.a_sets[4] == frozenset({6, 7})
        assert result.certificate.beta == (0, 0, 3, 3, 5, 3, Fraction(10, 3))


#: L/K cells with m = 3..8, and the general-probability kernel instances,
#: whose h is fractional (one has a vacuous knapsack, as the cells with p = m)
GENERATOR_INSTANCES = [
    benchmark_instance(example, m, p)
    for example in "LK" for m in range(3, 9) for p in range(1, m + 1)
] + KERNEL_INSTANCES[3:]
#: those with p < m, where every family has room for its lifting
OPEN_INSTANCES = [inst for inst in GENERATOR_INSTANCES if inst.p < inst.m]


def _rarely(draw) -> bool:
    return draw(st.integers(0, 11)) == 0


@st.composite
def generator_params(draw):
    """(instance, family, parameters) near each generator's hypotheses.

    r, t_set and q_list mostly lie in the family's ranges (q_list in any
    order where that is allowed), now and then outside them.  Each delta
    sits at its telescoping lower bound or a fraction above it, or is a
    small non-negative fraction, now and then below the bound; phi entries
    are gaps of h or small fractions.  A delta or phi entry is now and then
    a string, parsable or not.  One draw in 21 is a blp_generic facet
    witness with one delta or phi entry moved.  About half the draws give a
    cut.
    """
    if draw(st.integers(0, 20)) == 0:
        inst, cert = draw(st.sampled_from(_kernel_certificates()))
        field = draw(st.sampled_from(["delta", "phi"]))
        values = list(getattr(cert, field))
        if values:
            j = draw(st.integers(0, len(values) - 1))
            values[j] = max(Fraction(0), values[j] + draw(st.sampled_from(
                [Fraction(1, 6), Fraction(-1, 6), Fraction(1, 7)])))
        return inst, "blp_generic", replace(cert, a_sets=None, beta=None, **{field: tuple(values)})
    family = draw(st.sampled_from(fam.FAMILIES))
    inst = draw(st.sampled_from(GENERATOR_INSTANCES if _rarely(draw) else OPEN_INSTANCES))
    m, p = inst.m, inst.p
    r_hi = p - 1 if family == "blp_uniform" and p > 1 else p  # blp_uniform needs r < p
    r = draw(st.sampled_from([0, p + 1]) if _rarely(draw) else st.integers(1, r_hi))
    top = {"star": m, "strengthened_star": p}.get(family, r)
    t = tuple(sorted(draw(st.sets(st.integers(1, max(top, 1)), min_size=1))))
    if _rarely(draw):
        t = tuple(draw(st.lists(st.integers(0, m + 1), min_size=1, max_size=3)))
    if family.endswith("star"):
        return inst, family, fam.StarParams(t)
    v = {
        "lifted": p - r,
        "kucukyavuz": p - r,
        "zhao": draw(st.integers(1, max(1, inst.theta - r))),
        "blp_uniform": draw(st.integers(1, max(1, p - r))),
        "blp_generic": draw(st.integers(0, max(0, p - r + len(t)))),
    }[family] + (draw(st.sampled_from([-1, 1])) if _rarely(draw) else 0)
    lo = {"lifted": p + 1, "kucukyavuz": r + 2, "blp_uniform": p - v + 2}.get(family, r + 1)
    q = tuple(draw(st.permutations(range(min(lo, m), m + 1)))[:max(v, 0)])
    if family in ("lifted", "blp_generic") and not _rarely(draw):
        q = tuple(sorted(q))
    if family in ("lifted", "kucukyavuz", "zhao"):
        s_list = draw(st.lists(st.integers(1, 3), min_size=len(q), max_size=len(q)))
        return inst, family, fam.LiftedParams(r, t, q, tuple(s_list) if _rarely(draw) else None)
    h = lambda i: inst.h_at(i) if 1 <= i <= m + 1 else Fraction(0)
    anchor = r + 1 if family == "blp_generic" else p - len(q) + 1
    tx = t + (anchor,)
    delta = [
        draw(st.sampled_from([h(tx[i + 1]) - h(tx[i]), Fraction(0), Fraction(0)]))
        + draw(st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(5, 4)]))
        - (Fraction(1, 5) if _rarely(draw) else 0)
        for i in range(len(t))
    ]
    if _rarely(draw):
        delta = delta[:-1] if draw(st.booleans()) else delta + [Fraction(1, 3)]
    gaps = st.sampled_from([h(a) - h(b) for a in range(1, m + 1) for b in range(a + 1, m + 2)])
    phi = [draw(gaps | _SMALL | _SMALL.map(lambda v: v / 7)) for _ in q]
    for values in (delta, phi):
        if values and _rarely(draw):
            values[-1] = draw(st.sampled_from([str(values[-1]), "1/0", "-2/3"]))
    if family == "blp_uniform":
        return inst, family, fam.BlpUniformParams(r, t, q, tuple(delta))
    return inst, family, fam.BlpGenericParams(r, t, tuple(delta), q, tuple(phi))


class TestGeneratorReference:
    """Each generator, on the ints of `families._Form`, against its Fraction
    copy in `generator_reference` (blp_generic: `certificate_reference`):
    the same cut repr, or the same exception type and text."""

    REFERENCE = {**gen_ref.GENERATORS, "blp_generic": ref.gen_blp_generic}
    GENERATORS = {
        "star": fam.gen_star,
        "strengthened_star": fam.gen_strengthened_star,
        "lifted": fam.gen_luedtke_lifted,
        "kucukyavuz": fam.gen_kucukyavuz,
        "zhao": fam.gen_zhao,
        "blp_uniform": fam.gen_blp_uniform,
        "blp_generic": fam.gen_blp_generic,
    }

    @staticmethod
    def outcome(fn, inst, params):
        try:
            return repr(fn(inst, params))
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"

    @given(generator_params())
    @settings(max_examples=1500, deadline=None)
    def test_random_parameters(self, drawn):
        inst, family, params = drawn
        assert self.outcome(self.GENERATORS[family], inst, params) == self.outcome(
            self.REFERENCE[family], inst, params), (family, params)


def _general_draw(s):
    """General-probability draw s: m = 7 + s mod 3, h distinct in 1..100, pi
    from integer weights 1..6 redrawn until every pi <= epsilon = 2/5."""
    rng = random.Random(f"general:{s}")
    m = 7 + s % 3
    h = sorted(rng.sample(range(1, 101), m), reverse=True)
    while True:
        weights = [rng.randint(1, 6) for _ in range(m)]
        if 5 * max(weights) <= 2 * sum(weights):
            break
    total = sum(weights)
    return build_instance(m, h, [Fraction(w, total) for w in weights], Fraction(2, 5))


class TestGenericChoice:
    """The closed form of `families._first_generic_choice` against the
    subset-order search of `certificate_reference`, on every nonvertical
    facet with a positive x coefficient."""

    INSTANCES = {f"{example}({m},{p})": (example, m, p)
                 for example in "LK" for m in range(1, 9) for p in range(1, m + 1)}
    INSTANCES.update({f"general:{s}": s for s in range(12)})

    @pytest.mark.parametrize("name", INSTANCES)
    def test_matches_search(self, name):
        key = self.INSTANCES[name]
        inst = benchmark_instance(*key) if isinstance(key, tuple) else _general_draw(key)
        for facet in hulls.facets(inst).nonvertical:
            form = fam._normal_form(inst, _cut_normal(inst, facet))
            if form.t:
                assert fam._first_generic_choice(inst, form) == ref.first_generic_choice(
                    inst, form), facet

    def test_phantom_choice(self):
        """L(7,4): z + 3x_1 + 2x_4 - 3(x_5 + x_6 + x_7) >= 11 needs one phantom,
        the first pool entry 2."""
        inst = benchmark_instance("L", 7, 4)
        cut = make_cut(1, [3, 0, 0, 2, -3, -3, -3], 11)
        form = fam._normal_form(inst, _cut_normal(inst, cut))
        assert fam._first_generic_choice(inst, form) == (4, (1, 2, 4))
        assert ref.first_generic_choice(inst, form) == (4, (1, 2, 4))


def _fraction_form(inst, cut):
    """Reference `_Form` of a canonical cut read from its Fractions: F is the
    lcm of H and every denominator of the cut."""
    view = fam._int_view(inst)
    ratios = [c.as_integer_ratio() for c in cut.x_coefs]
    F = math.lcm(view.H, cut.rhs.denominator, *(d for _, d in ratios))
    x = [n * (F // d) for n, d in ratios]
    t = tuple(i for i, c in enumerate(x, start=1) if c > 0)
    q = tuple(i for i, c in enumerate(x, start=1) if c < 0)
    phis = tuple(-x[i - 1] for i in q)
    return fam._Form(view, F, view.h_times(F), t, tuple(x[i - 1] for i in t), q, phis,
                     cut.rhs.numerator * (F // cut.rhs.denominator) + sum(phis))


class TestNormalRoute:
    """Coverage reads each facet from DD's primitive normal; a cut reads the
    same `_Form`, and `_memberships` on the normal gives `member_of`'s
    verdicts on the cut."""

    INSTANCES = TestGenericChoice.INSTANCES

    @pytest.mark.parametrize("name", INSTANCES)
    def test_normal_and_cut_agree(self, name):
        key = self.INSTANCES[name]
        inst = benchmark_instance(*key) if isinstance(key, tuple) else _general_draw(key)
        fs = hulls.facets(inst)
        assert len(fs.normals) == len(fs.nonvertical)
        for normal, cut in zip(fs.normals, fs.nonvertical):
            form = fam._normal_form(inst, normal)
            assert form == fam._normal_form(inst, _cut_normal(inst, cut)) == _fraction_form(inst, cut), cut

    @pytest.mark.parametrize("den", [2, 4, 6])
    def test_fractional_h(self, den):
        """L(6,4) with h over den: H = den shares factors with the normals' z
        entries, so F = lcm(H, a_z) is not H a_z."""
        inst = build_instance(6, [Fraction(v, den) for v in SEQ_L[:6]], None, Fraction(4, 6))
        fs = hulls.facets(inst)
        for normal, cut in zip(fs.normals, fs.nonvertical):
            assert fam._normal_form(inst, normal) == _fraction_form(inst, cut), cut
            truth = {name: bool(fam.member_of(inst, cut, name)) for name in fam.FAMILIES}
            assert fam._memberships(inst, normal) == truth, cut


class TestWitnesses:
    """Witnesses are built from the checks' int results only in `member_of`."""

    CELLS = [(example, m, p) for example in "LK" for m in range(1, 8) for p in range(1, m + 1)]

    @pytest.mark.parametrize("example,m,p", CELLS)
    def test_generic_witness_regenerates_facet(self, example, m, p):
        """Every blp_generic witness on the cell regenerates its facet, with
        the same certificate; `_memberships` gives `member_of`'s verdicts."""
        inst = benchmark_instance(example, m, p)
        fs = hulls.facets(inst)
        for normal, facet in zip(fs.normals, fs.nonvertical):
            found = fam.member_of(inst, facet, "blp_generic")
            if found.via == "blp_generic":
                result = fam.gen_blp_generic(inst, found.certificate)
                assert result.cut == facet and result.certificate == found.certificate
            truth = {name: bool(fam.member_of(inst, facet, name)) for name in fam.FAMILIES}
            assert fam._memberships(inst, normal) == truth
