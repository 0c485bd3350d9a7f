"""Bilinear reformulation, aggregation engine, and projection-cone certificates."""

import dataclasses
import json
import math
import random
from enum import IntEnum
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import projection_reference as pref
from cone_reference import (
    dense_cone_membership,
    dense_dual,
    fraction_substitute,
    fraction_weighted_sum,
    fractions_over,
)
from mixcut import blp, hull
from mixcut.bench import benchmark_instance
from mixcut.core import ValidationError, build_instance, cut_is_valid, enumerate_vertices, make_cut


def _row(S, label):
    """The index of the lifted set's constraint with this label."""
    return [con.label for con in S.constraints].index(label)


def theorem_assignment(inst, S, r, t, delta, q, phi, beta):
    """The aggregation selection used to derive the generic-family cuts."""
    m = inst.m
    beta0 = (inst.h_at(r + 1) - sum(delta)) / (m * (1 - inst.epsilon))
    tx = list(t) + [r + 1]
    coef = {
        t[i]: inst.h_at(tx[i]) - inst.h_at(tx[i + 1]) + delta[i] for i in range(len(t))
    }
    k_weights = []
    for i, qq in enumerate(q):
        w_pos = phi[i] - m * inst.pi_at(qq) * beta0
        if w_pos > 0:
            k_weights.append((0, _row(S, f"complement+:{qq}"), w_pos))
        w_neg = m * inst.pi_at(qq) * beta0 - phi[i]
        if w_neg > 0:
            k_weights.append((0, _row(S, f"complement-:{qq}"), w_neg))
    for tt in t:
        w = coef[tt] + m * inst.pi_at(tt) * beta0
        if w > 0:
            k_weights.append((0, _row(S, f"complement-:{tt}"), w))
    for j in range(1, m + 1):
        if j not in t and j not in q:
            k_weights.append((0, _row(S, f"complement-:{j}"), m * inst.pi_at(j) * beta0))
    for j in range(1, m + 1):
        if j != t[0]:
            k_weights.append((j, _row(S, f"zbound:{j}"), Fraction(1)))
    knapsack = S.tau - 1
    t_weights = [(0, knapsack, m * beta0)]
    for j in range(1, m + 1):
        if beta[j - 1] > 0:
            t_weights.append((j, knapsack, m * beta[j - 1]))
    return blp.BlpAssignment.build(
        _row(S, f"zbound:{t[0]}"), t[0], k_weights, t_weights
    )


EX41_BETA = (
    Fraction(0), Fraction(0), Fraction(0), Fraction(3), Fraction(3),
    Fraction(4), Fraction(4), Fraction(3), Fraction(5, 2), Fraction(11, 5),
)


#: Every L/K table cell with m <= 8, and instances off the tables.
ROUND_TRIP_INSTANCES = {
    f"{example}-{m}-{p}": benchmark_instance(example, m, p)
    for example in "LK"
    for m in range(1, 9)
    for p in range(1, m + 1)
}
ROUND_TRIP_INSTANCES.update({
    "uniform-m3": build_instance(3, [20, 18, 14], None, Fraction(2, 3)),
    "general-m3": build_instance(
        3, [20, 18, 14], [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)], Fraction(3, 4)),
    "general-m6": build_instance(
        6, [9, 7, 7, 4, 2, 0], [Fraction(w, 12) for w in (3, 1, 2, 2, 1, 3)], Fraction(1, 2)),
    "vacuous-m4": build_instance(4, [8, 6, 3, 1], None, 1),
})


class TestBuildSc:
    def test_constraint_count_m2(self):
        inst = build_instance(2, [5, 3], None, Fraction(1, 2))
        S = blp.build_sc(inst)
        assert S.kappa == 9  # 2 + 2 + 2 + 2 + 1
        assert S.tau == 3
        assert S.z_slot == 0

    def test_witnesses_satisfy_bilinear_groups(self, ex21):
        S = blp.build_sc(ex21)
        for j in range(ex21.m + 1):
            z, x, y = pref.sc_restriction_witness(ex21, j)
            assert pref.point_satisfies_bilinear(S, (z,) + x, y)
            # the all-but-one witness carries mass 1 - pi_j, so it clears the
            # knapsack row only when epsilon admits that much
            expected = j != 0 and 1 - ex21.pi_at(j) <= ex21.epsilon
            assert pref.point_in_xi(S, (z,) + x) == expected

    def test_restriction_emptiness_pattern(self, ex21):
        S = blp.build_sc(ex21)
        report = pref.check_restrictions(S)
        for j in range(ex21.m + 1):
            expected = j != 0 and ex21.prefix(j - 1) <= ex21.epsilon
            assert report.nonempty[j] == expected

    def test_restrictions_share_z_ray(self, ex21):
        S = blp.build_sc(ex21)
        report = pref.check_restrictions(S)
        assert report.recession_shared
        assert report.recession == (tuple([1] + [0] * ex21.m),)

    def test_zero_entries_share_one_object(self):
        """Every zero of A, b, c, d and E is the module's one zero Fraction."""
        S = blp.build_sc(benchmark_instance("L", 10, 4))
        entries = [v for con in S.constraints
                   for v in (*(x for row in con.A for x in row), *con.b, *con.c, con.d)]
        entries += [v for row in S.e_rows for v in row]
        zeros = [v for v in entries if v == 0]
        assert len(zeros) == 10761
        assert all(v is blp._ZERO for v in zeros)

    def test_vacuous_knapsack_all_nonempty(self):
        inst = build_instance(3, [20, 18, 14], None, 1)
        report = pref.check_restrictions(blp.build_sc(inst))
        assert all(report.nonempty)

    @pytest.mark.parametrize("name", sorted(ROUND_TRIP_INSTANCES))
    def test_json_round_trip(self, name):
        S = blp.build_sc(ROUND_TRIP_INSTANCES[name])
        back = blp.bilinear_set_from_json(blp.bilinear_set_to_json(S))
        assert back == S
        # the rows behind the relations, and so every dual, match too
        assert back.relation_rows == S.relation_rows
        rng = random.Random(name)
        for _ in range(3):
            a = _random_assignment(rng, S)
            result = blp.substitute(S, blp.aggregate(S, a))
            duals = [blp.assemble_dual(T, a, blp.substitute(T, blp.aggregate(T, a)))
                     for T in (S, back)]
            assert duals[0] == duals[1]
            assert blp.cone_membership(back, duals[1]) == (True, result.mixing_cut())

    def test_json_refuses_unbacked_compl_pair(self):
        # without its self: rows the set still lists the pairs (i, i); taken
        # as given, substitute would zero x_1 y_1 on no row, and assemble_dual
        # would find no weight for the pair
        S = blp.build_sc(build_instance(3, [3, 2, 1], None, Fraction(2, 3)))
        doc = json.loads(blp.bilinear_set_to_json(S))
        doc["constraints"] = [c for c in doc["constraints"] if not c["label"].startswith("self:")]
        doc["upper_bounded"] = []
        with pytest.raises(ValidationError, match=r"compl_pairs entry \(1, 1\)"):
            blp.bilinear_set_from_json(json.dumps(doc))

    def test_unbacked_upper_bound_refused(self):
        # x_0 <= 1 is declared, but no row reads -x_0 >= -1: substitute must
        # not apply a bound the set does not imply
        S = blp.BilinearSet(
            n=1,
            m=1,
            constraints=(
                blp.BilinearConstraint(
                    A=((Fraction(1),),), b=(Fraction(0),), c=(Fraction(0),), d=Fraction(0),
                ),
            ),
            e_rows=(),
            f=(),
            upper_bounded=frozenset({0}),
            compl_pairs=frozenset(),
            compl_complement_pairs=frozenset(),
        )
        expr = blp.aggregate(S, blp.BlpAssignment.build(0, 1))
        assert fractions_over(expr.denominator, expr.quad_num) == ((Fraction(1),),)
        with pytest.raises(ValidationError, match=r"upper_bounded x_0 has no row"):
            blp.substitute(S, expr)


class TestAggregate:
    def test_single_term_base(self, ex21):
        S = blp.build_sc(ex21)
        a = blp.BlpAssignment.build(_row(S, "zbound:2"), 2)
        expr = blp.aggregate(S, a)
        quad = fractions_over(expr.denominator, expr.quad_num)
        assert quad[1][0] == 1  # z y_2 coefficient
        assert fractions_over(expr.denominator, expr.lin_y_num)[1] == -ex21.h_at(2)
        assert fractions_over(expr.denominator, expr.rhs_num) == 0
        assert all(
            quad[j][i] == 0
            for j in range(ex21.m)
            for i in range(S.n)
            if (j, i) != (1, 0)
        )

    def test_linearity(self, ex21):
        S = blp.build_sc(ex21)
        base = _row(S, "zbound:1")
        k1 = _row(S, "complement-:3")
        k2 = _row(S, "complement+:5")
        knap = S.tau - 1
        a1 = blp.BlpAssignment.build(base, 1, [(0, k1, 2)], [(4, knap, 1)])
        a2 = blp.BlpAssignment.build(base, 1, [(0, k1, 1), (0, k2, 3)], [(4, knap, 2)])
        a12 = blp.BlpAssignment.build(base, 1, [(0, k1, 3), (0, k2, 3)], [(4, knap, 3)])
        exprs = [blp.aggregate(S, a) for a in (a1, a2, a12, blp.BlpAssignment.build(base, 1))]
        q1, q2, q12, q_base = (fractions_over(e.denominator, e.quad_num) for e in exprs)
        for j in range(ex21.m):
            for i in range(S.n):
                assert q1[j][i] + q2[j][i] - q_base[j][i] == q12[j][i]
        r1, r2, r12, r_base = (fractions_over(e.denominator, e.rhs_num) for e in exprs)
        assert r1 + r2 - r_base == r12

    def test_worked_quad_entries(self, ex21):
        S = blp.build_sc(ex21)
        r, t, delta, q, phi = 4, (1, 4), (Fraction(-3),) * 2, (5, 6), (Fraction(3),) * 2
        a = theorem_assignment(ex21, S, r, t, delta, q, phi, EX41_BETA)
        expr = blp.aggregate(S, a)
        m = ex21.m
        tx = list(t) + [r + 1]
        coef = {t[i]: ex21.h_at(tx[i]) - ex21.h_at(tx[i + 1]) + delta[i] for i in range(2)}

        def sigma(i, j):
            if i in coef:
                return -coef[i] - m * ex21.pi_at(i) * EX41_BETA[j - 1]
            if i in q:
                return phi[q.index(i)] - m * ex21.pi_at(i) * EX41_BETA[j - 1]
            return -m * ex21.pi_at(i) * EX41_BETA[j - 1]

        quad = fractions_over(expr.denominator, expr.quad_num)
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                assert quad[j - 1][i] == sigma(i, j)
        assert all(quad[j][0] == 1 for j in range(m))

    def test_base_pair_reuse_rejected(self, ex21):
        S = blp.build_sc(ex21)
        k = _row(S, "zbound:1")
        with pytest.raises(ValidationError):
            blp.BlpAssignment.build(k, 1, [(1, k, 1)])
            blp.aggregate(S, blp.BlpAssignment(k, 1, ((1, k, Fraction(1)),)))

    @pytest.mark.parametrize("args", [
        (1.7, 2), (1, 2.2), (True, 2), (1, False), (1, 2, [(0.9, 3, 2)]), (1, 2, [(0, 3.4, 2)]),
        (1, 2, [(True, 3, 2)]), (1, 2, [], [(0, 1.0, 1)]), (1, 2, [(0, 3.0, 0)]),
    ])
    def test_build_refuses_non_int_index(self, args):
        # a float or bool index used to be truncated by int()
        with pytest.raises(ValidationError):
            blp.BlpAssignment.build(*args)

    def test_build_drops_zero_weights(self):
        a = blp.BlpAssignment.build(1, 2, [(0, 3, "0"), (0, 4, "1/2")], [(1, 0, 0), (1, 1, 2)])
        assert a == blp.BlpAssignment(1, 2, ((0, 4, Fraction(1, 2)),), ((1, 1, Fraction(2)),))

    def test_negative_weight_rejected(self, ex21):
        S = blp.build_sc(ex21)
        k = _row(S, "complement-:1")
        a = blp.BlpAssignment(_row(S, "zbound:1"), 1, ((0, k, Fraction(-1)),))
        with pytest.raises(ValidationError):
            blp.aggregate(S, a)


class TestSubstitute:
    def test_worked_pipeline_emits_facet(self, ex21):
        S = blp.build_sc(ex21)
        a = theorem_assignment(
            ex21, S, 4, (1, 4), (Fraction(-3),) * 2, (5, 6), (Fraction(3),) * 2, EX41_BETA
        )
        result = blp.substitute(S, blp.aggregate(S, a))
        assert result.mixing_cut() == make_cut(1, [6, 0, 0, 2, -3, -3, 0, 0, 0, 0], 14)

    def test_base_only_reduces_to_z_bound(self, ex21):
        S = blp.build_sc(ex21)
        a = blp.BlpAssignment.build(_row(S, "zbound:7"), 7)
        result = blp.substitute(S, blp.aggregate(S, a))
        assert result.mixing_cut() == make_cut(1, [0] * 10, 0)

    def test_randomized_assignments_emit_valid_cuts(self):
        rng = random.Random(7)
        for m, p in [(3, 2), (4, 2), (5, 3)]:
            inst = benchmark_instance("L", m, p)
            S = blp.build_sc(inst)
            for _ in range(60):
                cut = _random_cut(rng, inst, S)
                assert cut_is_valid(inst, cut)


def _random_assignment(rng, S):
    """Random selection honouring the forced weight index of each constraint."""
    m = S.m

    def forced_j(k):
        label = S.constraints[k].label
        group, tail = label.split(":")
        if group in ("complement+", "complement-"):
            return 0
        if group == "prefix":
            return int(tail.split("<")[1])
        return int(tail)

    base_k = rng.randrange(S.kappa)
    weights = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(1, 3), Fraction(3)]
    k_weights = []
    for k in rng.sample(range(S.kappa), rng.randrange(0, min(S.kappa, 6))):
        if (k, forced_j(k)) == (base_k, forced_j(base_k)):
            continue
        k_weights.append((forced_j(k), k, rng.choice(weights)))
    t_weights = []
    for t in range(S.tau):
        for j in rng.sample(range(m + 1), rng.randrange(0, 3)):
            t_weights.append((j, t, rng.choice(weights)))
    return blp.BlpAssignment.build(base_k, forced_j(base_k), k_weights, t_weights)


def _random_cut(rng, inst, S):
    a = _random_assignment(rng, S)
    return blp.substitute(S, blp.aggregate(S, a)).mixing_cut()


class TestDisjunctive:
    def test_toy_projection_equals_union_hull(self):
        # one x variable on [0, 1]; one bilinear constraint x y_1 - x >= -1/2
        # (restriction y=0: x <= 1/2 within the box; y=e1: everything)
        S = blp.BilinearSet(
            n=1,
            m=1,
            constraints=(
                blp.BilinearConstraint(
                    A=((Fraction(1),),), b=(Fraction(-1),), c=(Fraction(0),),
                    d=Fraction(-1, 2),
                ),
            ),
            e_rows=((Fraction(-1),),),
            f=(Fraction(-1),),
            upper_bounded=frozenset({0}),
            compl_pairs=frozenset(),
            compl_complement_pairs=frozenset(),
        )
        points, rays = pref.projected_hull_generators(S)
        assert rays == []
        # both restrictions reach x in [0,1] jointly: y=0 gives [0,1/2], y=e1 gives [0,1]
        assert min(p[0] for p in points) == 0 and max(p[0] for p in points) == 1

    @pytest.mark.parametrize("m,p", [(2, 1), (3, 2), (4, 2), (4, 3)])
    def test_projection_matches_hull_uniform(self, m, p):
        inst = benchmark_instance("L", m, p)
        S = blp.build_sc(inst)
        proj = pref.projected_hull_facets(S)
        fs = hull.enumerate_facets(inst)
        assert sorted(proj, key=lambda c: c.sort_key()) == sorted(
            fs.facets, key=lambda c: c.sort_key()
        )

    def test_general_probability_projection_relaxes(self):
        # every hull facet of the instance must remain valid for the
        # projection generators (the projection contains the instance hull)
        inst = build_instance(
            3, [20, 18, 14], [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)],
            Fraction(3, 4),
        )
        S = blp.build_sc(inst)
        points, rays = pref.projected_hull_generators(S)
        proj_facets = pref.projected_hull_facets(S)
        assert points and proj_facets
        for cut in proj_facets:
            # the facets describe the hull of the projection generators
            for point in points:
                assert cut.evaluate(point[0], point[1:]) >= cut.rhs
            for ray in rays:
                assert cut.evaluate(ray[0], ray[1:]) >= 0
            for vertex in enumerate_vertices(inst):
                assert cut.evaluate(vertex.z, vertex.x) >= cut.rhs


class TestConeMembership:
    def test_zero_dual_is_member(self, ex21):
        S = blp.build_sc(ex21)
        member, cut = blp.cone_membership(S, blp.ConeDual({}, {}, {}))
        assert member
        assert cut.z_coef == 0 and cut.rhs == 0 and all(c == 0 for c in cut.x_coefs)

    def test_worked_dual_membership(self, ex21):
        S = blp.build_sc(ex21)
        a = theorem_assignment(
            ex21, S, 4, (1, 4), (Fraction(-3),) * 2, (5, 6), (Fraction(3),) * 2, EX41_BETA
        )
        result = blp.substitute(S, blp.aggregate(S, a))
        dual = blp.assemble_dual(S, a, result)
        member, cut = blp.cone_membership(S, dual)
        assert member
        assert cut == make_cut(1, [6, 0, 0, 2, -3, -3, 0, 0, 0, 0], 14)

    def test_substitution_onto_base_pair_is_kept(self):
        # compl_to_y at (1, 2) puts weight 1 on prefix:1<2 at j = 2, the base
        # pair itself, so the dual weights that pair 2 in alpha and in the sum
        S = blp.build_sc(benchmark_instance("L", 3, 2))
        a = blp.BlpAssignment.build(_row(S, "prefix:1<2"), 2, [(0, _row(S, "complement-:1"), 2)])
        result = blp.substitute(S, blp.aggregate(S, a))
        member, cut = blp.cone_membership(S, blp.assemble_dual(S, a, result))
        assert member
        assert cut == result.mixing_cut() == make_cut(0, [2, 0, 0], 0)

    def test_completion_identities_random(self, ex21):
        rng = random.Random(11)
        S = blp.build_sc(ex21)
        for _ in range(100):
            a = _random_assignment(rng, S)
            result = blp.substitute(S, blp.aggregate(S, a))
            dual = blp.assemble_dual(S, a, result)
            member, cut = blp.cone_membership(S, dual)
            assert member
            assert cut == result.mixing_cut()
            assert cut_is_valid(ex21, cut)

    def test_perturbed_dual_rejected(self, ex21):
        S = blp.build_sc(ex21)
        a = blp.BlpAssignment.build(_row(S, "zbound:1"), 1)
        result = blp.substitute(S, blp.aggregate(S, a))
        dual = blp.assemble_dual(S, a, result)
        theta = dict(dual.theta)
        theta[ex21.m] = theta.get(ex21.m, 0) + 1
        member, _ = blp.cone_membership(S, dual._replace(theta=theta))
        assert not member

    def test_layout_mismatch_rejected(self, ex21):
        """A key outside the set's layout, or not an int index, is refused;
        keys of an int subclass (not bool) index as the ints they equal."""
        S = blp.build_sc(ex21)
        assert (S.m, S.kappa + S.tau, S.n) == (10, 96, 11)
        dual = _worked_dual(ex21, S)
        assert dual.rows and dual.gamma and dual.theta
        for field, key in [
            ("rows", (11, 0)), ("rows", (0, 96)), ("rows", (-1, 0)), ("rows", (0, 1.0)),
            ("rows", (True, 0)), ("rows", 3), ("rows", (0, 1, 2)), ("gamma", (0, 11)),
            ("gamma", (11, 0)), ("gamma", (0, -1)), ("theta", 11), ("theta", -1),
            ("theta", (0,)), ("theta", False),
        ]:
            with pytest.raises(ValidationError, match=f"{field} key") as alone:
                blp.cone_membership(S, blp.ConeDual({}, {}, {})._replace(**{field: {key: 1}}))
            # among the keys of a complete, valid dual, the key is refused alike
            entries = dict(getattr(dual, field))
            entries.pop(key, None)  # True and (True, 0) equal the keys 1 and (1, 0)
            entries[key] = 1
            with pytest.raises(ValidationError) as among:
                blp.cone_membership(S, dual._replace(**{field: entries}))
            assert str(among.value) == str(alone.value)
        index = IntEnum("Index", {f"i{v}": v for v in range(S.kappa + S.tau)})
        as_enum = dual._replace(
            rows={(index(j), index(k)): w for (j, k), w in dual.rows.items()},
            gamma={(index(j), index(i)): w for (j, i), w in dual.gamma.items()},
            theta={index(j): w for j, w in dual.theta.items()},
        )
        assert blp.cone_membership(S, as_enum) == blp.cone_membership(S, dual)


def _worked_dual(inst, S):
    """The dual that certifies the worked generic-family cut on L(10,4)."""
    a = theorem_assignment(
        inst, S, 4, (1, 4), (Fraction(-3),) * 2, (5, 6), (Fraction(3),) * 2, EX41_BETA
    )
    return blp.assemble_dual(S, a, blp.substitute(S, blp.aggregate(S, a)))


@lru_cache(maxsize=None)
def _lifted(inst):
    return blp.build_sc(inst)


@st.composite
def lifted_sets(draw):
    """build_sc of a table cell or of a general-probability instance, m = 3..8."""
    m = draw(st.integers(3, 8))
    if draw(st.booleans()):
        inst = benchmark_instance(draw(st.sampled_from("LK")), m, draw(st.integers(1, m)))
    else:
        weights = draw(st.lists(st.integers(1, 6), min_size=m, max_size=m))
        total = sum(weights)
        h = sorted(draw(st.lists(st.integers(0, 40), min_size=m, max_size=m)), reverse=True)
        inst = build_instance(
            m, h, [Fraction(w, total) for w in weights],
            Fraction(draw(st.integers(max(weights), total)), total),
        )
    return _lifted(inst)


def _outcome(check, S, dual):
    """The verdict and cut, or that the check raised `ValidationError`."""
    try:
        return repr(check(S, dual))
    except ValidationError:
        return "ValidationError"


def _dense_check(S, dual):
    return dense_cone_membership(S, dense_dual(S, dual))


def _dual_keys(S):
    """Every (field, key) a dual on S may hold."""
    return ([("rows", (j, k)) for j in range(S.m + 1) for k in range(S.kappa + S.tau)]
            + [("gamma", (j, i)) for j in range(S.m + 1) for i in range(S.n)]
            + [("theta", j) for j in range(S.m + 1)])


def _outside_keys(S):
    """(field, key) pairs one past each end of the ranges `_dual_keys` covers."""
    return [("rows", (S.m + 1, 0)), ("rows", (0, S.kappa + S.tau)), ("rows", (-1, 0)),
            ("gamma", (S.m + 1, 0)), ("gamma", (0, S.n)), ("theta", S.m + 1), ("theta", -1)]


#: The three maps of a `blp.ConeDual`, without its denominator.
DUAL_MAPS = ("rows", "gamma", "theta")


def _support(dual):
    return [(field, key) for field in DUAL_MAPS
            for key, v in getattr(dual, field).items() if v]


def _with(dual, field, key, value):
    """The dual with entry `key` of `field` set to `value`."""
    return dual._replace(**{field: {**getattr(dual, field), key: value}})


class TestConeMembershipOracle:
    """`cone_membership` against the dense loop in tests/cone_reference.py."""

    @given(S=lifted_sets(), seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_dense_reference(self, S, seed, data):
        a = _random_assignment(random.Random(seed), S)
        result = blp.substitute(S, blp.aggregate(S, a))
        dual = blp.assemble_dual(S, a, result)
        assert blp.cone_membership(S, dual) == (True, result.mixing_cut())
        # over 6 D, int steps of 2 and 3 are steps of 1/3 and 1/2 over D
        dual = blp.ConeDual(*({key: 6 * v for key, v in getattr(dual, field).items()}
                              for field in DUAL_MAPS), 6 * dual.denominator)
        # a nonzero entry half the time; most entries are zero
        support = _support(dual)
        field, key = data.draw(st.sampled_from(
            support if support and data.draw(st.booleans()) else _dual_keys(S)))
        old = getattr(dual, field).get(key, 0)
        changed = _with(dual, field, key, data.draw(st.sampled_from(
            [v for v in (0, 2, 6, 18) if v != old])))
        negative = _with(dual, field, key, -data.draw(st.sampled_from((3, 12))))
        outside = _with(dual, *data.draw(st.sampled_from(_outside_keys(S))), 6)
        assert _outcome(blp.cone_membership, S, outside) == "ValidationError"
        for vector in (dual, changed, negative, outside):
            assert _outcome(blp.cone_membership, S, vector) == _outcome(_dense_check, S, vector)

    @pytest.mark.parametrize("field", DUAL_MAPS)
    def test_non_int_values_refused(self, ex21, field):
        """A value that is not a plain int is refused with a message naming
        the map and the key, alone and among the entries of a valid dual."""
        S = blp.build_sc(ex21)
        dual = _worked_dual(ex21, S)
        keys = list(getattr(dual, field))
        key = keys[len(keys) // 2]  # int values come before it
        weight = IntEnum("Weight", {"one": 1})
        for value in (Fraction(1), "1/2", 1.0, True, weight.one):
            message = f"{field} value at key {key!r} must be an int, got {value!r}"
            for vector in (blp.ConeDual({}, {}, {})._replace(**{field: {key: value}}),
                           _with(dual, field, key, value)):
                with pytest.raises(ValidationError) as refused:
                    blp.cone_membership(S, vector)
                assert str(refused.value) == message
                assert _outcome(_dense_check, S, vector) == "ValidationError"


#: An exact rational as JSON reads it: "a/b", often with b > 1.
FRACTION_TEXT = st.builds(
    lambda a, b: f"{a}/{b}", st.integers(-6, 6), st.sampled_from((1, 2, 3, 5, 7)))


@st.composite
def fractional_sets(draw):
    """A `bilinear_set_from_json` set with fractional A, b, c, d, E and f entries."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))

    def vec(size):
        return draw(st.lists(FRACTION_TEXT, min_size=size, max_size=size))

    tau = draw(st.integers(0, 3))
    doc = {
        "n": n,
        "m": m,
        "constraints": [
            {"A": [vec(n) for _ in range(m)], "b": vec(n), "c": vec(m), "d": vec(1)[0]}
            for _ in range(draw(st.integers(1, 4)))
        ],
        "E": [vec(n) for _ in range(tau)],
        "f": vec(tau),
    }
    return blp.bilinear_set_from_json(json.dumps(doc))


class TestAggregateOracle:
    """`aggregate` against the Fraction row sum in tests/cone_reference.py."""

    @given(S=st.one_of(lifted_sets(), fractional_sets()), seed=st.integers(0, 2**32 - 1),
           any_index=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_matches_fraction_sum(self, S, seed, any_index):
        # `_random_assignment` reads the constraint labels only build_sc sets
        lifted = S.constraints[0].label != ""
        pick = _random_assignment if lifted and not any_index else _any_index_assignment
        a = pick(random.Random(seed), S)
        expr = blp.aggregate(S, a)
        rows = [(a.base_j, a.base_k, Fraction(1)), *a.k_weights]
        rows.extend((j, S.kappa + t, w) for j, t, w in a.t_weights)
        quad, lin_x, lin_y, rhs = fraction_weighted_sum(S, rows)
        ints = (expr.quad_num, expr.lin_x_num, expr.lin_y_num, expr.rhs_num)
        assert fractions_over(expr.denominator, ints) == (
            tuple(map(tuple, quad)), tuple(lin_x), tuple(lin_y), rhs)
        assert all(type(v) is int for v in (*sum(expr.quad_num, ()), *expr.lin_x_num,
                                            *expr.lin_y_num, expr.rhs_num, expr.denominator))

    def test_equal_expressions_compare_equal(self):
        """An unused polyhedron row over 7 changes T, not the expression."""
        S = blp.build_sc(benchmark_instance("L", 3, 2))
        zero = Fraction(0)
        unused = dataclasses.replace(S, e_rows=(*S.e_rows, (Fraction(1, 7),) + (zero,) * S.m),
                                     f=(*S.f, zero))
        assert unused.denominator == 7 * S.denominator
        a = blp.BlpAssignment.build(_row(S, "prefix:1<3"), 3,
                                    [(3, _row(S, "self:1"), "3/2"), (3, _row(S, "self:3"), "2/3")],
                                    [(0, 3, "3/2"), (3, 2, "1/3")])
        expr = blp.aggregate(S, a)
        assert blp.aggregate(unused, a) == expr
        assert blp.substitute(unused, blp.aggregate(unused, a)) == blp.substitute(S, expr)
        values = (*sum(expr.quad_num, ()), *expr.lin_x_num, *expr.lin_y_num, expr.rhs_num)
        assert expr.denominator == math.lcm(
            *(v.denominator for v in fractions_over(expr.denominator, values)))


def _any_index_assignment(rng, S):
    """Random selection whose weight indices j ignore the constraint groups."""
    base = (rng.randrange(S.kappa), rng.randint(0, S.m))
    weights = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(1, 3)]
    k_weights = [
        (j, k, rng.choice(weights))
        for k in rng.sample(range(S.kappa), rng.randrange(0, min(S.kappa, 6)))
        for j in rng.sample(range(S.m + 1), rng.randint(1, 2))
        if (k, j) != base
    ]
    t_weights = [
        (j, t, rng.choice(weights))
        for t in range(S.tau)
        for j in rng.sample(range(S.m + 1), rng.randrange(0, 3))
    ]
    return blp.BlpAssignment.build(*base, k_weights, t_weights)


@st.composite
def related_fractional_sets(draw):
    """A fractional `bilinear_set_from_json` set that declares substitution relations.

    Random fractional constraints and polyhedron rows as in
    :func:`fractional_sets`, plus the row behind each relation drawn: ``-x_i
    >= -1`` in E for an upper bound, and a constraint reading ``-x_i >= 0``
    (``x_i >= 1``) at y = e_j and ``0 >= 0`` elsewhere for a complementarity
    (complement) pair.
    """
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))

    def vec(size):
        return draw(st.lists(FRACTION_TEXT, min_size=size, max_size=size))

    def unit(i, value, size):
        return [value if k == i else "0" for k in range(size)]

    pairs = [(i, j) for i in range(n) for j in range(1, m + 1)]
    upper = draw(st.lists(st.integers(0, n - 1), unique=True))
    compl = draw(st.lists(st.sampled_from(pairs), unique=True))
    complc = draw(st.lists(st.sampled_from(pairs), unique=True))
    constraints = [{"A": [vec(n) for _ in range(m)], "b": vec(n), "c": vec(m), "d": vec(1)[0]}
                   for _ in range(draw(st.integers(1, 3)))]
    for (i, j), coef, c_j in [*((pair, "-1", "0") for pair in compl),
                              *((pair, "1", "-1") for pair in complc)]:
        constraints.append({"A": [unit(i, coef, n) if jj == j else unit(0, "0", n)
                                  for jj in range(1, m + 1)],
                            "b": unit(0, "0", n), "c": unit(j - 1, c_j, m), "d": "0"})
    tau = draw(st.integers(0, 2))
    doc = {
        "n": n,
        "m": m,
        "constraints": constraints,
        "E": [vec(n) for _ in range(tau)] + [unit(i, "-1", n) for i in upper],
        "f": vec(tau) + ["-1"] * len(upper),
        "upper_bounded": upper,
        "compl_pairs": compl,
        "compl_complement_pairs": complc,
    }
    return blp.bilinear_set_from_json(json.dumps(doc))


class TestSubstituteOracle:
    """`substitute` against the Fraction moves in tests/cone_reference.py."""

    @staticmethod
    def _assert_same(S, expr):
        result, reference = blp.substitute(S, expr), fraction_substitute(S, expr)
        D = result.denominator
        assert fractions_over(D, result.coefs_num) == reference.coefs
        assert fractions_over(D, result.rhs_num) == reference.rhs
        # order, j, table row and weight of every move
        assert tuple((j, k, fractions_over(D, w)) for j, k, w in result.moves_num) == (
            reference.moves)
        assert (result.t_sets_disjoint, result.z_slot) == (reference.t_sets_disjoint,
                                                           reference.z_slot)
        assert D == expr.denominator
        assert all(type(v) is int
                   for v in (*result.coefs_num, result.rhs_num, *sum(result.moves_num, ())))
        return len(result.moves_num)

    def test_table_cells(self):
        rng = random.Random(20)
        moves = 0
        for m in range(3, 11):
            for example in "LK":
                S = _lifted(benchmark_instance(example, m, rng.randint(1, m)))
                for _ in range(8):
                    moves += self._assert_same(S, blp.aggregate(S, _random_assignment(rng, S)))
        assert moves > 0

    @given(S=related_fractional_sets(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_fractional_sets(self, S, seed):
        a = _any_index_assignment(random.Random(seed), S)
        self._assert_same(S, blp.aggregate(S, a))


class TestConeRoundTripFractional:
    """`assemble_dual` -> `cone_membership` on JSON sets with fractional T,
    declared relations and no z slot."""

    @given(S=related_fractional_sets(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_fractional_sets(self, S, seed):
        a = _any_index_assignment(random.Random(seed), S)
        result = blp.substitute(S, blp.aggregate(S, a))
        dual = blp.assemble_dual(S, a, result)
        expected = (True, blp._x_block_cut(S.z_slot, result.coefs_num, result.rhs_num,
                                           result.denominator))
        assert blp.cone_membership(S, dual) == expected
        assert _dense_check(S, dual) == expected


class TestIntDual:
    """`assemble_dual` returns plain ints over one denominator, which
    `cone_membership` reads as they are."""

    @given(S=st.one_of(lifted_sets(), related_fractional_sets()),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_reads_as_its_fractions(self, S, seed, data):
        # `_random_assignment` reads the constraint labels only build_sc sets carry
        pick = _random_assignment if S.constraints[0].label else _any_index_assignment
        a = pick(random.Random(seed), S)
        result = blp.substitute(S, blp.aggregate(S, a))
        dual = blp.assemble_dual(S, a, result)
        values = [v for field in DUAL_MAPS for v in getattr(dual, field).values()]
        assert all(type(v) is int and v > 0 for v in values)
        assert type(dual.denominator) is int and dual.denominator % S.denominator == 0
        expected = (True, blp._x_block_cut(S.z_slot, result.coefs_num, result.rhs_num,
                                           result.denominator))
        if S.z_slot is not None:
            assert expected[1] == result.mixing_cut()
        assert blp.cone_membership(S, dual) == expected
        assert _dense_check(S, dual) == expected
        # one entry moved by +-1 over the denominator, a nonzero one half the time
        support = _support(dual)
        field, key = data.draw(st.sampled_from(
            support if support and data.draw(st.booleans()) else _dual_keys(S)))
        moved = _with(dual, field, key,
                      getattr(dual, field).get(key, 0) + data.draw(st.sampled_from((-1, 1))))
        assert _outcome(_dense_check, S, moved) == _outcome(blp.cone_membership, S, moved)

    @pytest.mark.parametrize("denominator", [0, -3, True, 1.0, "2"])
    def test_denominator_refused(self, ex21, denominator):
        S = blp.build_sc(ex21)
        for dual in (blp.ConeDual({}, {}, {}), _worked_dual(ex21, S)):
            with pytest.raises(ValidationError, match="denominator"):
                blp.cone_membership(S, dual._replace(denominator=denominator))

    def test_zero_dual_over_seven(self, ex21):
        S = blp.build_sc(ex21)
        member, cut = blp.cone_membership(S, blp.ConeDual({}, {}, {}, 7))
        assert member
        assert cut == make_cut(0, [0] * ex21.m, 0)


class TestValidateAssignment:
    """`aggregate` and `assemble_dual` check the assignment entry by entry,
    and each message names what it refuses."""

    #: L(3,2)'s mixed-denominator assignment: base prefix:1<3 at j = 3.
    BASE = (12, 3)
    K_WEIGHTS = ((3, 9, Fraction(3, 2)), (3, 11, Fraction(2, 3)))
    T_WEIGHTS = ((0, 3, Fraction(3, 2)), (3, 2, Fraction(1, 3)))

    @pytest.mark.parametrize("k_extra, t_extra, message", [
        ((True, 9, Fraction(1)), None, "constraint weight scenario must be an int, got True"),
        ((0, False, Fraction(1)), None, "constraint weight index must be an int, got False"),
        (None, (True, 2, Fraction(1)), "polyhedron weight scenario must be an int, got True"),
        (None, (0, True, Fraction(1)), "polyhedron weight index must be an int, got True"),
        ((4, 9, Fraction(1)), None, "constraint weight scenario 4 out of range 0..3"),
        ((-1, 9, Fraction(1)), None, "constraint weight scenario -1 out of range 0..3"),
        ((0, 15, Fraction(1)), None, "constraint weight index 15 out of range 0..14"),
        (None, (4, 2, Fraction(1)), "polyhedron weight scenario 4 out of range 0..3"),
        (None, (0, 4, Fraction(1)), "polyhedron weight index 4 out of range 0..3"),
        ((0, 3, Fraction(-1)), None, "aggregation weights must be non-negative"),
        (None, (1, 0, -2), "aggregation weights must be non-negative"),
        ((0, 3, -0.5), None, "aggregation weights must be non-negative"),
        ((3, 12, Fraction(1)), None, "the base pair may not be reweighted"),
    ])
    def test_messages(self, k_extra, t_extra, message):
        S = _lifted(benchmark_instance("L", 3, 2))
        good = blp.BlpAssignment(*self.BASE, self.K_WEIGHTS, self.T_WEIGHTS)
        result = blp.substitute(S, blp.aggregate(S, good))
        # the bad entry follows good ones
        bad = blp.BlpAssignment(*self.BASE, self.K_WEIGHTS + ((k_extra,) if k_extra else ()),
                                self.T_WEIGHTS + ((t_extra,) if t_extra else ()))
        for call in (lambda a: blp.aggregate(S, a), lambda a: blp.assemble_dual(S, a, result)):
            with pytest.raises(ValidationError) as refused:
                call(bad)
            assert str(refused.value) == message

    def test_int_enum_index_accepted(self):
        S = _lifted(benchmark_instance("L", 3, 2))
        index = IntEnum("Index", {f"i{v}": v for v in range(S.kappa)})

        def enum(weights):
            return tuple((index(j), index(k), w) for j, k, w in weights)

        plain = blp.BlpAssignment(*self.BASE, self.K_WEIGHTS, self.T_WEIGHTS)
        enums = blp.BlpAssignment(*self.BASE, enum(self.K_WEIGHTS), enum(self.T_WEIGHTS))
        assert blp.aggregate(S, enums) == blp.aggregate(S, plain)
        result = blp.substitute(S, blp.aggregate(S, plain))
        dual = blp.assemble_dual(S, enums, result)
        assert dual == blp.assemble_dual(S, plain, result)
        assert blp.cone_membership(S, dual) == (True, result.mixing_cut())


class TestPolyhedronRowsAsConstraints:
    """A polyhedron row E_t x >= f_t is the constraint with A = 0, b = E_t, c = 0, d = f_t."""

    @given(S=lifted_sets(), seed=st.integers(0, 2**32 - 1), any_index=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_aggregate_substitute_restrictions_agree(self, S, seed, any_index):
        zero_A = tuple(tuple(Fraction(0) for _ in range(S.n)) for _ in range(S.m))
        zero_c = tuple(Fraction(0) for _ in range(S.m))
        folded = dataclasses.replace(
            S,
            constraints=S.constraints + tuple(
                blp.BilinearConstraint(zero_A, row, zero_c, rhs) for row, rhs in zip(S.e_rows, S.f)
            ),
            e_rows=(),
            f=(),
        )
        rng = random.Random(seed)
        a = (_any_index_assignment if any_index else _random_assignment)(rng, S)
        moved = blp.BlpAssignment(
            a.base_k, a.base_j,
            a.k_weights + tuple((j, S.kappa + t, w) for j, t, w in a.t_weights),
        )
        expr = blp.aggregate(S, a)
        # t_sets_disjoint reads the t weights only, and the folded set has none
        folded_expr = dataclasses.replace(
            blp.aggregate(folded, moved), t_sets_disjoint=expr.t_sets_disjoint)
        assert folded_expr == expr
        assert blp.substitute(folded, folded_expr) == blp.substitute(S, expr)
        for j in range(S.m + 1):
            assert pref.restriction_rows(folded, j) == pref.restriction_rows(S, j)


class TestVerticalImplication:
    def test_bilinear_base_with_polyhedron_weights_holds_on_xi(self):
        # the bilinear base self:1 at j = 1 (weight 1) plus random polyhedron
        # weights: the emitted cut must hold on the box/knapsack polyhedron
        # Xi, checked at its generators
        inst = benchmark_instance("L", 3, 2)
        S = blp.build_sc(inst)
        rng = random.Random(3)
        # polyhedron Xi alone: E and f, with the bounds x >= 0
        xi_rows = list(S.e_rows) + [
            tuple(Fraction(int(k == i)) for k in range(S.n)) for i in range(S.n)
        ]
        xi_rhs = list(S.f) + [Fraction(0)] * S.n
        vertices, rays = pref.polyhedron_generators(xi_rows, xi_rhs)
        for _ in range(20):
            t_weights = []
            for t in range(S.tau):
                for j in rng.sample(range(S.m + 1), rng.randrange(0, 2)):
                    t_weights.append((j, t, Fraction(rng.randrange(1, 4))))
            expr = blp.aggregate(
                S,
                blp.BlpAssignment.build(
                    _row(S, "self:1"), 1, [], t_weights
                ),
            )
            result = blp.substitute(S, expr)
            cut_vec = fractions_over(result.denominator, result.coefs_num)
            rhs = fractions_over(result.denominator, result.rhs_num)
            for point in vertices:
                assert sum(c * v for c, v in zip(cut_vec, point)) >= rhs
            for ray in rays:
                assert sum(c * v for c, v in zip(cut_vec, ray)) >= 0


class TestRemarkRestriction:
    def test_forced_weight_indices_lose_nothing(self):
        # single-y constraints contribute nothing under any other weight
        # index, so restricting to the forced index leaves the attainable
        # cut set unchanged
        inst = benchmark_instance("L", 3, 2)
        S = blp.build_sc(inst)
        rng = random.Random(5)

        def forced_j(k):
            label = S.constraints[k].label
            group, tail = label.split(":")
            if group in ("complement+", "complement-"):
                return 0
            if group == "prefix":
                return int(tail.split("<")[1])
            return int(tail)

        unrestricted = set()
        restricted = set()
        for _ in range(220):
            base_k = rng.randrange(S.kappa)
            k = rng.randrange(S.kappa)
            j_any = rng.randrange(0, S.m + 1)
            w = Fraction(rng.randrange(1, 3))
            base_j_any = rng.randrange(0, S.m + 1)
            try:
                a = blp.BlpAssignment.build(base_k, base_j_any, [(j_any, k, w)])
                unrestricted.add(blp.substitute(S, blp.aggregate(S, a)).mixing_cut())
            except ValidationError:
                pass
            try:
                a = blp.BlpAssignment.build(
                    base_k, forced_j(base_k), [(forced_j(k), k, w)]
                )
                restricted.add(blp.substitute(S, blp.aggregate(S, a)).mixing_cut())
            except ValidationError:
                pass
        from mixcut.core import canonicalize

        def canon_set(cuts):
            out = set()
            for c in cuts:
                try:
                    out.add(canonicalize(c))
                except ValidationError:
                    out.add("zero")
            return out

        assert canon_set(unrestricted) <= canon_set(restricted)
