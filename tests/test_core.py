"""Instance model, canonicalization, validity oracle, mixing-form round trips."""

import dataclasses
import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mixcut.core import (
    DimensionError,
    LinearCut,
    MixingInstance,
    ValidationError,
    Vertex,
    _int_view,
    _packing,
    _vertex_table,
    build_instance,
    canonicalize,
    cut_from_json,
    cut_is_valid,
    cut_to_json,
    enumerate_vertices,
    instance_from_json,
    instance_to_json,
    make_cut,
    mixing_form,
    packed_slacks,
    rat,
    rat_str,
)
import hulls
from hull_oracles import instances, parse_mixing_form

SEQ_L = [20, 18, 14, 11, 6, 5, 4, 3, 2, 1]

EQ12 = make_cut(1, [6, 0, 0, 2, -3, -3, 0, 0, 0, 0], 14)


class TestBuildInstance:
    def test_uniform_cardinality_example(self, ex21):
        inst = ex21
        assert inst.p == 4 and inst.theta == 4
        assert inst.uniform

    def test_general_probability_example(self, ex42):
        # The prefix-sum definitions give p=4 and theta=6 here; theta >= p
        # always holds because the ascending permutation packs scenarios
        # fastest.  (The narrative source asserts the swapped pair, which is
        # impossible under its own definitions.)
        inst = ex42
        assert inst.p == 4 and inst.theta == 6
        assert not inst.uniform
        assert inst.order[:6] == (5, 6, 7, 8, 9, 10)

    def test_single_scenario(self):
        inst = build_instance(1, [5], None, 1)
        assert inst.p == 1 and inst.theta == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(m=2, h=[1, 2], epsilon=1),                      # unsorted h
            dict(m=2, h=[2, 1], pi=[0, 1], epsilon=1),           # nonpositive pi
            dict(m=2, h=[2, 1], pi=["2/3", "1/3"], epsilon="1/2"),  # pi_i > eps
            dict(m=2, h=[2, 1], epsilon=2),                      # eps out of range
            dict(m=2, h=[2, 1], pi=["1/3", "1/3"], epsilon=1),   # sum != 1
            dict(m=2, h=[2, -1], epsilon=1),                     # negative h
        ],
    )
    def test_rejects_bad_input(self, kwargs):
        with pytest.raises(ValidationError):
            build_instance(kwargs["m"], kwargs["h"], kwargs.get("pi"), kwargs["epsilon"])

    @given(m=st.integers(1, 12), num=st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_uniform_p_is_floor_m_eps(self, m, num):
        eps = Fraction(num, 40)
        if eps < Fraction(1, m):
            eps = Fraction(1, m)
        h = list(range(2 * m, m, -1))
        inst = build_instance(m, h, None, eps)
        assert inst.p == inst.theta == int(m * eps)

    def test_equal_instances_share_cache_entries(self):
        """Two equal instances built separately compare and hash equal and
        hit one cache entry; a change in epsilon, in one pi entry or in one h
        entry makes an unequal instance."""
        args = (4, [Fraction(97, 3), 11, 11, Fraction(1, 2)],
                [Fraction(1, 7), Fraction(2, 7), Fraction(3, 14), Fraction(5, 14)], Fraction(1, 2))
        a, b = build_instance(*args), build_instance(*args)
        assert a is not b and a == b and hash(a) == hash(b)
        view = _int_view(a)
        info = _int_view.cache_info()
        assert _int_view(b) is view
        assert (_int_view.cache_info().hits, _int_view.cache_info().misses) == (
            info.hits + 1, info.misses)
        assert build_instance(*args[:3], Fraction(4, 7)) != a
        pi = a.pi[:2] + (Fraction(2, 7),) + a.pi[3:]
        assert dataclasses.replace(a, pi=pi) != a
        assert dataclasses.replace(a, h=a.h[:3] + (Fraction(1, 3),)) != a
        assert a != object() and not a == args

    def test_epsilon_one_makes_knapsack_vacuous(self):
        inst = build_instance(3, [20, 18, 14], None, 1)
        assert inst.p == 3
        assert len(enumerate_vertices(inst)) == 8


class TestRationalIO:
    def test_rat_round_trip(self):
        for text in ["3", "-4", "7/2", "-9/4"]:
            assert rat_str(rat(text)) == text

    def test_floats_rejected(self):
        with pytest.raises(ValidationError):
            rat(0.5)

    @pytest.mark.parametrize("text", [
        "2_0", "1_000/3", "\u0662/3", "3/\u0663", "\uff11", " 1 / 2 ", "1 /2", "1/ 2", "- 1",
        "1.5", "1e3", "0x10", "", "/", "1/", "/2", "1/2/3", "1/0", "1/-0",
    ])
    def test_rat_refuses_all_but_ascii_digits(self, text):
        """A string holds ASCII digits, a sign and one slash only: digit
        separators, non-ASCII digits and inner whitespace, which int() would
        accept, are refused, and so is a zero denominator."""
        with pytest.raises(ValidationError, match="not an exact rational"):
            rat(text)

    @pytest.mark.parametrize("text, value", [
        (" 3/4 ", Fraction(3, 4)), ("\n-5\t", Fraction(-5)), ("+1/-2", Fraction(-1, 2)),
        ("007", Fraction(7)), ("-6/4", Fraction(-3, 2)),
    ])
    def test_rat_strips_outer_whitespace(self, text, value):
        assert rat(text) == value

    def test_instance_json_round_trip(self, ex42):
        inst = ex42
        assert instance_from_json(instance_to_json(inst)) == inst

    def test_cut_json_round_trip(self):
        assert cut_from_json(cut_to_json(EQ12)) == EQ12

    JSON_VALUES = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=5),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=8,
    )

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_instance_reader_fuzz(self, data):
        """Every instance document is read or refused with ValidationError.

        Each field is valid, an arbitrary JSON value, or absent, so most
        documents get past the other fields' checks.
        """
        m = data.draw(st.integers(1, 4))
        h = sorted(data.draw(st.lists(st.integers(0, 9), min_size=m, max_size=m)), reverse=True)
        valid = {"m": m, "h": [str(v) for v in h], "pi": [f"1/{m}"] * m, "epsilon": "1"}
        doc = self._fuzzed(data, valid)
        try:
            inst = instance_from_json(json.dumps(doc))
        except ValidationError:
            return
        assert isinstance(inst, MixingInstance)
        assert type(doc["m"]) is int and inst.m == doc["m"]
        assert isinstance(doc["h"], list)

    def _fuzzed(self, data, valid: dict) -> dict:
        """`valid` with each field kept, replaced by an arbitrary JSON value, or dropped."""
        doc = {}
        for key, value in valid.items():
            choice = data.draw(st.sampled_from(["valid", "arbitrary", "valid", "absent"]))
            if choice == "valid":
                doc[key] = value
            elif choice == "arbitrary":
                doc[key] = data.draw(self.JSON_VALUES)
        return doc

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_cut_reader_fuzz(self, data):
        """Every cut document is read or refused with ValidationError."""
        x = data.draw(st.lists(st.integers(-9, 9), max_size=4))
        doc = self._fuzzed(data, {"z": "1", "x": [str(v) for v in x], "rhs": "3/2"})
        try:
            cut = cut_from_json(json.dumps(doc))
        except ValidationError:
            return
        assert isinstance(doc["x"], list) and len(cut.x_coefs) == len(doc["x"])

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_bilinear_readers_fuzz(self, data):
        """Every bilinear-set and assignment document is read or refused with ValidationError."""
        from mixcut import blp

        S = blp.build_sc(build_instance(2, [2, 1], None, Fraction(1, 2)))
        a = blp.BlpAssignment.build(0, 1, [(0, 1, "1/2")], [(1, 0, 2)])
        docs = (
            (blp.bilinear_set_from_json, json.loads(blp.bilinear_set_to_json(S))),
            (blp.assignment_from_json, json.loads(blp.assignment_to_json(a))),
        )
        for reader, valid in docs:
            doc = self._fuzzed(data, valid)
            try:
                read = reader(json.dumps(doc))
            except ValidationError:
                continue
            if isinstance(read, blp.BilinearSet):
                assert type(doc["n"]) is int and type(doc["m"]) is int
                assert len(read.f) == len(read.e_rows) == len(doc["E"])
            else:
                assert isinstance(doc["base"], list) and len(doc["base"]) == 2


class TestCanonicalize:
    def test_positive_scaling(self):
        cut = make_cut(2, [4, 0], 6)
        assert canonicalize(cut) == make_cut(1, [2, 0], 3)

    def test_leading_coefficient_normalization(self):
        cut = make_cut(0, [-3, 6], 3)
        assert canonicalize(cut) == make_cut(0, [-1, 2], 1)

    def test_all_zero_rejected(self):
        with pytest.raises(ValidationError):
            canonicalize(make_cut(0, [0, 0], 1))

    @given(
        z=st.integers(-5, 5),
        xs=st.lists(st.integers(-6, 6), min_size=1, max_size=5),
        rhs=st.integers(-10, 10),
        num=st.integers(1, 9),
        den=st.integers(1, 9),
    )
    @settings(max_examples=200, deadline=None)
    def test_idempotent_and_scale_invariant(self, z, xs, rhs, num, den):
        if z == 0 and all(v == 0 for v in xs):
            return
        cut = make_cut(z, xs, rhs)
        canon = canonicalize(cut)
        assert canonicalize(canon) is canon  # a leading +-1 returns the cut itself
        assert canonicalize(cut.scaled(Fraction(num, den))) == canon


class TestVertices:
    def test_small_enumeration(self):
        inst = build_instance(3, [20, 18, 14], None, Fraction(1, 3))
        vs = {(v.z, v.x) for v in enumerate_vertices(inst)}
        assert vs == {
            (Fraction(20), (0, 0, 0)),
            (Fraction(18), (1, 0, 0)),
            (Fraction(20), (0, 1, 0)),
            (Fraction(20), (0, 0, 1)),
        }

    def test_single_scenario_vertices(self):
        inst = build_instance(1, [5], None, 1)
        assert {(v.z, v.x) for v in enumerate_vertices(inst)} == {
            (Fraction(5), (0,)),
            (Fraction(0), (1,)),
        }

    def test_vertex_count_binomial(self):
        inst = build_instance(5, SEQ_L[:5], None, Fraction(3, 5))
        assert len(enumerate_vertices(inst)) == 26  # sum of C(5,k) for k <= 3

    def test_lexicographic_order(self):
        inst = build_instance(4, SEQ_L[:4], None, Fraction(2, 4))
        xs = [v.x for v in enumerate_vertices(inst)]
        assert xs == sorted(xs)

    def test_guard(self):
        h = list(range(42, 0, -2))
        with pytest.raises(ValidationError):
            enumerate_vertices(build_instance(21, h, None, 1))

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, data):
        """Every x in {0,1}^m in lexicographic order, kept when pi . x <= epsilon
        on Fractions, with z the largest h_i over x_i = 0.  h is fractional and
        tied, pi general, and epsilon is pi . x of some x (the boundary)."""
        m = data.draw(st.integers(1, 8))
        h = sorted(
            data.draw(st.lists(
                st.builds(Fraction, st.integers(0, 12), st.sampled_from([1, 2, 3])),
                min_size=m, max_size=m,
            )),
            reverse=True,
        )
        w = data.draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
        hit = data.draw(st.lists(st.booleans(), min_size=m, max_size=m))
        eps = Fraction(max(max(w), sum(wi for wi, b in zip(w, hit) if b)), sum(w))
        inst = build_instance(m, h, [Fraction(wi, sum(w)) for wi in w], eps)
        want = []
        for x in itertools.product((0, 1), repeat=m):
            if sum((p for p, xi in zip(inst.pi, x) if xi), Fraction(0)) <= eps:
                z = max((hi for hi, xi in zip(inst.h, x) if not xi), default=Fraction(0))
                want.append(Vertex(z, x))
        assert enumerate_vertices(inst) == tuple(want)

    def test_vertex_tables_keep_256_instances(self):
        """After 257 distinct instances each per-instance vertex table, and
        the packed columns of one field width, holds 256 of them; a second
        pass, which misses on every instance, rebuilds equal tables."""
        tables = ((_int_view, ()), (_vertex_table, ()), (_packing, (2,)))
        insts = [build_instance(3, [k + 2, k + 1, k], None, Fraction(2, 3))
                 for k in range(1, 258)]
        first = [tuple(table(inst, *args) for table, args in tables) for inst in insts]
        assert [table.cache_info().currsize for table, _ in tables] == [256] * 3
        misses = [table.cache_info().misses for table, _ in tables]
        assert [tuple(table(inst, *args) for table, args in tables) for inst in insts] == first
        assert [table.cache_info().misses - n
                for (table, _), n in zip(tables, misses)] == [257] * 3


class TestValidity:
    def test_worked_facet_is_valid(self, ex21):
        assert cut_is_valid(ex21, EQ12)

    def test_z_nonnegative_always_valid(self, ex21):
        assert cut_is_valid(ex21, make_cut(1, [0] * 10, 0))

    def test_z_above_h1_invalid(self, ex21):
        assert not cut_is_valid(ex21, make_cut(1, [0] * 10, 20))

    def test_negative_z_coefficient_invalid(self, ex21):
        assert not cut_is_valid(ex21, make_cut(-1, [0] * 10, -100))

    def test_dimension_mismatch(self, ex21):
        with pytest.raises(DimensionError):
            cut_is_valid(ex21, make_cut(1, [0] * 9, 0))


COEFS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))


def _oracle_slacks(inst, cut):
    """(evaluate - rhs) * S * D at every vertex, from the Fraction cut, and
    the slack bound |a_z| D z_1 + D |b| + D sum |c_k|, all over S.

    S is the scale of the cut's primitive normal, the lcm L of its
    denominators over the gcd of its coefficients times L (L for the zero
    cut), and D is the lcm of the vertex z denominators.
    """
    vertices = enumerate_vertices(inst)
    D = math.lcm(*(v.z.denominator for v in vertices))
    coefs = (cut.z_coef, *cut.x_coefs, cut.rhs)
    L = math.lcm(*(c.denominator for c in coefs))
    S = Fraction(L, math.gcd(*(int(c * L) for c in coefs)) or 1)
    slacks = [(cut.evaluate(v.z, v.x) - cut.rhs) * S * D for v in vertices]
    bound = (abs(cut.z_coef) * max(v.z for v in vertices) + abs(cut.rhs)
             + sum(map(abs, cut.x_coefs))) * S * D
    assert all(q.denominator == 1 for q in slacks + [bound])
    return [q.numerator for q in slacks], bound.numerator


def _assert_exact_slacks(inst, cut):
    """The packed_slacks word holds each vertex's scaled rational slack in a
    field of the fewest bytes that hold the slack bound with a sign bit and
    a spare bit; its top bits give the validity verdict and its zero flags
    the tight vertices."""
    slacks, bound = _oracle_slacks(inst, cut)
    word, packing = packed_slacks(inst, cut)
    W = packing.width
    assert W == -(-(bound.bit_length() + 2) // 8) and packing.n == len(slacks)
    raw = word.to_bytes(packing.n * W, "little")
    fields = [int.from_bytes(raw[i:i + W], "little") for i in range(0, len(raw), W)]
    assert [f - (1 << 8 * W - 1) for f in fields] == slacks
    valid = min(slacks) >= 0
    assert packing.nonnegative(word) == valid
    assert cut_is_valid(inst, cut) == (valid and cut.z_coef >= 0)
    if valid:
        flags = packing.zero_flags(word)
        assert [bool(f) for f in flags] == [s == 0 for s in slacks]


@st.composite
def _kernel_instances(draw):
    """hull_oracles.instances, or an m = 1 instance with rational h."""
    if draw(st.integers(0, 4)):
        return draw(instances())
    return build_instance(1, [draw(st.builds(Fraction, st.integers(0, 60), st.integers(1, 4)))])


class TestVertexSlacks:
    @given(inst=instances(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_slacks_are_the_scaled_rational_slacks(self, inst, data):
        kind = data.draw(st.sampled_from(("facet", "general", "vertical")))
        if kind == "facet":
            cut = data.draw(st.sampled_from(hulls.facets(inst).facets))
        else:
            z = Fraction(0) if kind == "vertical" else data.draw(COEFS)
            xs = data.draw(st.lists(COEFS, min_size=inst.m, max_size=inst.m))
            cut = LinearCut(z, tuple(xs), data.draw(COEFS))
        _assert_exact_slacks(inst, cut)

    def test_fractional_h_general_pi(self):
        # vertex z values over D = 12; the cuts over L = 30, 30 and 2
        inst = build_instance(4, [Fraction(31, 4), Fraction(22, 3), 5, Fraction(1, 2)],
                              [Fraction(w, 10) for w in (1, 2, 3, 4)], Fraction(1, 2))
        assert math.lcm(*(v.z.denominator for v in enumerate_vertices(inst))) == 12
        for cut in (make_cut(1, ["1/2", "-2/3", 0, "7/5"], "-3/10"),
                    make_cut(0, ["-1/3", "1/2", "-1/5", 2], "-1/6"),
                    make_cut("3/2", [0, 0, 0, 0], 11)):
            _assert_exact_slacks(inst, cut)

    @given(inst=_kernel_instances(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_slacks_at_every_scale(self, inst, data):
        """Coefficients from 1 to 2^80 times small rationals, vertical cuts
        (a_z = 0, on instances whose vertex z values may be over D > 1), and
        right-hand sides on a vertex value, so that some slacks are zero."""
        scale = 2 ** data.draw(st.integers(0, 80))
        z = Fraction(0) if data.draw(st.booleans()) else data.draw(COEFS) * scale
        xs = [c * scale for c in data.draw(st.lists(COEFS, min_size=inst.m, max_size=inst.m))]
        values = [z * v.z + sum(c for c, b in zip(xs, v.x) if b) for v in enumerate_vertices(inst)]
        rhs = data.draw(st.sampled_from((min(values), max(values), values[0]))
                        | st.sampled_from(values) | COEFS.map(lambda c: c * scale))
        _assert_exact_slacks(inst, LinearCut(z, tuple(xs), rhs))

    @given(inst=_kernel_instances(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_slack_bound_at_a_byte_boundary(self, inst, data):
        """An integer cut whose right-hand side puts the slack bound just
        below 2^(8 k - 2), the most that k bytes hold with a sign and a spare
        bit, or just above it, for k = 1 .. 11.  z and x are coprime, so the
        cut is its own primitive normal whatever its right-hand side."""
        k = data.draw(st.integers(1, 11))
        z = data.draw(st.integers(0, 3))
        xs = data.draw(st.lists(st.integers(-3, 3), min_size=inst.m, max_size=inst.m))
        assume(math.gcd(z, *xs) == 1)
        vertices = enumerate_vertices(inst)
        D = math.lcm(*(v.z.denominator for v in vertices))
        rest = z * max(v.z for v in vertices) * D + D * sum(map(abs, xs))
        room = ((1 << 8 * k - 2) - 1 - rest) // D
        assume(room >= 0)
        above = data.draw(st.booleans())
        sign = data.draw(st.sampled_from((1, -1)))
        cut = LinearCut(Fraction(z), tuple(map(Fraction, xs)), Fraction(sign * (room + above)))
        _, bound = _oracle_slacks(inst, cut)
        assert (bound >> 8 * k - 2 > 0) == above
        _assert_exact_slacks(inst, cut)
        assert packed_slacks(inst, cut)[1].width == k + above

    def test_vertical_cut_narrower_than_the_z_column(self):
        """A vertical cut whose bound fits one byte on an instance whose z
        values do not: the packing of that width has no z column, and the
        cut reads none."""
        inst = build_instance(2, [Fraction(1000, 3), 7], None, Fraction(1, 2))
        cut = make_cut(0, [-1, -1], -1)
        word, packing = packed_slacks(inst, cut)
        assert packing.width == 1 and packing.z is None
        _assert_exact_slacks(inst, cut)


class TestMixingForm:
    def test_worked_example(self):
        cut = mixing_form(10, [1, 4], [6, 2], [5, 6], [3, 3], 20)
        assert cut == EQ12

    def test_degenerate_selection(self, ex21):
        inst = ex21
        cut = mixing_form(inst.m, [], [], [], [], inst.h_at(inst.p + 1))
        assert cut == make_cut(1, [0] * 10, 6)

    def test_overlapping_sets_rejected(self):
        with pytest.raises(ValidationError):
            mixing_form(4, [1, 2], [1, 1], [2, 3], [1, 1], 5)

    def test_parse_worked_example(self, ex21):
        parsed = parse_mixing_form(ex21, EQ12)
        assert parsed.p_coefs == ((1, Fraction(6)), (4, Fraction(2)))
        assert parsed.q_phis == ((5, Fraction(3)), (6, Fraction(3)))
        assert parsed.rhs_base == 20
        assert parsed.consistent

    def test_parse_plain_bound(self, ex21):
        parsed = parse_mixing_form(ex21, make_cut(1, [0] * 10, 3))
        assert parsed.p_coefs == () and parsed.q_phis == ()
        assert parsed.rhs_base == 3

    def test_parse_shifted_example(self, ex21):
        cut = make_cut(1, [3, 0, 0, 0, 0, -3, -5, -3, 0, 0], 9)
        parsed = parse_mixing_form(ex21, cut)
        assert parsed.p_coefs == ((1, Fraction(3)),)
        assert dict(parsed.q_phis) == {6: Fraction(3), 7: Fraction(5), 8: Fraction(3)}
        assert parsed.rhs_base == 20

    def test_parse_requires_unit_z(self, ex21):
        with pytest.raises(ValidationError):
            parse_mixing_form(ex21, make_cut(0, [1] + [0] * 9, 0))

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_round_trip(self, ex21, data):
        inst = ex21
        m = inst.m
        indices = data.draw(
            st.lists(st.integers(1, m), unique=True, min_size=1, max_size=6)
        )
        split = data.draw(st.integers(0, len(indices)))
        t_set = sorted(indices[:split])
        q_set = sorted(indices[split:])
        coefs = [
            Fraction(data.draw(st.integers(1, 30)), data.draw(st.integers(1, 4)))
            for _ in t_set
        ]
        phis = [
            Fraction(data.draw(st.integers(0, 30)), data.draw(st.integers(1, 4)))
            for _ in q_set
        ]
        rhs_base = Fraction(data.draw(st.integers(-20, 40)))
        cut = mixing_form(m, t_set, coefs, q_set, phis, rhs_base)
        parsed = parse_mixing_form(inst, cut)
        assert list(parsed.t_list) == t_set
        assert list(parsed.coefs) == coefs
        # zero lifting values vanish from the cut, so compare the nonzero part
        expected_q = [(q, v) for q, v in zip(q_set, phis) if v != 0]
        assert list(parsed.q_phis) == expected_q
        assert parsed.rhs_base == rhs_base
