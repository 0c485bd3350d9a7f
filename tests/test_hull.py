"""Facet enumeration: worked examples, cross-oracles, facet rank test."""

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import pairwise
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mixcut.bench import benchmark_instance
from mixcut.core import (
    DimensionError,
    LinearCut,
    _vertex_table,
    ValidationError,
    build_instance,
    canonicalize,
    cut_is_valid,
    cut_to_dict,
    enumerate_vertices,
    instance_from_json,
    make_cut,
    vertex_to_dict,
)
from mixcut import bench, cli, core, dd, families, hull, linalg
import hull_oracles
import hulls

SEQ_L = [20, 18, 14, 11, 6, 5, 4, 3, 2, 1]

#: The draw general:0: 25 vertical facets, 5 of them with a fractional coefficient.
GENERAL0 = build_instance(7, [82, 56, 36, 29, 24, 12, 11],
                          [Fraction(w, 18) for w in (4, 3, 1, 4, 1, 2, 3)], Fraction(2, 5))


def test_tiny_nonvertical_facet():
    inst = build_instance(3, [20, 18, 14], None, Fraction(1, 3))
    fs = hull.enumerate_facets(inst)
    assert fs.nonvertical == (make_cut(1, [2, 0, 0], 20),)


def test_single_scenario_facets():
    inst = build_instance(1, [5], None, 1)
    fs = hull.enumerate_facets(inst)
    expected = {
        make_cut(1, [5], 5),    # z + 5 x >= 5
        make_cut(0, [1], 0),    # x >= 0
        make_cut(0, [-1], -1),  # x <= 1
    }
    assert set(fs.facets) == expected


def test_example_hull_sizes():
    fs = hull.enumerate_facets(benchmark_instance("L", 5, 3))
    assert len(fs.vertices) == 26
    assert len(fs.nonvertical) == 13


def test_partition_and_canonical_form():
    fs = hull.enumerate_facets(benchmark_instance("K", 6, 4))
    assert set(fs.facets) == set(fs.nonvertical) | set(fs.vertical)
    assert not set(fs.nonvertical) & set(fs.vertical)
    assert all(c.z_coef == 1 for c in fs.nonvertical)
    assert all(c.z_coef == 0 for c in fs.vertical)
    assert len(set(fs.facets)) == len(fs.facets)


def test_determinism():
    a = hull.enumerate_facets(benchmark_instance("L", 6, 3))
    b = hull.enumerate_facets(benchmark_instance("L", 6, 3))
    assert a.facets == b.facets


def test_every_facet_valid_and_facet_defining():
    inst = benchmark_instance("L", 5, 3)
    fs = hull.enumerate_facets(inst)
    for cut in fs.facets:
        assert hull.is_facet(inst, cut)


def test_is_facet_worked_examples(ex21):
    eq12 = make_cut(1, [6, 0, 0, 2, -3, -3, 0, 0, 0, 0], 14)
    assert hull.is_facet(ex21, eq12)
    cut44 = make_cut(1, [3, 0, 0, 0, 0, -3, -5, -3, 0, 0], 9)
    assert hull.is_facet(ex21, cut44)
    inst53 = benchmark_instance("L", 5, 3)
    assert not hull.is_facet(inst53, make_cut(1, [0] * 5, 0))


def test_is_facet_rejects_invalid_cut():
    inst = benchmark_instance("L", 5, 3)
    with pytest.raises(hull.InvalidCutError):
        hull.is_facet(inst, make_cut(1, [0] * 5, 20))


def test_dominated_cut_is_not_facet():
    inst = benchmark_instance("L", 5, 3)
    # midpoint of the facet z + 2 x_1 >= 20 and the bound z >= 0
    weaker = make_cut(1, [1, 0, 0, 0, 0], 10)
    assert not hull.is_facet(inst, weaker)
    # a loose vertical cut has no tight vertex: the ray alone has rank 1 = m
    # mod 2, yet the face is empty
    assert not hull.is_facet(build_instance(1, [5], None, 1), make_cut(0, [1], -1))


@given(hull_oracles.instances())
@settings(max_examples=100, deadline=None)
def test_lifted_generators_are_primitive_fraction_lifts(inst):
    """Each vertex lifts to the primitive integer multiple of (z, x, 1)."""
    expected = [linalg.primitive((Fraction(1),) + (Fraction(0),) * (inst.m + 1))] + [
        linalg.primitive((v.z,) + tuple(Fraction(b) for b in v.x) + (Fraction(1),))
        for v in enumerate_vertices(inst)
    ]
    assert hull.lifted_generators(inst) == expected


@st.composite
def _fractional_general(draw):
    """General probabilities and h over denominators 1..6, m = 1..8."""
    m = draw(st.integers(1, 8))
    weights = draw(st.lists(st.integers(1, 6), min_size=m, max_size=m))
    total = sum(weights)
    h = draw(st.lists(st.builds(Fraction, st.integers(0, 60), st.integers(1, 6)),
                      min_size=m, max_size=m))
    return build_instance(
        m, sorted(h, reverse=True), [Fraction(w, total) for w in weights],
        Fraction(draw(st.integers(max(weights), total)), total),
    )


@given(_fractional_general())
@settings(max_examples=150, deadline=None)
def test_vertex_table_readers_match_the_fraction_vertices(inst):
    """The readers of the vertex table against the Fraction vertices of
    `enumerate_vertices`: `lifted_generators` is the ray, then each vertex
    with z = a/b in lowest terms lifted to (a, b x, b), and the facet file's
    vertex records are the vertices' `vertex_to_dict` objects."""
    vertices = enumerate_vertices(inst)
    assert hull.lifted_generators(inst) == [(1,) + (0,) * (inst.m + 1)] + [
        (v.z.numerator, *(v.z.denominator * b for b in v.x), v.z.denominator)
        for v in vertices
    ]
    assert hull.facetset_to_json(hull.FacetSet(inst, (), ())) == json.dumps({
        "vertices": [vertex_to_dict(v) for v in vertices], "facets": [], "vertical_count": 0,
    })


def test_package_paths_build_no_vertex(monkeypatch, tmp_path):
    """`mixcut hull` on a pool instance, `bench.coverage` on a cell,
    `cut_is_valid`, and `is_facet` down its exact fallback (the L(8,5) facet
    whose tight set falls short of rank m mod 2) read the vertex table and
    build no `Vertex`."""
    def refuse(*args):
        raise AssertionError(f"a Vertex built from {args}")

    monkeypatch.setattr(core, "Vertex", refuse)
    _vertex_table.cache_clear()
    entry = json.loads(REFERENCE.read_text())["hull_m11"]["pool"]["general1"]
    inst_file = tmp_path / "general1.json"
    inst_file.write_text(json.dumps(entry["instance"]))
    out_file = tmp_path / "general1.facets.json"
    assert cli.main(["hull", "--instance", str(inst_file), "--out", str(out_file)]) == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == entry["sha256"]
    assert bench.benchmark_coverage("L", 6, 3).facet_total == 22
    inst = build_instance(8, SEQ_L[:8], None, Fraction(5, 8))
    facet = make_cut(1, [2, 0, 0, -4, 0, -6, -6, -6], -2)
    assert cut_is_valid(inst, facet)
    exact = []
    affine_rank = linalg.affine_rank
    monkeypatch.setattr(linalg, "affine_rank", lambda *args: exact.append(args) or affine_rank(*args))
    assert hull.is_facet(inst, facet)
    assert len(exact) == 1


def _check_insertion_order(inst):
    """`insertion_order` permutes the lex generators: the ray first, then the
    first-zero positions of x non-decreasing, each block strictly decreasing
    in lex order of x."""
    gens = hull.lifted_generators(inst)
    order = hull.insertion_order(inst)
    assert sorted(order) == sorted(gens)
    assert order[0] == gens[0] == (1,) + (0,) * (inst.m + 1)
    xs = [tuple(map(bool, g[1:-1])) for g in order[1:]]
    first_zero = [x.index(False) if False in x else inst.m for x in xs]
    assert first_zero == sorted(first_zero)
    for (ka, a), (kb, b) in pairwise(zip(first_zero, xs)):
        assert ka < kb or a > b
    return order


@given(hull_oracles.instances())
@settings(max_examples=100, deadline=None)
def test_insertion_order_reverses_each_first_zero_block(inst):
    _check_insertion_order(inst)


@pytest.mark.parametrize("inst", [
    # tied h: blocks 1-2 and 3-5 share z but stay apart, each reversed
    build_instance(5, [9, 9, 4, 4, 4], None, Fraction(2, 5)),
    # h over 3: the x entries of a lifted vertex are its z denominator
    build_instance(4, [Fraction(41, 3), Fraction(20, 3), 5, Fraction(1, 3)], None, Fraction(1, 2)),
    # p = m: the all-ones vertex, with no zero, is the last block
    benchmark_instance("L", 5, 5),
    benchmark_instance("K", 1, 1),
], ids=["tied-h", "fractional-h", "p=m", "m=1"])
def test_insertion_order_edge_cases(inst):
    order = _check_insertion_order(inst)
    assert len(order) == len(enumerate_vertices(inst)) + 1
    if inst.epsilon == 1:
        assert order[-1][1:-1] == (order[-1][-1],) * inst.m


def _facets_in_lex_order(inst):
    return hull._facetset_from_normals(inst, dd.dual_rays(hull.lifted_generators(inst)))


@pytest.mark.parametrize("example", "LK")
def test_insertion_order_keeps_the_lex_facets_on_table_cells(example):
    for m in range(1, 9):
        for p in range(1, m + 1):
            inst = benchmark_instance(example, m, p)
            assert hull.enumerate_facets(inst) == _facets_in_lex_order(inst)


@given(hull_oracles.instances())
@settings(max_examples=60, deadline=None)
def test_insertion_order_keeps_the_lex_facets(inst):
    assert hull.enumerate_facets(inst) == _facets_in_lex_order(inst)


COEFS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))
POSITIVE = st.builds(Fraction, st.integers(1, 12), st.integers(1, 4))
SHIFTS = st.sampled_from([Fraction(0), Fraction(0), Fraction(1, 3), Fraction(-1, 3), Fraction(-2)])


@given(inst=hull_oracles.instances(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_slack_verdicts_match_evaluate(inst, data):
    """cut_is_valid and the is_facet tight set agree with LinearCut.evaluate."""
    kind = data.draw(st.sampled_from(("facet", "general", "vertical", "negative_z", "mismatch")))
    if kind == "facet":
        facet = data.draw(st.sampled_from(hulls.facets(inst).facets))
        z, x = facet.z_coef, list(facet.x_coefs)
        if data.draw(st.booleans()):
            z = -z
    else:
        z = Fraction(0) if kind == "vertical" else data.draw(POSITIVE)
        z = -z if kind == "negative_z" else z
        x = data.draw(st.lists(COEFS, min_size=inst.m, max_size=inst.m))
    if kind == "mismatch":
        x = x[:-1] if data.draw(st.booleans()) else x + [data.draw(COEFS)]
    assume(z != 0 or any(x))
    vertices = enumerate_vertices(inst)
    # rhs through the lowest vertex, then shifted: tight, loose or violated
    lowest = min(z * v.z + sum(c for c, b in zip(x, v.x) if b) for v in vertices)
    cut = LinearCut(z, tuple(x), lowest + data.draw(SHIFTS))
    if cut.m != inst.m:
        for check in (cut_is_valid, hull.is_facet):
            with pytest.raises(DimensionError):
                check(inst, cut)
        return
    values = [cut.evaluate(v.z, v.x) for v in vertices]
    valid = cut.z_coef >= 0 and min(values) >= cut.rhs
    assert cut_is_valid(inst, cut) == valid
    rank_mod2, affine_rank = linalg.rank_mod2, linalg.affine_rank
    seen_mod2, seen_exact = [], []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hull.linalg, "rank_mod2",
                      lambda rows: seen_mod2.append(rows) or rank_mod2(rows))
        patch.setattr(hull.linalg, "affine_rank",
                      lambda points, directions: seen_exact.append((points, directions))
                      or affine_rank(points, directions))
        if not valid:
            with pytest.raises(hull.InvalidCutError):
                hull.is_facet(inst, cut)
            return
        verdict = hull.is_facet(inst, cut)
    # the tight vertices as ints (D z,) + x, D the common z denominator;
    # scaling z by D keeps the affine rank of the rational points
    D = _vertex_table(inst).D
    tight = [(int(D * v.z),) + v.x for v, value in zip(vertices, values) if value == cut.rhs]
    ray = [tuple([1] + [0] * inst.m)] if z == 0 else []
    # the mod-2 check gets each tight point's difference from the first, and
    # the ray, as parity masks (bit k = coordinate k mod 2); it needs a point
    expected_mod2 = ([[_parity(p) ^ _parity(tight[0]) for p in tight[1:]]
                      + [_parity(r) for r in ray]] if tight else [])
    assert seen_mod2 == expected_mod2
    # the exact path gets the same tight set, unless mod 2 already proved rank m
    proved = bool(tight) and rank_mod2(expected_mod2[0]) == inst.m
    assert seen_exact == ([] if proved else [(tight, ray)])
    assert all(type(c) is int for points, _ in seen_exact for point in points for c in point)
    rational = [(v.z,) + v.x for v, value in zip(vertices, values) if value == cut.rhs]
    assert affine_rank(tight, ray) == affine_rank(rational, ray)
    assert verdict == (affine_rank(rational, ray) == inst.m + 1)


def _check_output(inst, cut, *flags):
    """`mixcut check` on the cut: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(out), redirect_stderr(err):
        files = {"instance": core.instance_to_json(inst), "cut": core.cut_to_json(cut)}
        argv = ["check"]
        for name, text in files.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(text)
            argv += [f"--{name}", str(path)]
        code = cli.main(argv + list(flags))
    return code, out.getvalue(), err.getvalue()


def _answers(inst, cut):
    """What every int path answers on the cut, a refusal as its type and text:
    cut_is_valid, is_facet, `mixcut check --facet`, and for z_coef > 0 the
    membership form of its normal and member_of's repr, witness included,
    for each family."""
    def outcome(check, *args):
        try:
            return check(*args)
        except ValidationError as exc:
            return type(exc), str(exc)

    answers = [outcome(cut_is_valid, inst, cut), outcome(hull.is_facet, inst, cut),
               _check_output(inst, cut, "--facet")]
    if cut.z_coef > 0:
        answers.append(families._normal_form(inst, core._cut_normal(inst, cut)))
        answers += [repr(families.member_of(inst, cut, name)) for name in families.FAMILIES]
    return answers


@given(inst=hull_oracles.instances(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_scaling_a_cut_changes_nothing(inst, data):
    """Every int path reads a cut as its primitive normal, so scaling it by a
    positive rational changes no answer (see `_answers`), on facets and on
    cuts through the lowest vertex, shifted, of table cells and of general
    probabilities with fractional h."""
    if data.draw(st.booleans()):
        cut = data.draw(st.sampled_from(hulls.facets(inst).facets))
    else:
        z = data.draw(st.just(Fraction(0)) | POSITIVE)
        x = data.draw(st.lists(COEFS, min_size=inst.m, max_size=inst.m))
        values = [z * v.z + sum(c for c, b in zip(x, v.x) if b) for v in enumerate_vertices(inst)]
        cut = LinearCut(z, tuple(x), min(values) + data.draw(SHIFTS))
    factor = data.draw(st.builds(Fraction, st.integers(1, 40), st.integers(1, 40)))
    assert _answers(inst, cut.scaled(factor)) == _answers(inst, cut)


@pytest.mark.parametrize("rhs", [Fraction(-3), Fraction(0), Fraction(1, 2)])
def test_constant_cuts(rhs):
    """A cut with no z and no x term, 0 >= rhs: cut_is_valid answers whether
    rhs <= 0; is_facet and member_of refuse it with ValidationError (it is no
    facet candidate, valid or not); `mixcut check` prints its validity and
    `mixcut check --facet` exits 2."""
    inst = benchmark_instance("L", 4, 2)
    cut = LinearCut(Fraction(0), (Fraction(0),) * 4, rhs)
    assert cut_is_valid(inst, cut) == (rhs <= 0)
    with pytest.raises(ValidationError) as refused:
        hull.is_facet(inst, cut)
    assert not isinstance(refused.value, hull.InvalidCutError)
    with pytest.raises(ValidationError):
        families.member_of(inst, cut, "star")
    valid = "true" if rhs <= 0 else "false"
    assert _check_output(inst, cut) == (cli.EXIT_OK, f'{{"valid": {valid}}}\n', "")
    code, out, err = _check_output(inst, cut, "--facet")
    assert (code, out) == (cli.EXIT_VALIDATION, "")
    assert err == "invalid input: the facet test needs a cut with a z or an x term\n"


def _parity(point):
    return sum((c & 1) << k for k, c in enumerate(point))


def _exact_is_facet(inst, cut):
    """The rank oracle on rationals: tight set from LinearCut.evaluate, affine rank m + 1."""
    cut = canonicalize(cut)
    tight = [(v.z,) + v.x for v in enumerate_vertices(inst) if cut.evaluate(v.z, v.x) == cut.rhs]
    ray = [tuple([1] + [0] * inst.m)] if cut.z_coef == 0 else []
    return linalg.affine_rank(tight, ray) == inst.m + 1


@pytest.mark.parametrize("example,m,p", [("L", 8, 5), ("K", 8, 6)])
def test_is_facet_matches_exact_rank_oracle(example, m, p):
    """Every facet, and sums of two facets (mostly lower-dimensional faces).

    Some of these facets have a mod-2 rank below m, so both the mod-2 proof
    and the exact fallback decide cases here.
    """
    inst = benchmark_instance(example, m, p)
    facets = hulls.facets(inst).facets
    sums = [LinearCut(a.z_coef + b.z_coef, tuple(map(sum, zip(a.x_coefs, b.x_coefs))), a.rhs + b.rhs)
            for a, b in zip(facets, facets[1:] + facets[:1])]
    # x_i >= 0 plus x_i <= 1 is the all-zero cut
    sums = [cut for cut in sums if cut.z_coef or any(cut.x_coefs)]
    affine_rank, exact_calls = linalg.affine_rank, []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hull.linalg, "affine_rank",
                      lambda *args: exact_calls.append(args) or affine_rank(*args))
        facet_verdicts = [hull.is_facet(inst, cut) for cut in facets]
        fallbacks = len(exact_calls)
        sum_verdicts = [hull.is_facet(inst, cut) for cut in sums]
    assert facet_verdicts == [True] * len(facets)
    assert sum_verdicts == [_exact_is_facet(inst, cut) for cut in sums]
    assert False in sum_verdicts
    assert 0 < fallbacks < len(facets)


def test_vertical_facet_not_implied_by_box_and_knapsack():
    """On general pi a vertical facet can cut off points of the box and
    knapsack polyhedron: x_1 + x_4 <= 1 is one here, and x_1 = x_4 = 9/10,
    all others 0, meets the box and the knapsack but violates it."""
    inst = GENERAL0
    fs = hull.enumerate_facets(inst)
    assert (len(fs.nonvertical), len(fs.vertical)) == (11, 25)
    cut = make_cut(0, [-1, 0, 0, -1, 0, 0, 0], -1)
    assert cut in fs.vertical
    point = (Fraction(9, 10), 0, 0, Fraction(9, 10), 0, 0, 0)
    assert all(0 <= x <= 1 for x in point)
    assert sum(q * x for q, x in zip(inst.pi, point)) <= inst.epsilon
    assert cut.evaluate(Fraction(0), point) < cut.rhs


def test_is_facet_falls_back_on_mod2_shortfall():
    """A facet of L(8,5) whose tight differences have rank m over Q but not mod 2."""
    inst = build_instance(8, SEQ_L[:8], None, Fraction(5, 8))
    facet = make_cut(1, [2, 0, 0, -4, 0, -6, -6, -6], -2)
    assert facet in hulls.facets(inst).facets
    tight = [mask for mask, v in zip(_vertex_table(inst).masks, enumerate_vertices(inst))
             if facet.evaluate(v.z, v.x) == facet.rhs]
    assert linalg.rank_mod2([mask ^ tight[0] for mask in tight[1:]]) < inst.m
    assert hull.is_facet(inst, facet)
    assert _exact_is_facet(inst, facet)
    weaker = LinearCut(facet.z_coef, facet.x_coefs, facet.rhs - 1)
    assert not hull.is_facet(inst, weaker)


#: hull_m11 pool instances, read from the benchmark's stored results
REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


def test_every_facet_of_an_m11_pool_instance():
    """Every facet of the pool's general1 (m = 11) passes is_facet; each one
    lowered by 1/2 is valid and no facet, and each one raised by 1 is
    refused as invalid."""
    entry = json.loads(REFERENCE.read_text())["hull_m11"]["pool"]["general1"]
    inst = instance_from_json(json.dumps(entry["instance"]))
    facets = hulls.facets(inst).facets
    assert inst.m == 11 and len(facets) == 1091
    for cut in facets:
        assert hull.is_facet(inst, cut)
        lower = LinearCut(cut.z_coef, cut.x_coefs, cut.rhs - Fraction(1, 2))
        assert cut_is_valid(inst, lower) and not hull.is_facet(inst, lower)
        higher = LinearCut(cut.z_coef, cut.x_coefs, cut.rhs + 1)
        with pytest.raises(hull.InvalidCutError):
            hull.is_facet(inst, higher)


def test_budget_guard_is_all_or_nothing():
    inst = benchmark_instance("L", 8, 5)
    with pytest.raises(hull.BudgetExceeded):
        hull.enumerate_facets(inst, dd.Budget(steps=50))


@pytest.mark.parametrize("budget", [{"steps": 0}, {"seconds": 0}])
def test_zero_budget_trips(budget):
    # a zero budget is a budget, not "no budget"
    with pytest.raises(hull.BudgetExceeded):
        hull.enumerate_facets(benchmark_instance("L", 6, 3), dd.Budget(**budget))


def test_budget_steps_are_candidate_pairs():
    # DD on L(7,4), in `insertion_order`, examines 1 535 candidate pairs over
    # all its insertions (1 489 in lex order)
    inst = benchmark_instance("L", 7, 4)
    facets = hull.enumerate_facets(inst, dd.Budget(steps=1535)).facets
    assert facets == hull.enumerate_facets(inst).facets
    with pytest.raises(hull.BudgetExceeded):
        hull.enumerate_facets(inst, dd.Budget(steps=1534))


def test_facetset_json_round_trip(ex42):
    """On every L/K cell with m <= 7, on L(6,4) with h over 4 and over 6
    (normals with z entries 2, 4 and 3, 6), and on general:0 and the m = 10
    general-probability example (vertical normals whose first nonzero x is
    not 1 or -1, so cuts with fractional coefficients), the file written
    from the normals is the one `cut_to_dict` writes from the Fraction cuts,
    byte for byte, and reads back as the same facet set, normals included."""
    instances = [benchmark_instance(example, m, p)
                 for example in "LK" for m in range(1, 8) for p in range(1, m + 1)]
    instances += [build_instance(6, [Fraction(v, den) for v in SEQ_L[:6]], None, Fraction(4, 6))
                  for den in (4, 6)]
    instances += [GENERAL0, ex42]
    for inst in instances:
        fs = hull.enumerate_facets(inst)
        text = hull.facetset_to_json(fs)
        assert text == json.dumps({
            "vertices": [vertex_to_dict(v) for v in fs.vertices],
            "facets": [cut_to_dict(c) for c in fs.facets],
            "vertical_count": len(fs.vertical),
        })
        back = hull.facetset_from_json(inst, text)
        assert back == fs
        assert back.facets == fs.facets
    # (vertical facets, those with a fractional coefficient)
    for inst, counts in ((GENERAL0, (25, 5)), (ex42, (56, 11))):
        vertical = hull.enumerate_facets(inst).vertical
        fractional = [c for c in vertical if any(q.denominator > 1 for q in c.x_coefs + (c.rhs,))]
        assert (len(vertical), len(fractional)) == counts


def test_facet_file_builds_no_cut(monkeypatch):
    """From double description to the last piece of the facet file, hull
    builds no LinearCut and no Fraction: both kinds of facet are written
    from their integer normals."""
    fs = hull.enumerate_facets(GENERAL0)
    want = json.dumps({
        "vertices": [vertex_to_dict(v) for v in fs.vertices],
        "facets": [cut_to_dict(c) for c in fs.facets],
        "vertical_count": len(fs.vertical),
    })

    def refuse(*args):
        raise AssertionError(f"built from {args}")

    monkeypatch.setattr(hull, "LinearCut", refuse)
    monkeypatch.setattr(hull, "Fraction", refuse)
    assert "".join(hull.facetset_pieces(hull.enumerate_facets(GENERAL0))) == want


@pytest.mark.parametrize("example,m,p", [("L", 3, 2), ("L", 4, 2), ("K", 4, 3)])
def test_hyperplane_search_oracle_small(example, m, p):
    inst = benchmark_instance(example, m, p)
    assert hull_oracles.facets_by_hyperplane_search(inst).facets == hull.enumerate_facets(inst).facets


@pytest.mark.parametrize("example,m,p", [("L", 4, 2), ("L", 5, 3), ("K", 5, 4)])
def test_wrapping_oracle_small(example, m, p):
    inst = benchmark_instance(example, m, p)
    assert hull_oracles.facets_by_wrapping(inst).facets == hull.enumerate_facets(inst).facets


@st.composite
def _cuts_sharing_prefixes(draw):
    """Distinct canonical cuts whose x share prefixes, with small denominators:
    z = 1 cuts, and vertical ones (z = 0) scaled so their first nonzero x
    coefficient, of either sign and any size, is 1 or -1."""
    m = draw(st.integers(1, 4))
    small = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6]))
    base = draw(st.lists(small, min_size=m, max_size=m))
    cuts = set()
    for _ in range(draw(st.integers(1, 10))):
        keep = draw(st.integers(0, m))
        x = tuple(base[:keep] + draw(st.lists(small, min_size=m - keep, max_size=m - keep)))
        rhs = draw(small)
        if draw(st.booleans()):
            cuts.add(LinearCut(Fraction(1), x, rhs))
        elif any(x):
            cuts.add(canonicalize(LinearCut(Fraction(0), x, rhs)))
    return m, sorted(cuts, key=repr)


@given(drawn=_cuts_sharing_prefixes(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_nonvertical_cuts_from_normals_keep_sort_key_order(drawn, data):
    """Cuts built from primitive normals come out canonical and, kind by
    kind, in sort_key order, and the facet file writes them as `cut_to_dict`.

    Cuts sharing an x prefix get normals with different divisors (z, or the
    first nonzero x of a vertical normal), so the int key c (L // divisor)
    must order them as the rationals do.
    """
    m, cuts = drawn
    normals = [linalg.primitive((c.z_coef,) + c.x_coefs + (-c.rhs,)) for c in cuts]
    normals = data.draw(st.permutations(normals))
    fs = hull._facetset_from_normals(build_instance(m, [1] * m, None, 1), normals)
    assert list(fs.nonvertical) == sorted((c for c in cuts if c.z_coef), key=LinearCut.sort_key)
    assert list(fs.vertical) == sorted((c for c in cuts if not c.z_coef), key=LinearCut.sort_key)
    assert all(canonicalize(c) == c for c in fs.facets)
    doc = json.loads(hull.facetset_to_json(fs))
    assert doc["facets"] == [cut_to_dict(c) for c in fs.facets]


@pytest.mark.parametrize("facet", [
    {"z": "1", "x": "12", "rhs": "0"},
    {"z": "1", "x": ["1", "2"]},
    ["1", ["1", "2"], "0"],
    {"z": "1", "x": ["1", "0.5"], "rhs": "0"},
    {"z": "2", "x": ["2", "0"], "rhs": "40"},
    {"z": "-1", "x": ["0", "0"], "rhs": "-20"},
])
def test_facetset_json_reader_checks_each_cut(facet):
    inst = benchmark_instance("L", 2, 1)
    doc = json.loads(hull.facetset_to_json(hull.enumerate_facets(inst)))
    doc["facets"][0] = facet
    with pytest.raises(ValidationError):
        hull.facetset_from_json(inst, json.dumps(doc))


def _without_vertical_count(doc):
    del doc["vertical_count"]
    return doc


def _vertical_count_one_more(doc):
    doc["vertical_count"] += 1
    return doc


def _short_cut(doc):
    doc["facets"][0]["x"].pop()
    return doc


def _vertex_dropped(doc):
    doc["vertices"].pop(1)
    return doc


def _vertex_bool(doc):
    """A vertex's x entry 1 as the JSON true."""
    doc["vertices"][-1]["x"][0] = True
    return doc


def _vertical_count_float(doc):
    doc["vertical_count"] = float(doc["vertical_count"])
    return doc


def _first_facet_appended(doc):
    """A nonvertical cut after the vertical ones, counted twice."""
    doc["facets"].append(doc["facets"][0])
    return doc


def _first_facet_repeated(doc):
    doc["facets"].insert(1, doc["facets"][0])
    return doc


def _last_facet_doubled(doc):
    """A vertical cut scaled by 2, out of canonical form."""
    doc["facets"][-1]["x"] = [str(2 * int(c)) for c in doc["facets"][-1]["x"]]
    return doc


def _first_two_swapped(doc):
    """Two nonvertical cuts out of order."""
    facets = doc["facets"]
    facets[0], facets[1] = facets[1], facets[0]
    return doc


def _last_two_swapped(doc):
    """Two vertical cuts out of order."""
    facets = doc["facets"]
    facets[-2], facets[-1] = facets[-1], facets[-2]
    return doc


@pytest.mark.parametrize("mutate,error", [
    (_without_vertical_count, ValidationError),
    (_vertical_count_one_more, ValidationError),
    (lambda doc: [doc], ValidationError),
    (_short_cut, DimensionError),
    (_vertex_dropped, ValidationError),
    (_vertex_bool, ValidationError),
    (_vertical_count_float, ValidationError),
    (_first_facet_appended, ValidationError),
    (_first_facet_repeated, ValidationError),
    (_last_facet_doubled, ValidationError),
    (_first_two_swapped, ValidationError),
    (_last_two_swapped, ValidationError),
])
def test_facetset_json_reader_checks_the_document(mutate, error):
    inst = benchmark_instance("L", 4, 2)
    doc = json.loads(hull.facetset_to_json(hull.enumerate_facets(inst)))
    with pytest.raises(error):
        hull.facetset_from_json(inst, json.dumps(mutate(doc)))
