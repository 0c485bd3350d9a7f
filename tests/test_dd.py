"""Double description against the hyperplane-search and wrapping oracles, and the DD budget."""

import hashlib
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from mixcut import bench, cli, dd, hull
from mixcut.core import build_instance, instance_from_json
import draws
import hull_oracles
import projection_reference

COORDS = st.integers(-3, 3)

#: The oracle comparisons skip the shrink phase: shrinking a DD failure
#: through the wrapping oracle runs for many minutes, while the unshrunk
#: counterexample already names the generators.
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


@st.composite
def generator_sets(draw):
    """Small integer generators spanning R^d, with planted degeneracy.

    Several generators lie on one hyperplane through the origin, some are
    repeated (as drawn or scaled), and most draws keep the cone pointed (a
    positive first coordinate) so that the dual cone has many rays.
    """
    d = draw(st.integers(2, 5))
    pointed = draw(st.booleans()) or draw(st.booleans())

    def vector():
        v = [draw(COORDS) for _ in range(d)]
        if pointed:
            v[0] = draw(st.integers(1, 3))
        return tuple(v)

    gens = [vector() for _ in range(draw(st.integers(d, d + 4)))]
    normal = tuple(draw(COORDS) for _ in range(d))
    basis = hull_oracles.nullspace([normal], d)
    if basis and len(basis) < d:
        for _ in range(draw(st.integers(2, d + 1))):
            coefs = [draw(COORDS) for _ in basis]
            g = tuple(sum(c * b[i] for c, b in zip(coefs, basis)) for i in range(d))
            if pointed and g[0] <= 0:
                continue
            gens.append(g)
    for _ in range(draw(st.integers(0, 3))):
        g = draw(st.sampled_from(gens))
        gens.append(tuple(draw(st.integers(1, 2)) * x for x in g))
    gens = draw(st.permutations(gens))
    if hull_oracles.rank(gens) < d:
        gens = gens + [tuple(int(i == j) for j in range(d)) for i in range(d)]
    return gens


@given(generator_sets())
@settings(max_examples=400, deadline=None, phases=NO_SHRINK)
def test_dual_rays_match_hyperplane_search(gens):
    assert dd.dual_rays(gens) == hull_oracles.facet_normals_by_hyperplane_search(gens)


def _general_instance(weights, h, eps):
    total = sum(weights)
    return build_instance(len(weights), sorted(h, reverse=True),
                          [Fraction(w, total) for w in weights], Fraction(eps, total))


def _wrapping(inst):
    # (1, 0, ..., 0, 1) is positive on the ray and on every lifted vertex
    interior = (1,) + (0,) * inst.m + (1,)
    return hull_oracles.facet_normals_by_wrapping(hull.lifted_generators(inst), interior)


@st.composite
def general_instances(draw):
    """General-probability instances, m = 4..6, with a small epsilon.

    Integer weights 1..6 and h with repeated values and small denominators
    put many generators on each facet, so the adjacency scan meets the
    degenerate pairs that otherwise only the uniform table cells give it;
    the small epsilon keeps the wrapping oracle quick.
    """
    m = draw(st.integers(4, 6))
    weights = draw(st.lists(st.integers(1, 6), min_size=m, max_size=m))
    h = draw(st.lists(st.builds(Fraction, st.integers(0, 12), st.integers(1, 3)),
                      min_size=m, max_size=m))
    eps = draw(st.integers(max(weights), max(max(weights), 2 * sum(weights) // 5)))
    return _general_instance(weights, h, eps)


@given(general_instances(), st.randoms(use_true_random=False))
@settings(max_examples=20, deadline=None, phases=NO_SHRINK)
def test_dual_rays_match_wrapping_on_general_instances(inst, rng):
    gens = hull.lifted_generators(inst)
    rng.shuffle(gens)
    assert dd.dual_rays(gens) == _wrapping(inst)


#: m = 7 with h ties; its wrapping takes a few seconds, so it runs once
GENERAL_M7 = _general_instance([2, 3, 1, 6, 4, 4, 2], [12, 4, 4, 4, 1, 1, 0], 6)


@pytest.fixture(scope="module")
def general_m7_facets():
    return _wrapping(GENERAL_M7)


@given(st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None, phases=NO_SHRINK)
def test_dual_rays_match_wrapping_on_permuted_m7(general_m7_facets, rng):
    gens = hull.lifted_generators(GENERAL_M7)
    rng.shuffle(gens)
    assert dd.dual_rays(gens) == general_m7_facets


def _uniform_instance(m, h, p):
    return build_instance(m, sorted(h, reverse=True), None, Fraction(p, m))


@st.composite
def uniform_instances(draw):
    """Uniform-probability instances, m = 4..5, h with ties.

    Their lifted vertices are 0/1 points, so most rays tight at an insertion
    have more zeros than d - 1, and many tested pairs share all but one zero
    of one ray: the containment scan meets zero sets that hold w with many
    bits to spare.
    """
    m = draw(st.integers(4, 5))
    h = draw(st.lists(st.integers(0, 12), min_size=m, max_size=m))
    return _uniform_instance(m, h, draw(st.integers(2, m)))


@given(uniform_instances(), st.randoms(use_true_random=False))
@settings(max_examples=20, deadline=None, phases=NO_SHRINK)
def test_dual_rays_match_wrapping_on_shuffled_uniform(inst, rng):
    gens = hull.lifted_generators(inst)
    rng.shuffle(gens)
    assert dd.dual_rays(gens) == _wrapping(inst)


#: m = 6 and 7; each wrapping takes a second or two, so it runs once
@pytest.fixture(scope="module", params=[(6, [10, 5, 1, 0, 0, 0], 5),
                                        (7, [12, 8, 7, 7, 5, 3, 3], 2)], ids=["m6", "m7"])
def uniform_large(request):
    inst = _uniform_instance(*request.param)
    return inst, _wrapping(inst)


@given(st.randoms(use_true_random=False))
@settings(max_examples=20, deadline=None, phases=NO_SHRINK)
def test_dual_rays_match_wrapping_on_shuffled_uniform_large(uniform_large, rng):
    inst, facets = uniform_large
    gens = hull.lifted_generators(inst)
    rng.shuffle(gens)
    assert dd.dual_rays(gens) == facets


def test_dual_rays_two_dimensional():
    # d = 2: the only candidate pair has an empty common zero set and no third ray
    assert dd.dual_rays([(1, 0), (1, 2), (1, -1)]) == [(1, 1), (2, -1)]
    assert projection_reference.polyhedron_generators([[1], [-1]], [0, -1]) == ([(0,), (1,)], [])
    # zero, repeated and opposite generators in the plane
    gens = [(0, 0), (1, 2), (1, 2), (1, 0), (0, 0), (1, -1), (3, -3), (1, 1)]
    assert dd.dual_rays(gens) == hull_oracles.facet_normals_by_hyperplane_search(gens)


def test_dual_rays_refuses_non_int_entries():
    # truncating 1/2 to 0 would give the rays of another cone, (0, 1) and (1, 0)
    with pytest.raises(ValueError, match="ints"):
        dd.dual_rays([(1, 0), (Fraction(1, 2), 1)])
    with pytest.raises(ValueError, match="ints"):
        dd.dual_rays([(1, 0), (0.5, 1)])
    assert dd.dual_rays([(1, 0), (1, 2)]) == [(0, 1), (2, -1)]


@pytest.mark.parametrize("gens, message", [
    ([], "no generators"),
    ([(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, -1, 0)], "do not span"),
    ([(0, 0), (0, 0)], "do not span"),
], ids=["empty", "hyperplane", "zero"])
def test_dual_rays_refuses_generators_that_do_not_span(gens, message):
    with pytest.raises(ValueError, match=message):
        dd.dual_rays(gens)


#: Deterministic inputs for the paths of the insertion loop, each checked
#: against the hyperplane search.
EDGE_CASES = {
    # (1, 1, 0) is inserted right after the seed; no ray violates it and
    # the seed ray (0, 0, 1) is tight on it
    "every_ray_satisfies": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, -1, 1), (0, 1, -1)],
    # the zero generator is skipped by the seed and inserted after it, so
    # every ray is tight there
    "zero_generator": [(1, 0, 0), (0, 1, 0), (0, 0, 0), (0, 0, 1), (1, -1, 1), (-1, 2, 1)],
    "repeated_after_seed": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 1), (1, -1, 1),
                            (2, -2, 2), (-1, 2, 1)],
    # the first three generators are the seed, so iteration k inserts
    # generator k; the seed ray (1, 0, -1) and the ray (-1, 1, 1) made at
    # iteration 3 share their last zero at iteration 4, strictly between
    # the younger one's creation and iteration 5, where (1, 0, -1) dies:
    # the pair is tested there, though iteration 4 made neither ray
    "last_shared_zero_between": [(1, 2, 1), (-1, 2, -1), (-1, 1, -2), (2, 1, 1), (-1, 0, -1),
                                 (0, 0, 1)],
    # (1, 0, -2, 1) is in the span of the first three generators, so it is
    # inserted at iteration 4, after the seed, and the seed ray
    # (4, -4, 1, -2) is tight on it too: four zeros in R^4.  The rays
    # (0, 1, 0, 0) and (0, 4, 1, 2) made there each share two of their three
    # zeros with it, and both pairs are adjacent although the partner's
    # zeros exceed the common ones by two: the containment scan finds no
    # third holder
    "rank_bound_degenerate_partner": [(2, 2, 0, 0), (1, 1, -2, -1), (1, 0, 0, 2),
                                      (1, 0, -2, 1), (4, 0, 0, 0), (2, -1, 1, 1),
                                      (2, 0, 0, 0)],
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_dual_rays_edge_cases(name):
    gens = EDGE_CASES[name]
    assert dd.dual_rays(gens) == hull_oracles.facet_normals_by_hyperplane_search(gens)


#: hull_m11 pool instances, read from the benchmark's stored results
REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


@pytest.mark.parametrize("key", sorted(json.loads(REFERENCE.read_text())["hull_m11"]["pool"]))
def test_hull_m11_pool_facet_files_match_reference(key, tmp_path):
    """`mixcut hull --out` writes each pool instance's facet file byte for byte
    as stored: the benchmark's correctness gate, as its worker runs it.  A
    60 s budget (each takes under a second) makes a slow run exit 3.

    DD reads that deadline at each insertion and once per fii group of its
    containment scan; a slip that makes rays pile up slows every group, so
    lex-order DD also runs first under the stored pool's charged pairs as a
    step budget, which the insertion after the pile-up trips on any
    machine."""
    entry = json.loads(REFERENCE.read_text())["hull_m11"]["pool"][key]
    inst = instance_from_json(json.dumps(entry["instance"]))
    dd.dual_rays(hull.lifted_generators(inst), dd.Budget(steps=entry["dd_pairs"]))
    inst_file = tmp_path / f"{key}.json"
    inst_file.write_text(json.dumps(entry["instance"]))
    out_file = tmp_path / f"{key}.facets.json"
    argv = ["hull", "--instance", str(inst_file), "--out", str(out_file), "--budget", "60"]
    assert cli.main(argv) == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == entry["sha256"]


@pytest.mark.parametrize("key", ["uniform1", "general1"])
def test_charged_steps_match_reference_pairs(key):
    """A completed run charges the candidate pairs the stored pool admitted it
    with, and a budget of exactly that many steps does not trip."""
    entry = json.loads(REFERENCE.read_text())["hull_m11"]["pool"][key]
    inst = instance_from_json(json.dumps(entry["instance"]))
    budget = dd.Budget(steps=entry["dd_pairs"])
    dd.dual_rays(hull.lifted_generators(inst), budget)
    assert budget.steps_left == 0


@pytest.mark.parametrize("key, pairs", [("uniform1", 815_038), ("general1", 205_961)])
def test_enumerate_facets_charges_insertion_order_pairs(key, pairs):
    """`hull.enumerate_facets` inserts in `hull.insertion_order`: its charged
    pairs on the stored pool entries (lex order: 821 711 and 282 794), under
    a budget of exactly that many steps."""
    entry = json.loads(REFERENCE.read_text())["hull_m11"]["pool"][key]
    inst = instance_from_json(json.dumps(entry["instance"]))
    budget = dd.Budget(steps=pairs)
    hull.enumerate_facets(inst, budget)
    assert budget.steps_left == 0


@pytest.mark.parametrize("instance, pairs, nonvertical, vertical", [
    # about 55 blocks of 16 zero sets per containment scan
    (lambda: bench.benchmark_instance("K", 10, 7), 1_586_544, 3_639, 21),
    (lambda: draws.general(12, 2), 11_645_772, 6_987, 562),
], ids=["K(10,7)", "general:12:2"])
def test_facet_counts_where_tight_lists_are_long(instance, pairs, nonvertical, vertical):
    """Late insertions here have hundreds of tight rays, so a pruning slip in
    the block-union scan adds or loses facets.  The budget is exactly the
    charged pairs, so a slip that makes rays pile up trips it."""
    budget = dd.Budget(steps=pairs)
    fs = hull.enumerate_facets(instance(), budget)
    assert budget.steps_left == 0
    assert (len(fs.normals), len(fs.vertical_normals)) == (nonvertical, vertical)


@pytest.mark.parametrize("limit", ["seconds", "steps"])
def test_budget_refuses_nan(limit):
    """A NaN limit compares false with everything, so it would never trip."""
    with pytest.raises(ValueError, match="NaN"):
        dd.Budget(**{limit: float("nan")})


def test_budget_deadline_checked_on_every_charge():
    budget = dd.Budget(seconds=1e-6)
    time.sleep(0.01)
    with pytest.raises(dd.BudgetExceeded):
        budget.charge()


def test_deadline_read_within_an_insertion(monkeypatch):
    """The clock passes the deadline just after the tenth insertion's charge
    on L(7,4): DD reads it again in that insertion's containment scan (a
    step-free `charge(0)` per fii group) and raises there, before any later
    insertion charges its pairs."""
    now = [0.0]
    monkeypatch.setattr(dd.time, "monotonic", lambda: now[0])
    charges = []

    class Recording(dd.Budget):
        def charge(self, amount=1):
            charges.append(amount)
            super().charge(amount)
            if sum(map(bool, charges)) == 10:
                now[0] = 2.0

    gens = hull.insertion_order(bench.benchmark_instance("L", 7, 4))
    with pytest.raises(dd.BudgetExceeded, match="time"):
        dd.dual_rays(gens, Recording(seconds=1.0))
    assert charges[-1] == 0 and sum(map(bool, charges)) == 10
