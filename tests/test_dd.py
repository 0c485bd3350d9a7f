"""Double description against the literal hyperplane-search oracle, and the DD budget."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcut import dd, linalg

COORDS = st.integers(-3, 3)


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
    basis = linalg.nullspace([normal], d)
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
    if linalg.rank(gens) < d:
        gens = gens + [tuple(int(i == j) for j in range(d)) for i in range(d)]
    return gens


@given(generator_sets())
@settings(max_examples=400, deadline=None)
def test_dual_rays_match_hyperplane_search(gens):
    assert dd.dual_rays(gens) == dd.facet_normals_by_hyperplane_search(gens)


def test_dual_rays_two_dimensional():
    # d = 2: the only candidate pair has an empty common zero set and no third ray
    assert dd.dual_rays([(1, 0), (1, 2), (1, -1)]) == [(1, 1), (2, -1)]
    assert dd.polyhedron_generators([[1], [-1]], [0, -1]) == ([(0,), (1,)], [])


def test_budget_deadline_checked_on_every_charge():
    budget = dd.Budget(seconds=1e-6)
    time.sleep(0.01)
    with pytest.raises(dd.BudgetExceeded):
        budget.charge()
