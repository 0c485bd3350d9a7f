"""The package's elimination (`linalg.rank`, `linalg.dual_basis`) against the
oracles' reference elimination (`hull_oracles._echelon`): rank, independent
rows, nullspace, dual basis."""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from mixcut import hull, linalg
from mixcut.bench import benchmark_instance
import hull_oracles

# mostly zeros and small values, so that dependent rows and free columns are common
INTEGERS = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, 5])
RATIONALS = st.builds(Fraction, INTEGERS, st.integers(1, 4))


@st.composite
def matrices(draw):
    """A row list with some rows drawn as combinations of earlier rows."""
    dim = draw(st.integers(1, 6))
    entry = draw(st.sampled_from([INTEGERS, RATIONALS]))
    rows: list[tuple] = []
    for _ in range(draw(st.integers(0, 7))):
        if rows and draw(st.booleans()):
            coefs = [draw(RATIONALS) for _ in rows]
            rows.append(tuple(sum(c * r[j] for c, r in zip(coefs, rows)) for j in range(dim)))
        else:
            rows.append(tuple(draw(entry) for _ in range(dim)))
    return rows, dim


@st.composite
def integer_matrices(draw):
    """Integer rows, some drawn as integer combinations of earlier rows."""
    dim = draw(st.integers(1, 6))
    rows: list[tuple[int, ...]] = []
    for _ in range(draw(st.integers(0, 7))):
        if rows and draw(st.booleans()):
            coefs = [draw(INTEGERS) for _ in rows]
            rows.append(tuple(sum(c * r[j] for c, r in zip(coefs, rows)) for j in range(dim)))
        else:
            rows.append(tuple(draw(INTEGERS) for _ in range(dim)))
    return rows


def _dot(a, b):
    return sum(Fraction(x) * Fraction(y) for x, y in zip(a, b))


def _free_columns(rows, dim):
    """Columns that do not raise the rank of the column prefix before them."""
    ranks = [linalg.rank([r[:c] for r in rows]) for c in range(dim + 1)]
    return [c for c in range(dim) if ranks[c + 1] == ranks[c]]


class TestKernel:
    @given(matrices())
    @settings(max_examples=300, deadline=None)
    def test_rank_nullity(self, case):
        rows, dim = case
        assert linalg.rank(rows) + len(hull_oracles.nullspace(rows, dim)) == dim

    @given(matrices())
    @settings(max_examples=300, deadline=None)
    def test_kernel_vectors_primitive_and_orthogonal(self, case):
        rows, dim = case
        for v in hull_oracles.nullspace(rows, dim):
            assert all(type(x) is int for x in v)
            g = 0
            for x in v:
                g = gcd(g, x)
            assert g == 1
            assert all(_dot(r, v) == 0 for r in rows)

    @given(matrices())
    @settings(max_examples=300, deadline=None)
    def test_kernel_vector_owns_its_free_column(self, case):
        rows, dim = case
        kernel = hull_oracles.nullspace(rows, dim)
        free = _free_columns(rows, dim)
        assert len(kernel) == len(free)
        for v, fc in zip(kernel, free):
            assert v[fc] > 0
            assert all(v[c] == 0 for c in free if c != fc)

    @given(matrices(), st.integers(0, 7))
    @settings(max_examples=300, deadline=None)
    def test_independent_prefix(self, case, need):
        rows, _ = case
        chosen = hull_oracles.independent_prefix(rows, need)
        assert chosen == sorted(set(chosen))
        assert linalg.rank([rows[i] for i in chosen]) == len(chosen)
        # rows examined: all of them, unless `need` independent rows were found
        # (none at all for need = 0)
        if len(chosen) == need:
            examined = chosen[-1] + 1 if chosen else 0
        else:
            examined = len(rows)
        for idx in range(examined):
            if idx not in chosen:
                before = [rows[i] for i in chosen if i < idx]
                assert linalg.rank(before + [rows[idx]]) == len(before)
        if len(chosen) < need:
            assert len(chosen) == linalg.rank(rows)

    @given(matrices(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_rank_invariant_under_row_scaling(self, case, data):
        rows, _ = case
        scales = [
            Fraction(data.draw(st.sampled_from([-3, -1, 1, 2, 7])), data.draw(st.integers(1, 5)))
            for _ in rows
        ]
        scaled = [tuple(s * x for x in r) for s, r in zip(scales, rows)]
        assert linalg.rank(scaled) == linalg.rank(rows)

    def test_dependent_leading_rows(self):
        # like DD generators: the first d rows span only a hyperplane
        gens = [
            (1, 0, 0, 1),
            (2, 0, 0, 2),
            (0, 1, 0, 1),
            (1, 1, 0, 2),
            (0, 0, 1, 1),
            (3, -1, 2, 4),
            (0, 0, 0, 1),
            (5, 5, 5, 5),
        ]
        assert hull_oracles.independent_prefix(gens, 4) == [0, 2, 4, 6]
        assert hull_oracles.independent_prefix(gens, 2) == [0, 2]
        assert linalg.rank(gens[:6]) == 3
        assert hull_oracles.nullspace(gens[:6], 4) == [(-1, -1, -1, 1)]
        assert hull_oracles.nullspace(gens, 4) == []


@given(matrices())
@settings(max_examples=300, deadline=None)
def test_rank_matches_reference_elimination(case):
    rows, _ = case
    assert linalg.rank(rows) == hull_oracles.rank(rows)


def _check_dual_basis(rows, dim):
    """`dual_basis` raises the reference's independent rows and, at rank
    `dim`, returns primitive duals: each zero on the other raised rows and
    positive on its own."""
    raised, duals = linalg.dual_basis(rows)
    assert raised == hull_oracles.independent_prefix(rows, dim)
    if len(raised) < dim:
        assert duals == []
        return raised
    assert len(duals) == dim
    for k, v in zip(raised, duals):
        assert all(type(x) is int for x in v)
        assert gcd(*v) == 1
        for j in raised:
            s = sum(x * y for x, y in zip(v, rows[j]))
            assert s > 0 if j == k else s == 0
    return raised


@given(matrices())
@settings(max_examples=300, deadline=None)
def test_dual_basis_matches_reference(case):
    rows, dim = case
    _check_dual_basis([linalg.primitive(r) for r in rows], dim)


@given(integer_matrices())
@settings(max_examples=300, deadline=None)
def test_dual_basis_matches_reference_on_integer_rows(rows):
    if rows:
        _check_dual_basis(rows, len(rows[0]))
    else:
        assert linalg.dual_basis(rows) == ([], [])


def test_dual_basis_on_l10_5_insertion_order():
    # the seed of DD on L(10,5): its last generator is 383 of 639
    gens = hull.insertion_order(benchmark_instance("L", 10, 5))
    assert len(gens) == 639
    assert _check_dual_basis(gens, len(gens[0]))[-1] == 383


@given(st.lists(st.integers(0, 255), max_size=8))
@settings(max_examples=300, deadline=None)
def test_rank_mod2_is_log2_of_the_xor_span(rows):
    span = {0}
    for row in rows:
        span |= {s ^ row for s in span}
    assert 1 << linalg.rank_mod2(rows) == len(span)


@given(integer_matrices())
@settings(max_examples=300, deadline=None)
def test_rank_mod2_of_parity_rows_bounds_rank_over_q(rows):
    """A minor that is nonzero mod 2 is nonzero over Z."""
    masks = [sum((v & 1) << k for k, v in enumerate(row)) for row in rows]
    assert linalg.rank_mod2(masks) <= linalg.rank(rows)
