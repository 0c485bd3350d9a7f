"""Exact-rational model of the mixing set with a knapsack constraint.

Everything downstream (hull enumeration, inequality families, the bilinear
aggregation engine) works over the types defined here.  Every scalar in these
types is a `fractions.Fraction`; no floating point is used anywhere in a
decision path.  Some decisions run on those rationals scaled to Python ints
over a common denominator: the knapsack test of vertex enumeration, the
vertex slacks here (`packed_slacks`), and every family membership check
(`families`, with one scale per facet).  Each instance has one integer view
(`_int_view`: pi and epsilon over their common denominator D, h over its
own, H), which the knapsack test and `families` both read.  A cut enters the
int paths one way, as its primitive integer normal (`_cut_normal`), the form
in which double description gives a facet; that is also where a cut's
length is checked against the instance.

The vertex slacks behind `cut_is_valid` and `hull.is_facet` are evaluated at
every vertex at once, SIMD within a register on Python's big ints: the
vertex z values over their common denominator, each x column and a ones
column are packed into ints, one fixed-width field per vertex
(`_packing`, per instance and width), so a cut's slacks are one sum of
m + 2 multiples of them, computed in C.  Validity is one AND with the
fields' top bits and the tight vertices one zero-field test.  The vertices
are enumerated once per instance, as ints, into one table (`_vertex_table`:
D z over the z values' common denominator D, the binary x as bytes and the
parity masks), which every layer reads; only the public `enumerate_vertices`
builds `Vertex` objects, from the table, on each call.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .linalg import primitive

#: Exact scalar type used throughout the package.  ``Fraction`` already
#: guarantees lowest terms and a positive denominator.
Rational = Fraction

RationalLike = Union[Fraction, int, str]


class ValidationError(ValueError):
    """Input violates a documented precondition."""


class DimensionError(ValidationError):
    """A cut and an instance disagree on the number of scenarios."""


#: The string form of an exact rational, after outer whitespace is stripped.
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[+-]?[0-9]+)?")


def rat(value: RationalLike) -> Fraction:
    """Parse an exact rational from an int, Fraction or ``"a/b"`` string.

    A string, outer whitespace stripped, must be ASCII digits with an
    optional sign, then optionally ``/`` and a signed nonzero denominator.
    Floats, booleans, decimal strings, digit separators (``"2_0"``),
    non-ASCII digits and inner whitespace are rejected.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        try:
            if not _RATIONAL.fullmatch(text):
                raise ValueError(text)
            num, _, den = text.partition("/")
            return Fraction(int(num), int(den or 1))
        except (ValueError, ZeroDivisionError):
            raise ValidationError(
                f"not an exact rational: {value!r} (need an integer or a/b, b != 0)"
            ) from None
    raise ValidationError(f"not an exact rational: {value!r} (floats are rejected)")


#: One shared string per digit: a facet list is mostly small coefficients, and
#: its JSON payload would otherwise hold one string object per entry.
_DIGITS = tuple(str(d) for d in range(10))


def ratio_str(n: int, d: int) -> str:
    """Render the rational n / d, d > 0, as ``"a"`` or ``"a/b"`` in lowest terms."""
    g = math.gcd(n, d)
    if g == d:
        n //= d
        return _DIGITS[n] if 0 <= n < 10 else str(n)
    return f"{n // g}/{d // g}"


def rat_str(q: Fraction) -> str:
    """Render a rational as ``"a"`` or ``"a/b"`` (inverse of :func:`rat`)."""
    if not isinstance(q, Fraction):
        q = Fraction(q)
    return ratio_str(q.numerator, q.denominator)


def as_index(
    value: object, what: str, size: Optional[int] = None,
    error: type[ValidationError] = ValidationError,
) -> int:
    """An int (a bool, a float or any other value is refused), below `size` if given.

    A refusal raises `error`.  With `size` 0 every int is refused, and the
    message says that there is nothing to index.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{what} must be an int, got {value!r}")
    if size is not None and not 0 <= value < size:
        if not size:
            raise error(f"{what} {value} indexes nothing: the range is empty")
        raise error(f"{what} {value} out of range 0..{size - 1}")
    return value


@dataclass(frozen=True)
class MixingInstance:
    """The tuple (m, h, pi, epsilon) together with its derived indices.

    ``h`` is non-increasing and non-negative, ``pi`` is a probability vector
    with every entry at most ``epsilon``.  ``p`` is the longest prefix of
    scenarios whose probability mass fits under ``epsilon``; ``theta`` is the
    same count when scenarios are taken in order of ascending probability
    (the permutation stored in ``order``).  Instances are immutable and
    hashable, so they can key caches.
    """

    m: int
    h: tuple[Fraction, ...]
    pi: tuple[Fraction, ...]
    epsilon: Fraction
    p: int
    theta: int
    order: tuple[int, ...]
    uniform: bool
    pi_prefix: tuple[Fraction, ...]  # pi_prefix[k] = sum of the first k probabilities

    def __post_init__(self) -> None:
        # Instances key the per-instance caches, which are looked up once per
        # facet or cut, often with an equal instance built again; hashing or
        # comparing every Fraction field on each lookup would cost more than
        # some membership checks.  So both read one key of ints, built here:
        # m and the numerators and denominators of h, pi and epsilon.  The
        # other fields follow from these.
        key = (self.m, *(c for q in (*self.h, *self.pi, self.epsilon)
                         for c in (q.numerator, q.denominator)))
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def h_at(self, i: int) -> Fraction:
        """1-indexed access to h with the convention ``h_{m+1} = 0``."""
        if not 1 <= i <= self.m + 1:
            raise IndexError(f"h index {i} out of range 1..{self.m + 1}")
        if i == self.m + 1:
            return Fraction(0)
        return self.h[i - 1]

    def pi_at(self, i: int) -> Fraction:
        return self.pi[i - 1]

    def prefix(self, k: int) -> Fraction:
        """Cumulative probability of scenarios 1..k (0 for k = 0)."""
        return self.pi_prefix[k]


def build_instance(
    m: int,
    h: Sequence[RationalLike],
    pi: Optional[Sequence[RationalLike]] = None,
    epsilon: RationalLike = 1,
) -> MixingInstance:
    """Validate raw data and compute the derived indices p, theta, order.

    Rejects unsorted or negative ``h``, non-positive probabilities, a
    probability exceeding ``epsilon``, probabilities not summing to one, and
    ``epsilon`` outside [0, 1].
    """
    if m < 1:
        raise ValidationError("need at least one scenario")
    hv = tuple(rat(x) for x in h)
    if len(hv) != m:
        raise ValidationError(f"expected {m} right-hand sides, got {len(hv)}")
    if any(hv[i] < hv[i + 1] for i in range(m - 1)):
        raise ValidationError("h must be non-increasing")
    if hv[-1] < 0:
        raise ValidationError("h must be non-negative")
    eps = rat(epsilon)
    if not 0 <= eps <= 1:
        raise ValidationError("epsilon must lie in [0, 1]")
    if pi is None:
        pv = tuple(Fraction(1, m) for _ in range(m))
    else:
        pv = tuple(rat(x) for x in pi)
        if len(pv) != m:
            raise ValidationError(f"expected {m} probabilities, got {len(pv)}")
    if any(q <= 0 for q in pv):
        raise ValidationError("probabilities must be positive")
    if sum(pv) != 1:
        raise ValidationError("probabilities must sum to 1")
    if any(q > eps for q in pv):
        raise ValidationError("every probability must be at most epsilon")

    prefix = [Fraction(0)]
    for q in pv:
        prefix.append(prefix[-1] + q)
    p = max(k for k in range(1, m + 1) if prefix[k] <= eps)

    order = tuple(sorted(range(1, m + 1), key=lambda i: (pv[i - 1], i)))
    acc = Fraction(0)
    theta = 0
    for i in order:
        acc += pv[i - 1]
        if acc > eps:
            break
        theta += 1

    uniform = all(q == Fraction(1, m) for q in pv)
    return MixingInstance(
        m=m,
        h=hv,
        pi=pv,
        epsilon=eps,
        p=p,
        theta=theta,
        order=order,
        uniform=uniform,
        pi_prefix=tuple(prefix),
    )


# ---------------------------------------------------------------------------
# Integer view


def _scale(x: Fraction, L: int) -> int:
    """L x, for a multiple L of the denominator of x."""
    return x.numerator * (L // x.denominator)


@dataclass(frozen=True)
class _IntView:
    """An instance over common denominators, built once per instance.

    D is the lcm of the denominators of pi and epsilon, H that of h.  ``pi``
    and ``h`` are indexed by scenario (index 0 unused): pi[j] = D pi_j and
    h[i] = H h_i, with h[m + 1] = 0.  ``prefix[k]`` is D times the mass of
    scenarios 1..k and ``eps`` is D epsilon.
    """

    m: int
    D: int
    pi: tuple[int, ...]
    prefix: tuple[int, ...]
    eps: int
    H: int
    h: tuple[int, ...]

    def h_times(self, F: int) -> tuple[int, ...]:
        """F h, indexed as ``h``, for a multiple F of H."""
        if F == self.H:
            return self.h
        k = F // self.H
        return tuple(v * k for v in self.h)


@lru_cache(maxsize=256)
def _int_view(inst: MixingInstance) -> _IntView:
    D = math.lcm(inst.epsilon.denominator, *(x.denominator for x in inst.pi))
    H = math.lcm(*(x.denominator for x in inst.h))
    return _IntView(
        m=inst.m,
        D=D,
        pi=(0,) + tuple(_scale(x, D) for x in inst.pi),
        prefix=tuple(_scale(x, D) for x in inst.pi_prefix),
        eps=_scale(inst.epsilon, D),
        H=H,
        h=(0,) + tuple(_scale(x, H) for x in inst.h) + (0,),
    )


@dataclass(frozen=True)
class LinearCut:
    """An inequality ``z_coef * z + sum_i x_coefs[i] * x_i >= rhs``.

    Canonical form (see :func:`canonicalize`) makes cuts comparable: equal
    dataclasses are the same inequality up to positive scaling.
    """

    z_coef: Fraction
    x_coefs: tuple[Fraction, ...]
    rhs: Fraction

    @property
    def m(self) -> int:
        return len(self.x_coefs)

    def evaluate(self, z: Fraction, x: Sequence[int]) -> Fraction:
        return self.z_coef * z + sum(c * xi for c, xi in zip(self.x_coefs, x) if xi)

    def scaled(self, factor: Fraction) -> "LinearCut":
        if factor <= 0:
            raise ValidationError("cuts may only be scaled by positive rationals")
        return LinearCut(
            self.z_coef * factor,
            tuple(c * factor for c in self.x_coefs),
            self.rhs * factor,
        )

    def sort_key(self):
        return (self.z_coef, self.x_coefs, self.rhs)


def make_cut(z: RationalLike, x: Iterable[RationalLike], rhs: RationalLike) -> LinearCut:
    return LinearCut(rat(z), tuple(rat(c) for c in x), rat(rhs))


def canonicalize(cut: LinearCut) -> LinearCut:
    """Scale a cut to canonical form (idempotent, positive scaling only).

    If the z coefficient is nonzero the cut is scaled so |z_coef| = 1; for a
    vertical cut the first nonzero x coefficient gets absolute value 1.  A
    cut whose leading coefficient is already +-1 is returned unchanged.
    """
    lead = cut.z_coef or next((c for c in cut.x_coefs if c), None)
    if lead is None:
        raise ValidationError("cannot canonicalize the all-zero cut")
    if abs(lead) == 1:
        return cut
    return cut.scaled(1 / abs(lead))


@dataclass(frozen=True, slots=True)
class Vertex:
    """A minimal point of the mixing set: binary x with z forced as low as possible.

    Slotted: :func:`enumerate_vertices` builds one per vertex on each call,
    and a slotted vertex takes about 56 bytes against 97 with an instance
    dict (Python 3.11).
    """

    z: Fraction
    x: tuple[int, ...]


def enumerate_vertices(inst: MixingInstance) -> tuple[Vertex, ...]:
    """All minimal-z points of the instance, sorted lexicographically by x.

    One vertex per feasible binary ``x`` (knapsack ``pi . x <= epsilon``) with
    ``z = max{h_i : x_i = 0}`` (0 when x is the all-ones vector).  Together
    with the recession ray (1, 0) these generate the convex hull.  Built from
    the vertex table on each call; the package's own layers read the table.
    """
    table = _vertex_table(inst)
    return tuple(Vertex(Fraction(z, table.D), tuple(x)) for z, x in zip(table.zs, table.xs))


class _VertexTable(NamedTuple):
    """The vertices of :func:`enumerate_vertices` as ints, in their order.

    ``zs`` holds D z of each vertex, D the lcm of the vertex z denominators.
    The first vertex has x = 0, so z = h_1, and ``zs[0]`` is the largest.
    ``xs`` holds each vertex's binary x as bytes, one byte per coordinate,
    which iterate as the ints 0 and 1.  ``masks`` holds each vertex's ints
    ``(D z,) + x`` mod 2 as one bit mask: bit 0 the parity of D z and bit k
    the binary x_k, so XOR of two masks is their difference mod 2.
    """

    D: int
    zs: tuple[int, ...]
    masks: tuple[int, ...]
    xs: tuple[bytes, ...]


@lru_cache(maxsize=256)
def _vertex_table(inst: MixingInstance) -> _VertexTable:
    """The package's one vertex enumeration: feasible prefixes of x grown one
    coordinate at a time, x_i = 0 before x_i = 1, so the vertices come out
    sorted by x.

    The knapsack is decided on the integer view's ints.  h is non-increasing,
    so z = max{h_i : x_i = 0} is h at the first zero of x, index m + 1
    (h = 0) when there is none.  A first zero at i occurs just when
    scenarios 1 .. i - 1 fit under epsilon, i <= p + 1, so D, the lcm of the
    denominators of h_1 .. h_{p+1}, is known before the walk, and D z is one
    int per first zero, shared by its vertices.
    """
    if inst.m > 20:
        raise ValidationError("vertex enumeration is guarded at m <= 20")
    view = _int_view(inst)
    H = view.H
    D = math.lcm(*(H // math.gcd(h, H) for h in view.h[1:inst.p + 2]))
    z_at = [h * D // H for h in view.h]
    # (room left under epsilon, first zero so far, x so far, its bit mask)
    # for each feasible prefix
    level: list = [(view.eps, inst.m + 1, b"", 0)]
    for i, w in enumerate(view.pi[1:], 1):
        bit = 1 << i
        grown = []
        for room, first, x, bits in level:
            grown.append((room, min(first, i), x + b"\0", bits))
            if w <= room:
                grown.append((room - w, first, x + b"\1", bits | bit))
        level = grown
    zs = tuple(z_at[first] for _, first, _, _ in level)
    masks = tuple((z & 1) | bits for z, (_, _, _, bits) in zip(zs, level))
    return _VertexTable(D, zs, masks, tuple(x for _, _, x, _ in level))


class _Packing(NamedTuple):
    """The vertex table's columns packed into ints, one field per vertex.

    Vertex v owns bytes v W .. v W + W - 1 of each int (little-endian,
    W = ``width``): ``z`` holds D z (None when D z_1 overflows a field: no cut
    with a z coefficient has this width), ``x[k]`` holds x_{k+1} and ``ones``
    holds 1.  The top bit of every field (`top`) is the bias that offsets
    each field's slack; it is built per call, not cached.
    """

    width: int
    n: int
    z: Optional[int]
    x: tuple[int, ...]
    ones: int

    @property
    def top(self) -> int:
        return self.ones << 8 * self.width - 1

    def nonnegative(self, word: int) -> bool:
        """Does every field of a :func:`packed_slacks` word hold a slack >= 0?"""
        top = self.top
        return (word & top) == top

    def zero_flags(self, word: int) -> bytes:
        """One byte per vertex, nonzero where the slack is zero, for a word
        whose slacks are all nonnegative.

        Each field of ``word ^ top`` is the slack itself, below the top bit;
        adding ``top - ones``, the bits below it, sets the top bit of exactly
        the nonzero ones, with no carry into the next field, and the XOR with
        ``top`` flips that bit.  The flag is each field's top byte.
        """
        W, top = self.width, self.top
        flags = (((word ^ top) + (top - self.ones)) & top) ^ top
        return flags.to_bytes(self.n * W, "little")[W - 1::W]


@lru_cache(maxsize=256)
def _packing(inst: MixingInstance, width: int) -> _Packing:
    table = _vertex_table(inst)
    n = len(table.zs)

    def column(fields: bytes) -> int:
        buf = bytearray(n * width)
        buf[::width] = fields
        return int.from_bytes(buf, "little")

    z = None
    if table.zs[0] >> 8 * width == 0:
        z = int.from_bytes(b"".join(v.to_bytes(width, "little") for v in table.zs), "little")
    x = tuple(column(bytes(col)) for col in zip(*table.xs))
    return _Packing(width, n, z, x, column(b"\x01" * n))


def _cut_normal(inst: MixingInstance, cut: LinearCut) -> tuple[int, ...]:
    """The cut's primitive integer normal (a_z, a_1, ..., a_m, a_0) of
    a_z z + a.x + a_0 >= 0: coprime ints, a positive multiple of
    (z_coef, x_coefs, -rhs), as double description gives a facet.

    Every int path reads a cut through here, so this is where a cut whose
    number of x coefficients is not m is refused (:class:`DimensionError`).
    """
    if cut.m != inst.m:
        raise DimensionError(f"cut has {cut.m} x coefficients, instance has m={inst.m}")
    # rhs is negated as an int: a Fraction negation costs about a microsecond
    *a, rhs = primitive((cut.z_coef, *cut.x_coefs, cut.rhs))
    return (*a, -rhs)


def packed_slacks(inst: MixingInstance, cut: LinearCut) -> tuple[int, _Packing]:
    """The :func:`_normal_slacks` of the cut's normal (:func:`_cut_normal`)."""
    return _normal_slacks(inst, _cut_normal(inst, cut))


def _normal_slacks(inst: MixingInstance, normal: Sequence[int]) -> tuple[int, _Packing]:
    """Every vertex's slack ``a_z z + a.x + a_0`` of the int normal
    (a_z, a_1, ..., a_m, a_0) times D, in one int, with the packing that lays
    it out.

    D is the lcm of the vertex z values' denominators, so each slack is an
    int, D times the slack of the normal at the vertex (a positive multiple
    of ``cut.evaluate(v.z, v.x) - cut.rhs`` for a cut of that normal): its
    sign, and whether it is zero, are the same.  Field v of
    the word (in :func:`enumerate_vertices` order) holds the slack plus the
    bias 2^(8 W - 1), so its top bit says slack >= 0 (see
    `_Packing.nonnegative` and `_Packing.zero_flags`).  The word is
    ``a_z Z + D sum_k a_k X_k + (bias + D a_0) ONES`` over the packed
    columns, exact because every field's value lies in 0 .. 2^(8 W) - 1: W
    is the fewest bytes that hold the slack bound
    ``|a_z| D z_1 + D |a_0| + D sum |a_k|`` with a sign bit and one spare bit.
    """
    a_z, *a, a_0 = normal
    table = _vertex_table(inst)
    D = table.D
    bound = abs(a_z) * table.zs[0] + D * (abs(a_0) + sum(map(abs, a)))
    packing = _packing(inst, (bound.bit_length() + 9) // 8)
    word = ((1 << 8 * packing.width - 1) + D * a_0) * packing.ones
    if a_z:
        word += a_z * packing.z
    for c, column in zip(a, packing.x):
        if c:
            word += D * c * column
    return word, packing


def cut_is_valid(inst: MixingInstance, cut: LinearCut) -> bool:
    """Exact validity oracle: the cut holds at every vertex and along the ray.

    The recession ray (1, 0) makes ``z_coef >= 0`` necessary; point-wise
    validity over the minimal vertices is then sufficient for the whole set;
    it is read from the top bits of the :func:`packed_slacks` word.
    """
    word, packing = packed_slacks(inst, cut)
    return cut.z_coef >= 0 and packing.nonnegative(word)


def mixing_form(
    m: int,
    t_set: Sequence[int],
    coefs: Sequence[RationalLike],
    phi_set: Sequence[int],
    phis: Sequence[RationalLike],
    rhs_base: RationalLike,
) -> LinearCut:
    """Assemble ``z + sum coef_t x_t + sum phi_q (1 - x_q) >= rhs_base``.

    Expanding the (1 - x_q) terms gives x coefficient ``-phi_q`` and right
    hand side ``rhs_base - sum(phi)``.  The result is canonical (z_coef = 1).
    """
    t_list = list(t_set)
    q_list = list(phi_set)
    if len(t_list) != len(list(coefs)) or len(q_list) != len(list(phis)):
        raise ValidationError("index and coefficient lists must have equal length")
    if set(t_list) & set(q_list):
        raise ValidationError("positive and lifted index sets must be disjoint")
    for i in t_list + q_list:
        if not 1 <= i <= m:
            raise ValidationError(f"index {i} out of range 1..{m}")
    if len(set(t_list)) != len(t_list) or len(set(q_list)) != len(q_list):
        raise ValidationError("index sets may not repeat entries")
    phv = [rat(v) for v in phis]
    if any(v < 0 for v in phv):
        raise ValidationError("lifting coefficients must be non-negative")
    x = [Fraction(0)] * m
    for i, c in zip(t_list, coefs):
        x[i - 1] = rat(c)
    for q, v in zip(q_list, phv):
        x[q - 1] = -v
    return LinearCut(Fraction(1), tuple(x), rat(rhs_base) - sum(phv, Fraction(0)))


# ---------------------------------------------------------------------------
# JSON interchange


def json_malformed(doc: str, what: str, value) -> ValidationError:
    return ValidationError(f"malformed {doc} document: {what}, got {value!r}")


def json_object(value, doc: str, required: Iterable[str] = ()) -> dict:
    """A JSON object holding every key in `required`."""
    if not isinstance(value, dict):
        raise json_malformed(doc, "the document must be an object", value)
    for key in required:
        if key not in value:
            raise json_malformed(doc, f"missing field {key!r}", value)
    return value


def json_int(value, doc: str, what: str, lo: int = 0, hi: Optional[int] = None) -> int:
    """A JSON integer within lo..hi (hi exclusive); booleans are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise json_malformed(doc, f"{what} must be an integer", value)
    if value < lo or (hi is not None and value >= hi):
        top = "" if hi is None else hi - 1
        raise json_malformed(doc, f"{what} must lie within {lo}..{top}", value)
    return value


def json_array(value, doc: str, what: str, length: Optional[int] = None) -> list:
    if not isinstance(value, list) or (length is not None and len(value) != length):
        size = "" if length is None else f" of {length} entries"
        raise json_malformed(doc, f"{what} must be an array{size}", value)
    return value


def json_ints(value, doc: str, what: str, lo: int = 0) -> tuple[int, ...]:
    return tuple(json_int(v, doc, f"{what} entry", lo) for v in json_array(value, doc, what))


def json_rats(value, doc: str, what: str, length: Optional[int] = None) -> tuple[Fraction, ...]:
    return tuple(rat(v) for v in json_array(value, doc, what, length))


def instance_to_json(inst: MixingInstance) -> str:
    payload = {
        "m": inst.m,
        "h": [rat_str(v) for v in inst.h],
        "pi": [rat_str(v) for v in inst.pi],
        "epsilon": rat_str(inst.epsilon),
    }
    return json.dumps(payload)


def instance_from_json(text: str) -> MixingInstance:
    """Parse :func:`instance_to_json` output; a missing or null ``pi`` is uniform.

    ``m`` must be a JSON integer and ``h`` and ``pi`` arrays; any other
    malformation raises :class:`ValidationError`.
    """
    payload = json_object(json.loads(text), "instance", ("m", "h", "epsilon"))
    pi = payload.get("pi")
    return build_instance(
        json_int(payload["m"], "instance", "m", 1),
        json_array(payload["h"], "instance", "h"),
        None if pi is None else json_array(pi, "instance", "pi"),
        payload["epsilon"],
    )


def cut_to_dict(cut: LinearCut) -> dict:
    """The JSON object of a cut: ``z``, ``x`` and ``rhs`` as rational strings."""
    return {
        "z": rat_str(cut.z_coef),
        "x": [rat_str(c) for c in cut.x_coefs],
        "rhs": rat_str(cut.rhs),
    }


def cut_to_json(cut: LinearCut) -> str:
    return json.dumps(cut_to_dict(cut))


def cut_from_dict(payload) -> LinearCut:
    """Read a :func:`cut_to_dict` object (parsed JSON); ``x`` must be an array.

    Any other malformation raises :class:`ValidationError`.
    """
    payload = json_object(payload, "cut", ("z", "x", "rhs"))
    return make_cut(payload["z"], json_array(payload["x"], "cut", "x"), payload["rhs"])


def cut_from_json(text: str) -> LinearCut:
    """Parse :func:`cut_to_json` output (see :func:`cut_from_dict`)."""
    return cut_from_dict(json.loads(text))


def vertex_to_dict(v: Vertex) -> dict:
    return {"z": rat_str(v.z), "x": list(v.x)}
