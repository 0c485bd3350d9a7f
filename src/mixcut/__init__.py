"""Exact cutting-plane toolkit for mixing sets with a knapsack constraint.

Everything is computed over exact rationals: instance modeling and cut
validity (`core`), facet enumeration of the convex hull (`hull`), the
closed-form inequality families with membership certification (`families`),
the bilinear aggregation engine over a simplex (`blp`), and the benchmark
coverage harness with its CLI (`bench`, `cli`).
"""

from .core import (
    LinearCut,
    MixingInstance,
    Rational,
    ValidationError,
    Vertex,
    build_instance,
    canonicalize,
    cut_is_valid,
    enumerate_vertices,
    mixing_form,
)
from .hull import FacetSet, enumerate_facets, is_facet
from .families import member_of
from .bench import benchmark_instance, coverage, emit_report

__version__ = "0.1.0"
__all__ = [
    "LinearCut",
    "MixingInstance",
    "Rational",
    "ValidationError",
    "Vertex",
    "FacetSet",
    "build_instance",
    "benchmark_instance",
    "canonicalize",
    "coverage",
    "cut_is_valid",
    "emit_report",
    "enumerate_facets",
    "enumerate_vertices",
    "is_facet",
    "member_of",
    "mixing_form",
]
