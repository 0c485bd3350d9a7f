"""Span recording for the traced run, and the per-layer figures built from it.

Spans come from wrapping, at run time, the module attributes through which
one layer of mixcut calls another (for example ``dd.dual_rays`` as seen from
``hull.enumerate_facets``).  Every global binding of a wrapped function in
every ``mixcut`` module is swapped, so calls made through ``from .core import
...`` names are caught too.  Nothing under ``src/`` is edited.

A span is ``(name, start, end, parent, item, note)``: ``parent`` is the index
of the enclosing span (``None`` at item level), ``item`` the benchmark item it
belongs to, and ``note`` a small count taken from the call's result.  Spans
stay in memory and are written out when the worker exits.
"""

from __future__ import annotations

import math
import statistics
import sys
from time import perf_counter


def _len(args, result):
    return len(result)


def _facet_split(args, result):
    return [len(result.nonvertical), len(result.vertical)]


def _covered(args, result):
    return [bool(result[name]) for name in COVER_FAMILIES]


def _accepted(args, result):
    return bool(result[0])


COVER_FAMILIES = ("zhao", "blp_uniform", "blp_generic")

#: (span name, module, attribute, note).  The layer is the part of the span
#: name before the first dot.
WRAPPED = (
    ("bench.coverage", "bench", "coverage", None),
    ("bench.emit_report", "bench", "emit_report", None),
    ("cli.main", "cli", "main", None),
    ("hull.enumerate_facets", "hull", "enumerate_facets", _facet_split),
    ("hull.lifted_generators", "hull", "lifted_generators", _len),
    ("hull.is_facet", "hull", "is_facet", None),
    ("hull.facetset_to_json", "hull", "facetset_to_json", None),
    ("dd.dual_rays", "dd", "dual_rays", _len),
    ("families.membership", "families", "_memberships", _covered),
    ("core.vertices", "core", "enumerate_vertices", None),
    ("core.cut_is_valid", "core", "cut_is_valid", None),
    ("blp.aggregate", "blp", "aggregate", None),
    ("blp.substitute", "blp", "substitute", None),
    ("blp.assemble_dual", "blp", "assemble_dual", None),
    ("blp.cone_membership", "blp", "cone_membership", _accepted),
    ("linalg.affine_rank", "linalg", "affine_rank", None),
)

ITEM = "item"
#: Span of a calibration sample the worker takes inside an item.
CALIBRATION = "calibration"


class Tracer:
    """Records spans while enabled; `install` swaps the wrappers in."""

    def __init__(self) -> None:
        self.spans: list = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._item = None
        self._swaps: list = []

    def wrap(self, name, fn, note=None):
        """fn, recording a span named `name` around each call."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = [name, start, end, parent, self._item, None]
            if note is not None:
                spans[idx][5] = note(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Swap every binding of each wrapped function in the mixcut modules."""
        self.missing = []
        modules = [m for key, m in sys.modules.items()
                   if key == "mixcut" or key.startswith("mixcut.")]
        for name, module, attr, note in WRAPPED:
            owner = sys.modules.get(f"mixcut.{module}")
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, original, note)
            for mod in modules:
                space = vars(mod)
                for key, value in list(space.items()):
                    if value is original:
                        space[key] = wrapped
                        self._swaps.append((space, key, original))

    def uninstall(self) -> None:
        for space, key, original in self._swaps:
            space[key] = original
        self._swaps.clear()

    def run_item(self, item_key: str, fn):
        """Call fn() inside an item-level span and return its result."""
        self._item = item_key
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn()
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = [ITEM, start, end, None, item_key, None]
            self._item = None

    def take(self) -> list:
        """The spans recorded since the last call; the buffer is emptied."""
        taken = [list(s) for s in self.spans]
        self.spans.clear()
        return taken


# ---------------------------------------------------------------------------
# Analysis (runs in the parent, on the spans the worker wrote out)


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part covered by its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def check_balance(spans: list) -> float:
    """Largest |item wall - (sum of self times inside the item)| over items.

    Each item's own self time is the untraced remainder, so a correct trace
    gives zero up to float rounding.
    """
    own = self_times(spans)
    totals: dict[int, float] = {}
    for idx in range(len(spans)):
        root = idx
        while spans[root][3] is not None:
            root = spans[root][3]
        totals[root] = totals.get(root, 0.0) + own[idx]
    return max(
        (abs((spans[r][2] - spans[r][1]) - total) for r, total in totals.items()),
        default=0.0,
    )


def concat(groups) -> list:
    """Join per-item span lists, shifting each list's parent indices."""
    out: list = []
    for group in groups:
        base = len(out)
        for s in group:
            out.append(s[:3] + [None if s[3] is None else s[3] + base] + s[4:])
    return out


def nearest_rank(values, q: float) -> float:
    """Nearest-rank q-quantile (0 < q <= 1) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans: list) -> dict[str, float]:
    """The per-layer figures: self time per layer plus the work counts."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for idx, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(idx)

    def self_s(*names):
        return sum(own[i] for n in names for i in by_name.get(n, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def notes(name):
        return [spans[i][5] for i in by_name.get(name, ())]

    out: dict[str, float] = {}
    out["dd.dual_rays_s"] = self_s("dd.dual_rays")
    out["dd.dual_rays_calls"] = calls("dd.dual_rays")
    out["dd.facets_out"] = sum(notes("dd.dual_rays"))

    member = by_name.get("families.membership", [])
    member_ms = [(spans[i][2] - spans[i][1]) * 1000 for i in member]
    out["families.membership_s"] = self_s("families.membership")
    out["families.facets"] = len(member)
    out["families.facet_p50_ms"] = statistics.median(member_ms) if member_ms else 0.0
    out["families.facet_p99_ms"] = nearest_rank(member_ms, 0.99) if member_ms else 0.0
    flags = notes("families.membership")
    for k, family in enumerate(COVER_FAMILIES):
        covered = sum(1 for f in flags if f[k])
        out[f"families.covered.{family}"] = covered
        out[f"families.cover_ratio.{family}"] = covered / len(flags) if flags else 0.0

    split = notes("hull.enumerate_facets")
    out["hull.self_s"] = self_s("hull.enumerate_facets", "hull.lifted_generators")
    out["hull.generators"] = sum(notes("hull.lifted_generators"))
    out["hull.facets_nonvertical"] = sum(s[0] for s in split)
    out["hull.facets_vertical"] = sum(s[1] for s in split)
    out["hull.is_facet_s"] = self_s("hull.is_facet")
    out["hull.facetset_to_json_s"] = self_s("hull.facetset_to_json")

    out["core.vertices_s"] = self_s("core.vertices")
    out["core.cut_is_valid_s"] = self_s("core.cut_is_valid")
    out["core.cut_is_valid_calls"] = calls("core.cut_is_valid")

    accepted = notes("blp.cone_membership")
    out["blp.aggregate_s"] = self_s("blp.aggregate")
    out["blp.substitute_s"] = self_s("blp.substitute")
    out["blp.assemble_dual_s"] = self_s("blp.assemble_dual")
    out["blp.cone_membership_s"] = self_s("blp.cone_membership")
    out["blp.roundtrips"] = len(accepted)
    out["blp.dual_accept_ratio"] = sum(accepted) / len(accepted) if accepted else 0.0

    out["linalg.affine_rank_s"] = self_s("linalg.affine_rank")

    out["bench.coverage_s"] = self_s("bench.coverage")
    out["bench.emit_report_s"] = self_s("bench.emit_report")
    out["cli.main_s"] = sum(spans[i][2] - spans[i][1] for i in by_name.get("cli.main", ()))
    out["cli.self_s"] = self_s("cli.main")
    out["trace.remainder_s"] = self_s(ITEM)
    return out


def layer_shares(spans: list) -> dict[str, float]:
    """Share of traced item time spent in each layer's own code.

    The worker's calibration samples inside an item are left out.
    """
    own = self_times(spans)
    totals: dict[str, float] = {}
    for idx, s in enumerate(spans):
        if s[0] == CALIBRATION:
            continue
        layer = "remainder" if s[0] == ITEM else s[0].split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + own[idx]
    wall = sum(totals.values())
    return {k: v / wall for k, v in sorted(totals.items())} if wall else {}
