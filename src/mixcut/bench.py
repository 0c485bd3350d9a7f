"""Benchmark catalog, hull-coverage computation, and report emission.

The two benchmark families are uniform instances over fixed right-hand-side
sequences; coverage of an instance reports, per inequality family, how many
nonvertical hull facets some parameterization reproduces.  Reference
percentages from the source tables are embedded for the acceptance checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Collection, Optional, Sequence

from . import dd, families, hull
from .core import MixingInstance, ValidationError, build_instance

SEQ_L = (20, 18, 14, 11, 6, 5, 4, 3, 2, 1)
SEQ_K = (40, 38, 34, 31, 26, 16, 8, 4, 2, 1)

DEFAULT_FAMILIES = ("zhao", "blp_uniform", "blp_generic")

#: Reference coverage percentages (family columns as printed in the source
#: tables): (m, p) -> (zhao, blp_uniform, blp_generic).  Cells with p = 1 or
#: p = m are trivial and not tabulated.
PAPER_TABLE_L = {
    (3, 2): ("100.0", "100.0", "100.0"),
    (4, 2): ("100.0", "100.0", "100.0"),
    (4, 3): ("100.0", "100.0", "100.0"),
    (5, 2): ("100.0", "100.0", "100.0"),
    (5, 3): ("84.62", "92.31", "100.0"),
    (5, 4): ("100.0", "100.0", "100.0"),
    (6, 2): ("100.0", "100.0", "100.0"),
    (6, 3): ("72.73", "86.36", "100.0"),
    (6, 4): ("76.32", "86.84", "100.0"),
    (6, 5): ("100.0", "100.0", "100.0"),
    (7, 2): ("100.0", "100.0", "100.0"),
    (7, 3): ("64.71", "82.35", "100.0"),
    (7, 4): ("59.3", "76.74", "100.0"),
    (7, 5): ("63.0", "75.0", "100.0"),
    (7, 6): ("100.0", "100.0", "100.0"),
    (8, 2): ("100.0", "100.0", "100.0"),
    (8, 3): ("59.18", "79.59", "100.0"),
    (8, 4): ("48.81", "70.24", "100.0"),
    (8, 5): ("41.95", "60.4", "100.0"),
    (8, 6): ("61.43", "71.43", "100.0"),
    (8, 7): ("100.0", "100.0", "100.0"),
    (9, 2): ("100.0", "100.0", "100.0"),
    (9, 3): ("55.22", "77.61", "100.0"),
    (9, 4): ("41.98", "65.87", "100.0"),
    (9, 5): ("31.95", "53.39", "100.0"),
    (9, 6): ("37.78", "54.07", "100.0"),
    (9, 7): ("60.81", "70.95", "99.77"),
    (9, 8): ("100.0", "100.0", "100.0"),
    (10, 2): ("100.0", "100.0", "100.0"),
    (10, 3): ("52.27", "76.14", "100.0"),
    (10, 4): ("37.23", "62.77", "100.0"),
}

PAPER_TABLE_K = {
    (3, 2): ("100.0", "100.0", "100.0"),
    (4, 2): ("100.0", "100.0", "100.0"),
    (4, 3): ("100.0", "100.0", "100.0"),
    (5, 2): ("100.0", "100.0", "100.0"),
    (5, 3): ("84.62", "92.31", "100.0"),
    (5, 4): ("100.0", "100.0", "100.0"),
    (6, 2): ("100.0", "100.0", "100.0"),
    (6, 3): ("72.73", "86.36", "100.0"),
    (6, 4): ("76.32", "86.84", "100.0"),
    (6, 5): ("100.0", "100.0", "100.0"),
    (7, 2): ("100.0", "100.0", "100.0"),
    (7, 3): ("64.71", "82.35", "100.0"),
    (7, 4): ("59.3", "76.74", "100.0"),
    (7, 5): ("70.87", "80.58", "97.09"),
    (7, 6): ("100.0", "100.0", "100.0"),
    (8, 2): ("100.0", "100.0", "100.0"),
    (8, 3): ("59.18", "79.59", "100.0"),
    (8, 4): ("48.81", "70.24", "100.0"),
    (8, 5): ("48.97", "64.01", "92.92"),
    (8, 6): ("62.8", "70.4", "96.0"),
    (8, 7): ("100.0", "100.0", "100.0"),
    (9, 2): ("100.0", "100.0", "100.0"),
    (9, 3): ("55.22", "77.61", "100.0"),
    (9, 4): ("41.98", "65.87", "100.0"),
    (9, 5): ("37.51", "54.83", "91.34"),
    (9, 6): ("35.88", "48.6", "90.92"),
    (9, 7): ("53.59", "61.27", "95.66"),
    (9, 8): ("100.0", "100.0", "100.0"),
    (10, 2): ("100.0", "100.0", "100.0"),
    (10, 3): ("52.27", "76.14", "100.0"),
    (10, 4): ("37.23", "62.77", "100.0"),
}

#: The reference examples, by upper-case label: (sequence, reference table).
_EXAMPLES = {"L": (SEQ_L, PAPER_TABLE_L), "K": (SEQ_K, PAPER_TABLE_K)}


def benchmark_instance(example: str, m: int, p: int) -> MixingInstance:
    """Uniform instance over the first m sequence entries with epsilon = p/m."""
    entry = _EXAMPLES.get(example.upper())
    if entry is None:
        raise ValidationError(f"example must be {' or '.join(map(repr, sorted(_EXAMPLES)))}")
    if not 1 <= p <= m <= 10:
        raise ValidationError("need 1 <= p <= m <= 10")
    return build_instance(m, entry[0][:m], None, Fraction(p, m))


def _hundredths_of_pct(value: Fraction) -> int:
    """The percentage in hundredths, rounded half-up."""
    scaled = value * 10000
    q, rem = divmod(scaled.numerator, scaled.denominator)
    return q + (2 * rem >= scaled.denominator)


def render_pct(value: Fraction) -> str:
    """Percentage string, round-half-up to 2 decimals, one trailing zero trimmed.

    Matches the source tables' rendering ("100.0", "84.62", "60.4").
    """
    q = _hundredths_of_pct(value)
    text = f"{q // 100}.{q % 100:02d}"
    return text[:-1] if text.endswith("0") else text


@dataclass(frozen=True)
class CoverageReport:
    example: Optional[str]
    m: int
    p: int
    facet_total: int
    vertical_count: int
    covered: tuple[tuple[str, int], ...]
    trivial: bool
    incomplete: bool = False

    def count(self, family: str) -> int:
        return dict(self.covered)[family]

    def fraction(self, family: str) -> Fraction:
        if self.facet_total == 0:
            return Fraction(0)
        return Fraction(self.count(family), self.facet_total)

    def pct(self, family: str) -> str:
        return render_pct(self.fraction(family))

    def improvements(self) -> tuple[Fraction, Fraction, Fraction]:
        """(mid - base, top - mid, top - base) over the three table families,
        `DEFAULT_FAMILIES` in order."""
        base, mid, top = map(self.fraction, DEFAULT_FAMILIES)
        return (mid - base, top - mid, top - base)


def coverage(
    inst: MixingInstance,
    family_names: Sequence[str] = DEFAULT_FAMILIES,
    budget: Optional[dd.Budget] = None,
    example: Optional[str] = None,
) -> CoverageReport:
    """Membership counts of every nonvertical hull facet, per family.

    The denominator is the nonvertical facet count; the degenerate facet
    (z bounded by the first uncovered right-hand side) counts as covered by
    every family.  Only the families in `family_names` are evaluated, each
    chain up to its first member; an unknown or repeated family name raises
    `ValidationError`.  The hull comes from `hull.enumerate_facets`, uncached.
    A `dd.Budget` bounds the whole run: DD charges it with its candidate
    pairs, then coverage charges one step per facet checked, so a step budget
    counts DD's pairs plus the facets.  A tripped budget yields an
    "incomplete" report, with zero counts and totals and no fabricated
    percentages.
    """
    for k, name in enumerate(family_names):
        if name not in families.FAMILIES:
            raise ValidationError(f"unknown family {name!r}")
        if name in family_names[:k]:
            raise ValidationError(f"family {name!r} is listed more than once")
    counts = {name: 0 for name in family_names}
    try:
        fs = hull.enumerate_facets(inst, budget)
        for normal in fs.normals:
            if budget is not None:
                budget.charge()
            memberships = families._memberships(inst, normal, family_names)
            for name in family_names:
                if memberships[name]:
                    counts[name] += 1
        facet_total, vertical_count, incomplete = len(fs.normals), len(fs.vertical_normals), False
    except dd.BudgetExceeded:
        counts = {name: 0 for name in family_names}
        facet_total, vertical_count, incomplete = 0, 0, True
    return CoverageReport(
        example=example,
        m=inst.m,
        p=inst.p,
        facet_total=facet_total,
        vertical_count=vertical_count,
        covered=tuple(counts.items()),
        trivial=inst.p in (1, inst.m),
        incomplete=incomplete,
    )


def benchmark_coverage(
    example: str, m: int, p: int, family_names: Sequence[str] = DEFAULT_FAMILIES,
    budget: Optional[dd.Budget] = None,
) -> CoverageReport:
    inst = benchmark_instance(example, m, p)
    return coverage(inst, family_names, budget, example=example.upper())


def check_against_paper(report: CoverageReport) -> list[str]:
    """Mismatch descriptions vs the embedded reference table (empty if clean).

    The table is the one of the report's example, read case-blind; a report
    of any other example gets one "no reference table" problem.  A family
    mismatches when its percentage, rounded half-up to hundredths,
    is more than one hundredth from the reference; both are compared exactly,
    in hundredths.
    """
    if report.example is None or report.incomplete:
        return ["report has no reference row"]
    entry = _EXAMPLES.get(report.example.upper())
    if entry is None:
        return [f"no reference table for example {report.example!r}"]
    row = entry[1].get((report.m, report.p))
    if row is None:
        return [] if report.trivial else [f"no reference row for (m={report.m}, p={report.p})"]
    problems = []
    for name, want in zip(DEFAULT_FAMILIES, row):
        if name not in dict(report.covered):
            continue
        got = _hundredths_of_pct(report.fraction(name))
        if abs(got - Fraction(want) * 100) > 1:
            problems.append(
                f"(m={report.m}, p={report.p}) {name}: computed {report.pct(name)} vs reference {want}"
            )
    return problems


# ---------------------------------------------------------------------------
# Report emission


def _imp_str(value: Fraction) -> str:
    return "-" if value == 0 else render_pct(value)


#: The table columns: each improvement follows the family it improves to.
_COLUMNS = ("example", "m", "p", *DEFAULT_FAMILIES[:2], "imp_mid", DEFAULT_FAMILIES[2], "imp_top",
            "total_imp")

#: The report formats: json holds every field of a report; the others (md is
#: markdown) render the source tables' columns.
_FORMATS = ("csv", "md", "markdown", "json")


def _require_table_families(fmt: str, family_names: Collection[str]) -> None:
    """Refuse a markdown or csv table for a report without every table family."""
    missing = [k for k in DEFAULT_FAMILIES if k not in family_names]
    if fmt != "json" and missing:
        raise ValidationError(
            f"the {fmt} table has the columns {', '.join(DEFAULT_FAMILIES)}; "
            f"a report lacks {', '.join(missing)} (use --format json for other families)"
        )


def _report_row(r: CoverageReport) -> list[str]:
    imp_mid, imp_top, total = map(_imp_str, r.improvements())
    base, mid, top = map(r.pct, DEFAULT_FAMILIES)
    return [r.example or "-", str(r.m), str(r.p), base, mid, imp_mid, top, imp_top, total]


def emit_report(reports: Sequence[CoverageReport], fmt: str = "markdown") -> str:
    """Render coverage rows as markdown, csv, or a json document.

    Markdown and csv render the source tables' three family columns, so
    every report must cover `DEFAULT_FAMILIES`; any other family list needs
    the json form, which holds every field of each report, in field order,
    with ``covered`` as an object.
    """
    if fmt not in _FORMATS:
        raise ValidationError(f"unknown report format {fmt!r}")
    reports = sorted(reports, key=lambda r: (r.example or "", r.m, r.p))
    if fmt == "json":
        payload = [
            {f.name: getattr(r, f.name) for f in fields(r)} | {"covered": dict(r.covered)}
            for r in reports
        ]
        return json.dumps(payload, indent=2)
    for r in reports:
        _require_table_families(fmt, dict(r.covered))
    rows = [list(_COLUMNS)] + [_report_row(r) for r in reports]
    if fmt == "csv":
        return "\n".join(",".join(row) for row in rows)
    out = ["| " + " | ".join(rows[0]) + " |"]
    out.append("|" + "|".join(["---"] * len(rows[0])) + "|")
    for row in rows[1:]:
        out.append("| " + " | ".join(row) + " |")
    return "\n".join(out)
