"""Human-readable run artifacts: a markdown summary and an SVG budget chart.

Everything here is pure string assembly with fixed formats, so two runs that
produce the same numbers produce byte-identical files.
"""

from __future__ import annotations

from html import escape
from pathlib import Path

from .errors import ValidationError
from .evaluator import CurvePoint, EvalReport
from .tables import atomic_write

# metric key -> (column header, higher is better)
_METRIC_COLUMNS = (
    ("auc", "AUC", True),
    ("coeff", "COEFF", True),
    ("corr", "CORR", True),
    ("nrmse", "NRMSE", False),
    ("nmae", "NMAE", False),
)

# size of the budget chart, in SVG user units
_CHART_WIDTH, _CHART_HEIGHT = 640, 400

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(x) -> str:
    if x is None:
        return "-"
    return f"{x:.4f}"


def metrics_table(reports: list[EvalReport]) -> str:
    """Markdown table of the five prediction metrics, best value per column bolded."""
    if not reports:
        raise ValidationError("no reports to tabulate")
    best = {}
    for key, _, higher in _METRIC_COLUMNS:
        vals = [getattr(r.metrics, key) for r in reports]
        best[key] = max(vals) if higher else min(vals)
    lines = [
        "| variant | " + " | ".join(h for _, h, _ in _METRIC_COLUMNS) + " |",
        "|---" * (len(_METRIC_COLUMNS) + 1) + "|",
    ]
    for r in reports:
        cells = [r.variant]
        for key, _, _ in _METRIC_COLUMNS:
            v = getattr(r.metrics, key)
            cell = _fmt(v)
            if v == best[key]:
                cell = f"**{cell}**"
            cells.append(cell)
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def allocation_table(reports: list[EvalReport]) -> str:
    """Markdown table of the budgeted-allocation estimates, best LPA bolded."""
    rows = [r for r in reports if r.lpa is not None]
    if not rows:
        return "_no allocation results_"
    best_lpa = max(r.lpa for r in rows)
    lines = [
        "| variant | budget | est. value | est. cost | LPA |",
        "|---|---|---|---|---|",
    ]
    for r in rows:
        lpa = _fmt(r.lpa)
        if r.lpa == best_lpa:
            lpa = f"**{lpa}**"
        lines.append(
            f"| {r.variant} | {_fmt(r.budget)} | {_fmt(r.estimated_value)} "
            f"| {_fmt(r.estimated_cost)} | {lpa} |"
        )
    return "\n".join(lines)


def curve_chart_svg(curves: dict, y_field: str = "lpa") -> str:
    """Line chart of budget sweeps, one polyline per named curve.

    ``curves`` maps a label to a list of :class:`CurvePoint`. Assembled by
    hand so the output depends only on the numbers.
    """
    if not curves:
        raise ValidationError("no curves to draw")
    for label, points in curves.items():
        if not points:
            raise ValidationError(f"curve {label!r} has no points")

    labels = sorted(curves)
    xs = [pt.budget for label in labels for pt in curves[label]]
    ys = [float(getattr(pt, y_field)) for label in labels for pt in curves[label]]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0

    left, right, top, bottom = 70, 20, 20, 45
    plot_w = _CHART_WIDTH - left - right
    plot_h = _CHART_HEIGHT - top - bottom

    def sx(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return top + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CHART_WIDTH}" height="{_CHART_HEIGHT}" '
        f'viewBox="0 0 {_CHART_WIDTH} {_CHART_HEIGHT}">',
        f'<rect width="{_CHART_WIDTH}" height="{_CHART_HEIGHT}" fill="white"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{_CHART_HEIGHT - bottom}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{left}" y1="{_CHART_HEIGHT - bottom}" x2="{_CHART_WIDTH - right}" '
        f'y2="{_CHART_HEIGHT - bottom}" stroke="black" stroke-width="1"/>',
    ]
    for frac in (0.0, 0.5, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        parts.append(
            f'<text x="{sx(xv):.2f}" y="{_CHART_HEIGHT - bottom + 18}" font-size="11" '
            f'text-anchor="middle">{xv:.4g}</text>'
        )
        parts.append(
            f'<text x="{left - 6}" y="{sy(yv) + 4:.2f}" font-size="11" '
            f'text-anchor="end">{yv:.4g}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.2f}" y="{_CHART_HEIGHT - 8}" font-size="12" '
        'text-anchor="middle">budget</text>'
    )
    parts.append(
        f'<text x="16" y="{top + plot_h / 2:.2f}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 16 {top + plot_h / 2:.2f})">{y_field}</text>'
    )
    for k, label in enumerate(labels):
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(
            f"{sx(pt.budget):.2f},{sy(float(getattr(pt, y_field))):.2f}" for pt in curves[label]
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        ly = top + 16 + 16 * k
        lx = _CHART_WIDTH - right - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{lx + 28}" y="{ly}" font-size="12">{escape(label, quote=False)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_report(reports: list[EvalReport], has_chart: bool = False) -> str:
    lines = [
        "# Promotion response model evaluation",
        "",
        "## Prediction metrics (out-of-fold)",
        "",
        metrics_table(reports),
        "",
        "## Budgeted allocation (matched-arm estimates on the trial log)",
        "",
        allocation_table(reports),
        "",
    ]
    if has_chart:
        lines += ["## Lift vs budget", "", "![LPA across the budget grid](lpa_curve.svg)", ""]
    return "\n".join(lines)


def write_report(out_dir, reports: list[EvalReport], curves: dict | None = None):
    """Write report.md (and lpa_curve.svg when curves are given); returns the paths.

    Both go through ``atomic_write``, so a render or write that fails leaves
    any earlier file of that name as it was.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if curves:
        svg_path = out / "lpa_curve.svg"
        atomic_write(svg_path, lambda p: p.write_text(curve_chart_svg(curves)))
        written.append(svg_path)
    md_path = out / "report.md"
    atomic_write(md_path, lambda p: p.write_text(render_report(reports, has_chart=bool(curves))))
    written.insert(0, md_path)
    return written
