"""Report rendering: table correctness, SVG validity, byte determinism."""

import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from promolab import report as report_module
from promolab.errors import ValidationError
from promolab.evaluator import CurvePoint, EvalReport
from promolab.metrics import MetricReport
from promolab.report import (
    allocation_table,
    curve_chart_svg,
    metrics_table,
    render_report,
    write_report,
)


def make_report(variant, auc, corr=0.4, nrmse=1.5, lpa=None):
    return EvalReport(
        variant=variant,
        n_records=1000,
        metrics=MetricReport(auc=auc, coeff=0.5, corr=corr, nrmse=nrmse, nmae=0.9),
        budget=None if lpa is None else 100.0,
        estimated_value=None if lpa is None else 500.0,
        estimated_cost=None if lpa is None else 95.0,
        lpa=lpa,
    )


class TestMetricsTable:
    def test_best_value_bolded_per_column(self):
        reports = [
            make_report("full", auc=0.78, nrmse=1.4),
            make_report("direct_only", auc=0.74, nrmse=1.9),
        ]
        table = metrics_table(reports)
        lines = table.splitlines()
        assert lines[0].startswith("| variant | AUC |")
        full_row = next(l for l in lines if "| full |" in l)
        other_row = next(l for l in lines if "| direct_only |" in l)
        assert "**0.7800**" in full_row
        assert "**0.7400**" not in other_row
        # lower nrmse wins the error column
        assert "**1.4000**" in full_row

    def test_one_row_per_report(self):
        reports = [make_report(v, auc=0.7) for v in ("a", "b", "c")]
        table = metrics_table(reports)
        assert len(table.splitlines()) == 2 + 3

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            metrics_table([])


class TestAllocationTable:
    def test_best_lpa_bolded(self):
        reports = [
            make_report("full", auc=0.78, lpa=12.5),
            make_report("two_model", auc=0.76, lpa=9.0),
        ]
        table = allocation_table(reports)
        assert "**12.5000**" in table
        assert "**9.0000**" not in table

    def test_reports_without_allocation_skipped(self):
        reports = [make_report("full", auc=0.78), make_report("two_model", auc=0.76, lpa=4.0)]
        table = allocation_table(reports)
        assert "| full |" not in table
        assert "| two_model |" in table

    def test_placeholder_when_nothing_allocated(self):
        assert allocation_table([make_report("full", auc=0.7)]) == "_no allocation results_"


class TestSvgChart:
    def curves(self):
        return {
            "model": [
                CurvePoint(budget=0.0, cost=0.0, lpa=0.0, value=10.0),
                CurvePoint(budget=50.0, cost=48.0, lpa=5.0, value=15.0),
            ],
            "truth": [
                CurvePoint(budget=0.0, cost=0.0, lpa=0.0, value=10.0),
                CurvePoint(budget=50.0, cost=47.0, lpa=7.0, value=17.0),
            ],
        }

    def test_valid_xml_with_one_polyline_per_curve(self):
        svg = curve_chart_svg(self.curves())
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 2

    def test_labels_present_and_sorted(self):
        svg = curve_chart_svg(self.curves())
        assert svg.index(">model<") < svg.index(">truth<")

    def test_deterministic_bytes(self):
        a = curve_chart_svg(self.curves())
        b = curve_chart_svg(self.curves())
        assert a == b

    def test_y_field_selectable(self):
        svg = curve_chart_svg(self.curves(), y_field="value")
        assert ">value</text>" in svg

    def test_empty_curves_rejected(self):
        with pytest.raises(ValidationError):
            curve_chart_svg({})
        with pytest.raises(ValidationError):
            curve_chart_svg({"model": []})

    def test_label_escaped(self):
        label = "a&b<c>d"
        svg = curve_chart_svg({label: self.curves()["model"]})
        texts = ET.fromstring(svg).findall(".//{http://www.w3.org/2000/svg}text")
        assert texts[-1].text == label

    def test_single_point_curve_does_not_collapse_scale(self):
        svg = curve_chart_svg({"m": [CurvePoint(budget=5.0, cost=1.0, lpa=2.0, value=3.0)]})
        ET.fromstring(svg)


class TestWriteReport:
    def test_writes_markdown_and_svg(self, tmp_path):
        reports = [make_report("full", auc=0.78, lpa=3.0)]
        curves = {"full": [CurvePoint(budget=b, cost=b, lpa=b / 10, value=b) for b in (0.0, 10.0)]}
        written = write_report(tmp_path, reports, curves)
        paths = {p.name for p in written}
        assert paths == {"report.md", "lpa_curve.svg"}
        content = (tmp_path / "report.md").read_text()
        assert "lpa_curve.svg" in content
        assert "| full |" in content

    def test_markdown_only_without_curves(self, tmp_path):
        written = write_report(tmp_path, [make_report("full", auc=0.7)])
        assert [p.name for p in written] == ["report.md"]
        assert "lpa_curve" not in (tmp_path / "report.md").read_text()

    def test_reruns_byte_identical(self, tmp_path):
        reports = [make_report("full", auc=0.78, lpa=3.0)]
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        write_report(a_dir, reports)
        write_report(b_dir, reports)
        assert (a_dir / "report.md").read_bytes() == (b_dir / "report.md").read_bytes()

    @pytest.mark.parametrize("stage", ["render", "write"])
    def test_failure_keeps_earlier_report(self, tmp_path, monkeypatch, stage):
        write_report(tmp_path, [make_report("full", auc=0.78)])
        earlier = (tmp_path / "report.md").read_bytes()
        if stage == "render":

            def fail(*args, **kwargs):
                raise OSError("failed")

            monkeypatch.setattr(report_module, "render_report", fail)
        else:  # the write fails midway, after the temp file has content
            write_text = Path.write_text

            def fail(path, text):
                write_text(path, text[:10])
                raise OSError("failed")

            monkeypatch.setattr(Path, "write_text", fail)
        with pytest.raises(OSError, match="failed"):
            write_report(tmp_path, [make_report("full", auc=0.5)])
        assert (tmp_path / "report.md").read_bytes() == earlier
        assert not list(tmp_path.glob("*.tmp.*"))

    def test_render_mentions_five_metric_columns(self):
        text = render_report([make_report("full", auc=0.7)])
        for header in ("AUC", "COEFF", "CORR", "NRMSE", "NMAE"):
            assert header in text
