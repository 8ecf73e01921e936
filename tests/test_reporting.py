"""Tests for reporting tables and the prevalence/security helpers."""

import pytest

from repro.core.analysis.prevalence import PrevalenceCell, prevalence_table
from repro.core.analysis.security import CipherSecurityCell, cipher_table
from repro.reporting.tables import Table, percent


class TestTable:
    def test_add_row_validates_width(self):
        table = Table(title="T", headers=["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)
        table.add_row(1, 2)
        assert table.rows == [[1, 2]]

    def test_render_contains_everything(self):
        table = Table(title="My Table", headers=["x", "y"])
        table.add_row("hello", 3.14159)
        rendered = table.render()
        assert "My Table" in rendered
        assert "hello" in rendered
        assert "3.14" in rendered

    def test_column(self):
        table = Table(title="T", headers=["a", "b"])
        table.add_row(1, 2)
        table.add_row(3, 4)
        assert table.column("b") == [2, 4]

    def test_csv(self):
        table = Table(title="T", headers=["a", "b"])
        table.add_row("x", 1)
        csv_text = table.to_csv()
        assert csv_text.splitlines()[0] == "a,b"
        assert "x,1" in csv_text

    def test_percent(self):
        assert percent(0.123456) == "12.35%"
        assert percent(0.5, 0) == "50%"


class TestPrevalenceCells:
    def test_rate(self):
        cell = PrevalenceCell(count=5, total=100)
        assert cell.rate == 0.05
        assert cell.render() == "5.00% (5)"

    def test_zero_total(self):
        assert PrevalenceCell(0, 0).rate == 0.0

    def test_prevalence_table_layout(self):
        cells = {
            ("android", "popular"): {
                "dynamic": PrevalenceCell(67, 1000),
                "embedded": PrevalenceCell(197, 1000),
                "nsc": PrevalenceCell(18, 1000),
            },
            ("ios", "popular"): {
                "dynamic": PrevalenceCell(114, 1000),
                "embedded": PrevalenceCell(334, 1000),
                "nsc": PrevalenceCell(0, 1000),
            },
        }
        table = prevalence_table(cells)
        assert len(table.rows) == 2
        ios_row = table.rows[1]
        assert ios_row[-1] == "-"  # no NSC column on iOS


class TestCipherTable:
    def test_layout(self):
        cells = {
            ("android", "popular"): CipherSecurityCell(0.18, 0.015, 1000, 67),
            ("ios", "popular"): CipherSecurityCell(0.95, 0.46, 1000, 114),
        }
        table = cipher_table(cells)
        assert len(table.rows) == 2
        assert table.rows[0][2] == "18.00%"


class TestNoDataRendering:
    """An empty denominator renders as the no-data dash, never 0.00%."""

    def test_percent_none_is_no_data(self):
        from repro.reporting.tables import NO_DATA

        assert percent(None) == NO_DATA
        assert NO_DATA not in percent(0.0)

    def test_none_cell_formats_as_no_data(self):
        from repro.reporting.tables import NO_DATA

        table = Table(title="T", headers=["a"])
        table.add_row(None)
        assert NO_DATA in table.render()
        assert NO_DATA in table.to_csv()

    def test_prevalence_cell_distinguishes_empty_from_zero(self):
        from repro.reporting.tables import NO_DATA

        empty = PrevalenceCell(0, 0)
        zero = PrevalenceCell(0, 50)
        assert empty.render() == NO_DATA
        assert zero.render() == "0.00% (0)"

    def test_cipher_table_empty_dataset(self):
        from repro.reporting.tables import NO_DATA

        cells = {
            ("android", "popular"): CipherSecurityCell(
                overall_rate=0.0, pinning_rate=0.0,
                total_apps=0, pinning_apps=0,
            ),
            ("ios", "popular"): CipherSecurityCell(
                overall_rate=0.25, pinning_rate=0.0,
                total_apps=4, pinning_apps=2,
            ),
        }
        rendered = cipher_table(cells).render()
        rows = rendered.splitlines()
        android_row = next(r for r in rows if "Android" in r)
        ios_row = next(r for r in rows if "iOS" in r)
        # No apps measured → both cells dash out.
        assert android_row.count(NO_DATA) == 2
        # Measured zero among pinning apps stays a real 0.00%.
        assert "25.00%" in ios_row and "0.00%" in ios_row
        assert NO_DATA not in ios_row


class TestLenientStatsGuard:
    """No render-path module may use the lenient stats helpers.

    ``stats.proportion`` / ``stats.mean`` collapse "no data" into 0.0;
    fed into ``percent()`` or cell formatting they print a fabricated
    measured zero.  A table/figure renders no data itself instead:
    ``PrevalenceCell.render`` checks its denominator, and a ``None``
    table cell renders as NO_DATA.
    """

    RENDER_PACKAGES = ("core/analysis", "reporting")
    LENIENT = {"proportion", "mean"}

    def test_no_lenient_stats_in_render_paths(self):
        import ast
        from pathlib import Path

        import repro

        src_root = Path(repro.__file__).parent
        offenders = []
        for rel in self.RENDER_PACKAGES:
            for path in sorted((src_root / rel).rglob("*.py")):
                tree = ast.parse(path.read_text(encoding="utf-8"))
                for node in ast.walk(tree):
                    if (
                        isinstance(node, ast.ImportFrom)
                        and node.module == "repro.util.stats"
                    ):
                        for alias in node.names:
                            if alias.name in self.LENIENT:
                                offenders.append(
                                    f"{rel}/{path.name}:{node.lineno} "
                                    f"imports lenient {alias.name}"
                                )
                    if (
                        isinstance(node, ast.Attribute)
                        and node.attr in self.LENIENT
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "stats"
                    ):
                        offenders.append(
                            f"{rel}/{path.name}:{node.lineno} "
                            f"uses stats.{node.attr}"
                        )
        assert not offenders, (
            "lenient stats helpers reached a render path; render no data "
            f"as None (or NO_DATA, like PrevalenceCell.render): {offenders}"
        )
