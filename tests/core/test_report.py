"""Tests for the stage-time block of the comparison report."""

from repro.core.report import format_stage_seconds


class TestFormatStageSeconds:
    def test_aligned_block_with_total(self):
        text = format_stage_seconds({"isc": 1.0, "placement": 3.0})
        lines = text.splitlines()
        assert len(lines) == 3
        assert "isc" in lines[0] and "( 25.0 %)" in lines[0]
        assert "placement" in lines[1] and "( 75.0 %)" in lines[1]
        assert "total" in lines[2] and "4.000 s" in lines[2]

    def test_insertion_order_preserved(self):
        text = format_stage_seconds({"z-last": 1.0, "a-first": 1.0})
        assert text.index("z-last") < text.index("a-first")

    def test_empty_mapping(self):
        assert "no stage timings" in format_stage_seconds({})

    def test_zero_total_avoids_division(self):
        text = format_stage_seconds({"isc": 0.0})
        assert "(  0.0 %)" in text

    def test_custom_indent(self):
        text = format_stage_seconds({"isc": 1.0}, indent=">>")
        assert all(line.startswith(">>") for line in text.splitlines())
