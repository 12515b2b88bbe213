"""Tests for repro.util.tables."""

import pytest

from repro.util.tables import format_table


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "bbbb"], [["x", 1], ["yyyy", 22]])
        lines = text.splitlines()
        assert len(lines) == 4  # header, separator, two rows
        assert len({len(line) for line in lines}) <= 2  # consistent widths

    def test_title(self):
        text = format_table(["a"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_float_formatting(self):
        text = format_table(["v"], [[0.123456789]])
        assert "0.1235" in text

    def test_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])
