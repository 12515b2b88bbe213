"""Tests for the Trace type and its file format."""

import pytest

from repro.errors import TraceFormatError
from repro.workloads import Trace


class TestTrace:
    def test_basic_properties(self):
        trace = Trace("t", (0, 64, 64, 128))
        assert len(trace) == 4
        assert list(trace) == [0, 64, 64, 128]
        assert trace.footprint_lines == 3

    def test_rejects_negative_addresses(self):
        with pytest.raises(TraceFormatError):
            Trace("bad", (0, -64))

    def test_accepts_empty_trace(self):
        trace = Trace("empty", ())
        assert len(trace) == 0
        assert trace.footprint_lines == 0

    def test_concat(self):
        combined = Trace("a", (0,)).concat(Trace("b", (64,)))
        assert combined.addresses == (0, 64)
        assert combined.name == "a+b"

    def test_repeat(self):
        repeated = Trace("a", (0, 64)).repeat(3)
        assert repeated.addresses == (0, 64) * 3
        with pytest.raises(ValueError):
            Trace("a", (0,)).repeat(0)

    def test_from_lines(self):
        trace = Trace.from_lines("t", [0, 1, 5])
        assert trace.addresses == (0, 64, 5 * 64)


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        original = Trace("roundtrip", (0x100, 0x200, 0x100))
        path = tmp_path / "trace.txt"
        original.save(path)
        loaded = Trace.load(path)
        assert loaded == original
        assert loaded.name == "roundtrip"

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# a comment\n\n0x40\n# another\n64\n")
        trace = Trace.load(path)
        assert trace.addresses == (0x40, 64)

    def test_name_defaults_to_stem(self, tmp_path):
        path = tmp_path / "mytrace.txt"
        path.write_text("0x40\n")
        assert Trace.load(path).name == "mytrace"

    def test_malformed_line_reported_with_location(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0x40\nnot-an-address\n")
        with pytest.raises(TraceFormatError, match="bad.txt:2"):
            Trace.load(path)
