"""Tests for the Trace type."""

import pickle

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

    def test_pickle_leaves_the_address_array_behind(self):
        trace = Trace("t", tuple(range(0, 64 * 1000, 64)))
        before = pickle.dumps(trace)
        memo = trace.address_array()
        after = pickle.dumps(trace)
        assert len(after) == len(before)
        copy = pickle.loads(after)
        assert copy == trace
        rebuilt = copy.address_array()
        if memo is None:  # numpy is not installed
            assert rebuilt is None
        else:
            assert rebuilt is not memo
            assert rebuilt.tolist() == list(trace.addresses)
