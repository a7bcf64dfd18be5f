"""Tests for the core record/trace types."""

import pytest
from hypothesis import given, strategies as st

from repro.logs import LogRecord, Request, Trace


def req(t, conn=0, path="/a", size=100, **kw):
    return Request(arrival=t, conn_id=conn, path=path, size=size, **kw)


class TestLogRecord:
    def test_success_codes(self):
        base = dict(host="h", timestamp=0.0, method="GET", path="/",
                    protocol="HTTP/1.1")
        assert LogRecord(status=200, size=1, **base).is_success()
        assert LogRecord(status=304, size=0, **base).is_success()
        assert not LogRecord(status=404, size=0, **base).is_success()
        assert not LogRecord(status=500, size=0, **base).is_success()

    def test_with_time(self):
        base = LogRecord(host="h", timestamp=1.0, method="GET", path="/",
                         protocol="HTTP/1.1", status=200, size=1)
        shifted = base.with_time(9.0)
        assert shifted.timestamp == 9.0
        assert shifted.path == base.path


class TestRequest:
    def test_main_page(self):
        assert req(0.0).is_main_page()
        assert not req(0.0, is_embedded=True, parent="/a").is_main_page()


class TestTrace:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            Trace([req(2.0), req(1.0)])

    @pytest.mark.parametrize("times", [
        (float("nan"),), (1.0, float("nan")), (float("nan"), 1.0),
        (0.0, float("nan"), 2.0), (1.0, float("inf")),
        (float("-inf"), 1.0),
    ])
    def test_rejects_non_finite_arrivals(self, times):
        with pytest.raises(ValueError, match="must be finite"):
            Trace([req(t) for t in times])

    def test_catalog_takes_max_size(self):
        t = Trace([req(0.0, path="/a", size=10), req(1.0, path="/a", size=30)])
        assert t.catalog["/a"] == 30
        assert t.total_bytes == 30

    def test_duration_and_len(self):
        t = Trace([req(1.0), req(4.0, conn=1, path="/b")])
        assert t.duration == 3.0
        assert len(t) == 2
        assert t[1].path == "/b"

    def test_empty_trace(self):
        t = Trace([])
        assert t.duration == 0.0
        assert len(t) == 0
        assert t.total_bytes == 0

    def test_connection_ids_order(self):
        t = Trace([req(0.0, conn=5), req(1.0, conn=2), req(2.0, conn=5)])
        assert t.connection_ids() == [5, 2]

    def test_head(self):
        t = Trace([req(float(i), conn=i) for i in range(10)])
        assert len(t.head(3)) == 3

    def test_scaled_compresses_gaps(self):
        t = Trace([req(10.0), req(14.0, conn=1)])
        half = t.scaled(0.5)
        assert half.duration == pytest.approx(2.0)
        assert half[0].arrival == pytest.approx(10.0)

    def test_scaled_rejects_nonpositive(self):
        t = Trace([req(0.0)])
        with pytest.raises(ValueError):
            t.scaled(0.0)

    def test_scaled_empty(self):
        assert len(Trace([]).scaled(2.0)) == 0

    def test_merge_sorts(self):
        a = Trace([req(0.0, conn=0), req(5.0, conn=0)])
        b = Trace([req(2.0, conn=1)])
        m = Trace.merge([a, b])
        assert [r.arrival for r in m] == [0.0, 2.0, 5.0]

    @given(st.lists(st.floats(min_value=0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=50))
    def test_property_sorted_arrivals_accepted(self, times):
        times.sort()
        t = Trace([req(x, conn=i) for i, x in enumerate(times)])
        assert t.duration == pytest.approx(times[-1] - times[0])

    @given(st.floats(min_value=0.01, max_value=100.0),
           st.lists(st.floats(min_value=0, max_value=1e4, allow_nan=False),
                    min_size=2, max_size=20))
    def test_property_scaling_preserves_order_and_count(self, factor, times):
        times.sort()
        t = Trace([req(x, conn=i) for i, x in enumerate(times)])
        s = t.scaled(factor)
        assert len(s) == len(t)
        arr = [r.arrival for r in s]
        assert arr == sorted(arr)
