"""Traffic monitors: skewed cycle boundaries and RRC-report assembly."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cellular.rrc import CounterCheckResponse
from repro.netsim.counters import CumulativeCounter
from repro.edge.monitors import CounterCheckMonitor, TrafficMonitor, record_error_ratio
from repro.netsim.events import EventLoop
from repro.netsim.packet import Direction, Packet


def packet(size=100):
    return Packet(size=size, flow_id="f", direction=Direction.UPLINK)


class TestTrafficMonitor:
    def _steady_monitor(self, rate_bytes_per_s=100, duration=100):
        loop = EventLoop()
        monitor = TrafficMonitor(loop, "m")
        for t in range(duration):
            loop.schedule_at(t + 0.5, monitor.observe, packet(rate_bytes_per_s))
        loop.run()
        return monitor

    def test_true_usage_exact(self):
        monitor = self._steady_monitor()
        assert monitor.true_usage(0, 50) == 5000
        assert monitor.true_usage(50, 100) == 5000

    def test_zero_skew_reports_truth(self):
        monitor = self._steady_monitor()
        assert monitor.reported_usage(0, 50) == monitor.true_usage(0, 50)

    def test_positive_skew_cuts_cycle_short(self):
        """A clock running ahead stops counting early: under-report."""
        monitor = self._steady_monitor()
        monitor.set_skew(10.0)
        assert monitor.reported_usage(0, 100) == 9000

    def test_negative_skew_extends_cycle(self):
        monitor = self._steady_monitor()
        monitor.set_skew(-5.0)
        # Window extends past the data; no extra bytes exist there.
        assert monitor.reported_usage(0, 50) == 5500

    def test_relative_error_tracks_skew_over_cycle(self):
        """The Figure 18 mechanism: γ ≈ |skew| / cycle length."""
        monitor = self._steady_monitor()
        monitor.set_skew(2.0)
        error = record_error_ratio(monitor.reported_usage(0, 100), monitor.true_usage(0, 100))
        assert error == pytest.approx(0.02, abs=0.005)

    def test_observe_bytes_counts_raw(self):
        loop = EventLoop()
        monitor = TrafficMonitor(loop, "m")
        monitor.observe_bytes(1234)
        assert monitor.total == 1234


class TestCounterCheckMonitor:
    def _report(self, monitor, loop, t, ul, dl):
        loop.schedule_at(t, monitor.on_report, CounterCheckResponse(t, ul, dl))

    def test_assembles_usage_from_cumulative_reports(self):
        loop = EventLoop()
        monitor = CounterCheckMonitor(loop)
        self._report(monitor, loop, 5.0, 100, 1000)
        self._report(monitor, loop, 10.0, 250, 2500)
        loop.run()
        assert monitor.reported_usage(0, 7) == 1000
        assert monitor.reported_usage(7, 12) == 1500
        assert monitor.reported_uplink_usage(0, 12) == 250

    def test_quantized_at_report_epochs(self):
        """Traffic after the last report is invisible until the next one."""
        loop = EventLoop()
        monitor = CounterCheckMonitor(loop)
        self._report(monitor, loop, 5.0, 0, 1000)
        loop.run()
        assert monitor.reported_usage(0, 4.9) == 0

    def test_counter_reset_rebaselines(self):
        """A modem reboot restarts the cumulative counters from zero; the
        monitor must re-baseline (delta = new absolute value), not crash."""
        loop = EventLoop()
        monitor = CounterCheckMonitor(loop)
        self._report(monitor, loop, 1.0, 100, 1000)
        self._report(monitor, loop, 2.0, 30, 400)  # detach/reattach reset
        self._report(monitor, loop, 3.0, 50, 700)
        loop.run()
        assert monitor.resets_observed == 1
        assert monitor.total == 1000 + 400 + 300
        assert monitor.reported_uplink_usage(0, 10) == 100 + 30 + 20
        assert monitor.reported_usage(1.5, 2.5) == 400

    def test_reset_on_one_counter_only(self):
        """Only the backwards counter re-baselines; the other keeps its delta."""
        loop = EventLoop()
        monitor = CounterCheckMonitor(loop)
        self._report(monitor, loop, 1.0, 100, 1000)
        self._report(monitor, loop, 2.0, 150, 900)
        loop.run()
        assert monitor.resets_observed == 1
        assert monitor.reported_uplink_usage(0, 10) == 150
        assert monitor.total == 1000 + 900

    def test_no_resets_observed_on_monotone_reports(self):
        loop = EventLoop()
        monitor = CounterCheckMonitor(loop)
        self._report(monitor, loop, 1.0, 0, 1000)
        self._report(monitor, loop, 2.0, 0, 1000)  # idle period: equal is fine
        loop.run()
        assert monitor.resets_observed == 0

    def test_skew_shifts_boundary(self):
        loop = EventLoop()
        monitor = CounterCheckMonitor(loop)
        self._report(monitor, loop, 5.0, 0, 1000)
        self._report(monitor, loop, 9.0, 0, 2000)
        loop.run()
        monitor.set_skew(2.0)
        assert monitor.reported_usage(0, 10) == 1000  # boundary cut at t=8

    def test_report_counter(self):
        loop = EventLoop()
        monitor = CounterCheckMonitor(loop)
        self._report(monitor, loop, 1.0, 0, 10)
        loop.run()
        assert monitor.reports_received == 1
        assert monitor.total == 10


def monitor_state(monitor):
    return (
        monitor._dl_reports._times,
        monitor._dl_reports._cums,
        monitor._dl_reports.total,
        monitor._ul_reports._times,
        monitor._ul_reports._cums,
        monitor._ul_reports.total,
        monitor._last_dl,
        monitor._last_ul,
        monitor.reports_received,
        monitor.resets_observed,
    )


class _ValidatedOracle:
    """Per-report ingestion written against the public counter API: the
    delta/reset rules applied one report at a time through the validating
    ``CumulativeCounter.add``."""

    def __init__(self):
        self._dl_reports = CumulativeCounter()
        self._ul_reports = CumulativeCounter()
        self._last_dl = self._last_ul = 0
        self.reports_received = self.resets_observed = 0

    def on_report(self, t, ul, dl):
        dl_delta, ul_delta = dl - self._last_dl, ul - self._last_ul
        if dl_delta < 0 or ul_delta < 0:
            self.resets_observed += 1
            dl_delta = dl if dl_delta < 0 else dl_delta
            ul_delta = ul if ul_delta < 0 else ul_delta
        self._dl_reports.add(t, dl_delta)
        self._ul_reports.add(t, ul_delta)
        self._last_dl, self._last_ul = dl, ul
        self.reports_received += 1


@st.composite
def report_sequences(draw):
    """COUNTER CHECK report streams: steady growth, same-instant repeats,
    counter resets (backwards byte jumps on one or both counters), and
    rarely a backwards timestamp or a corrupt negative count."""
    t = draw(st.floats(0.0, 100.0))
    ul = dl = 0
    reports = []
    steps = ["grow"] * 4 + ["repeat", "reset", "reset-one", "backwards", "negative"]
    for step in draw(st.lists(st.sampled_from(steps), max_size=25)):
        if step == "grow":
            t += draw(st.floats(0.001, 10.0))
            ul += draw(st.integers(0, 5_000))
            dl += draw(st.integers(0, 50_000))
        elif step == "repeat":
            ul += draw(st.integers(0, 100))
            dl += draw(st.integers(0, 1_000))
        elif step == "reset":
            t += draw(st.floats(0.0, 10.0))
            ul = draw(st.integers(0, ul))
            dl = draw(st.integers(0, max(dl, 0)))
        elif step == "reset-one":
            t += draw(st.floats(0.0, 10.0))
            dl = draw(st.integers(0, max(dl, 0)))
        elif step == "backwards":
            t -= draw(st.floats(0.001, 5.0))
        else:
            dl = -draw(st.integers(1, 100))
        reports.append((t, ul, dl))
    return reports


def ingest_outcome(ingest):
    try:
        ingest()
    except ValueError as error:
        return str(error)
    return None


class TestBulkIngestion:
    @settings(max_examples=300, deadline=None)
    @given(reports=report_sequences(), split=st.integers(0, 25))
    def test_batched_call_matches_per_report(self, reports, split):
        """One (or two) ingest calls leave the monitor exactly as
        per-report on_report does, or raise the same ValueError."""
        per_report = CounterCheckMonitor(EventLoop())
        batched = CounterCheckMonitor(EventLoop())
        halves = CounterCheckMonitor(EventLoop())

        def one_by_one():
            for t, ul, dl in reports:
                per_report.on_report(CounterCheckResponse(t, ul, dl))

        def in_halves():
            halves.ingest(reports[:split])
            halves.ingest(iter(reports[split:]))

        error = ingest_outcome(one_by_one)
        assert ingest_outcome(lambda: batched.ingest(reports)) == error
        assert ingest_outcome(in_halves) == error
        assert monitor_state(batched) == monitor_state(per_report)
        assert monitor_state(halves) == monitor_state(per_report)

    @settings(max_examples=300, deadline=None)
    @given(reports=report_sequences())
    def test_matches_validated_oracle(self, reports):
        """The bulk loop keeps the validating per-report semantics: the
        same points and bookkeeping, and on a rejected report the same
        message with the state the reports before it left."""
        oracle = _ValidatedOracle()
        error = None
        for t, ul, dl in reports:
            before = copy.deepcopy(monitor_state(oracle))
            error = ingest_outcome(lambda: oracle.on_report(t, ul, dl))
            if error is not None:
                break
        monitor = CounterCheckMonitor(EventLoop())
        assert ingest_outcome(lambda: monitor.ingest(reports)) == error
        assert monitor_state(monitor) == (before if error else monitor_state(oracle))


class TestErrorRatio:
    def test_zero_on_exact(self):
        assert record_error_ratio(100, 100) == 0.0

    def test_symmetric_magnitude(self):
        assert record_error_ratio(90, 100) == pytest.approx(0.1)
        assert record_error_ratio(110, 100) == pytest.approx(0.1)

    def test_idle_cycle_defined_as_zero(self):
        assert record_error_ratio(0, 0) == 0.0

    def test_phantom_bytes_on_idle_cycle_is_infinite(self):
        assert record_error_ratio(5, 0) == float("inf")
