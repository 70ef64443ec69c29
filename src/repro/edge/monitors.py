"""Traffic monitors: where charging records come from, and how they err.

Four observation points appear in the paper's Figure 8:

* the device app's uplink counter (Android ``TrafficStats``-style),
* the edge server's monitors (``/proc/<pid>/net/netstat``-style),
* the operator's gateway counters (in :mod:`repro.cellular.gateway`),
* the operator's downlink monitor fed by RRC COUNTER CHECK reports.

Monitors answer usage queries for a charging cycle ``(t1, t2]``.  Each
monitor can carry a per-cycle **clock skew** (imperfect NTP sync between
edge and operator): a monitor whose clock runs ``skew`` seconds ahead cuts
its cycle boundary ``skew`` seconds of true time early.  This boundary
asynchrony is the paper's stated cause for the residual charging-record
errors of Figure 18 (γo mean 2.0 %, γe mean 1.2 %), and it is what keeps
TLC-optimal's charging gap small-but-nonzero in Table 2.

All monitors expose both ``true_usage`` (perfect boundary) and
``reported_usage`` (skewed boundary); experiment code uses the former as
ground truth ``x̂`` and hands the latter to the negotiating parties.
"""

from __future__ import annotations

from ..netsim.counters import CumulativeCounter
from ..netsim.events import EventLoop
from ..netsim.packet import Packet
from ..cellular.rrc import CounterCheckResponse


class TrafficMonitor:
    """Byte counter with a (settable) cycle-boundary clock skew."""

    def __init__(self, loop: EventLoop, name: str) -> None:
        self.loop = loop
        self.name = name
        self.counter = CumulativeCounter()
        self.skew = 0.0

    def set_skew(self, skew_s: float) -> None:
        """Set this monitor's clock skew (positive = clock runs ahead)."""
        self.skew = float(skew_s)

    def observe(self, packet: Packet) -> None:
        """Count one packet at the current true time."""
        self.counter.add(self.loop.now(), packet.size)

    def observe_bytes(self, nbytes: int) -> None:
        """Count raw bytes at the current true time."""
        self.counter.add(self.loop.now(), nbytes)

    @property
    def total(self) -> int:
        """All bytes ever counted."""
        return self.counter.total

    def true_usage(self, t1: float, t2: float) -> int:
        """Ground-truth bytes in the true-time window ``(t1, t2]``."""
        return self.counter.bytes_between(t1, t2)

    def reported_usage(self, t1: float, t2: float) -> int:
        """Bytes in the window as this monitor's skewed clock cuts it.

        Cycle *starts* are synchronized (the previous negotiation anchors
        them), but each party cuts the cycle *end* on its own clock: a
        clock running ``skew`` seconds ahead stops counting ``skew``
        seconds of true time early.  The resulting relative record error
        is ``≈ |skew| / cycle`` — the Figure 18 mechanism.
        """
        hi = max(t1, t2 - self.skew)
        return self.counter.bytes_between(t1, hi)


class CounterCheckMonitor:
    """The operator's downlink record, assembled from RRC COUNTER CHECKs.

    The base station reports the modem's cumulative received volume at
    each counter check (periodic + before releases).  Usage for a cycle is
    the difference between the last reports before each (skewed) boundary,
    so the record is additionally quantized at check epochs.

    A modem's cumulative counters legitimately restart from zero on a
    detach/reattach or a reboot; a backwards jump therefore re-baselines
    the record (the new absolute value is taken as the delta since the
    restart) instead of rejecting the report.  ``resets_observed`` counts
    how often that happened.
    """

    def __init__(self, loop: EventLoop, name: str = "operator-rrc") -> None:
        self.loop = loop
        self.name = name
        self._dl_reports = CumulativeCounter()
        self._ul_reports = CumulativeCounter()
        self._last_dl = 0
        self._last_ul = 0
        self.skew = 0.0
        self.reports_received = 0
        self.resets_observed = 0

    def set_skew(self, skew_s: float) -> None:
        """Set the operator app's clock skew for cycle boundaries."""
        self.skew = float(skew_s)

    def on_report(self, response: CounterCheckResponse) -> None:
        """Ingest one COUNTER CHECK response from the base station."""
        self.ingest(((response.t, response.uplink_bytes, response.downlink_bytes),))

    def ingest(self, reports) -> None:
        """Ingest ``(t, uplink_bytes, downlink_bytes)`` reports in emission order.

        The one ingestion loop behind :meth:`on_report`; the batched
        kernel hands over a whole lane's reports in a single call.  Each
        report is validated before it touches any state (the checks and
        messages of ``CumulativeCounter.add``), so a rejected report
        leaves the monitor exactly as the reports before it left it.
        """
        dl, ul = self._dl_reports, self._ul_reports
        dl_times, dl_cums, ul_times, ul_cums = dl._times, dl._cums, ul._times, ul._cums
        dl_total, ul_total = dl._total, ul._total
        last_dl, last_ul = self._last_dl, self._last_ul
        resets = self.resets_observed
        received = self.reports_received
        try:
            for t, ul_bytes, dl_bytes in reports:
                dl_delta = dl_bytes - last_dl
                ul_delta = ul_bytes - last_ul
                reset = dl_delta < 0 or ul_delta < 0
                if reset:
                    # Modem counter reset (detach/reattach, reboot):
                    # everything counted since the restart is the new
                    # absolute value.
                    if dl_delta < 0:
                        dl_delta = dl_bytes
                    if ul_delta < 0:
                        ul_delta = ul_bytes
                if dl_delta < 0:
                    raise ValueError(f"cannot count negative bytes: {dl_delta}")
                # The report carries its own emission time (the base
                # station stamps it when serving the check), which on the
                # live loop is the ingestion time too; using it keeps the
                # monitor replayable from recorded reports.
                if dl_times and t < dl_times[-1]:
                    raise ValueError(f"counter time went backwards: {t} < {dl_times[-1]}")
                if ul_delta < 0:
                    raise ValueError(f"cannot count negative bytes: {ul_delta}")
                resets += reset
                dl_total += dl_delta
                ul_total += ul_delta
                if dl_times and t == dl_times[-1]:
                    dl_cums[-1] = dl_total
                    ul_cums[-1] = ul_total
                else:
                    dl_times.append(t)
                    dl_cums.append(dl_total)
                    ul_times.append(t)
                    ul_cums.append(ul_total)
                last_dl, last_ul = dl_bytes, ul_bytes
                received += 1
        finally:
            dl._total, ul._total = dl_total, ul_total
            self._last_dl, self._last_ul = last_dl, last_ul
            self.resets_observed = resets
            self.reports_received = received

    @property
    def total(self) -> int:
        """Total downlink bytes across all reports so far."""
        return self._dl_reports.total

    def _window(self, t1: float, t2: float) -> tuple[float, float]:
        # Synchronized start, locally-clocked end (see TrafficMonitor).
        return t1, max(t1, t2 - self.skew)

    def reported_usage(self, t1: float, t2: float) -> int:
        """Downlink cycle usage, cut by skewed boundary + report epochs."""
        lo, hi = self._window(t1, t2)
        return self._dl_reports.bytes_between(lo, hi)

    def reported_uplink_usage(self, t1: float, t2: float) -> int:
        """Uplink (modem-sent) cycle usage from the same reports."""
        lo, hi = self._window(t1, t2)
        return self._ul_reports.bytes_between(lo, hi)


def record_error_ratio(measured: int, truth: int) -> float:
    """Relative charging-record error γ = |measured − truth| / truth.

    Defined as 0 when both are 0 (an idle cycle has no record error).
    """
    if truth == 0:
        return 0.0 if measured == 0 else float("inf")
    return abs(measured - truth) / truth
