"""Batched per-UE simulation kernel: the flat-state lane engine.

The reference engine simulates one Python object per packet: every chunk
of every frame becomes a :class:`~repro.netsim.packet.Packet` that hops
through device → modem → air → backhaul → SPGW → server as a chain of
event-loop callbacks, each allocating closures and touching a dozen
objects.  At fleet scale that per-packet object hop dominates run time
without changing any number the charging study reads.

This module replaces that hop with a **lane**: one UE's whole simulate()
phase run over flat per-UE state, reproducing the reference engine **bit
for bit**:

* every RNG draw is issued on the *same stream* in the *same order*
  (workload sizes/jitter, air drop draws, radio RSS walk + loss draws);
* every float expression is copied operation-for-operation from the
  reference code (air drop probability, queue delay, RSS walk, frame
  sizing), never algebraically simplified; ``min``/``max`` calls are
  unrolled into branches or selections, which return the identical float;
* every counter write lands at the exact same simulated timestamp, so
  cycle-boundary queries (skewed or not) cannot tell the engines apart;
* same-time events take effect in the reference's relative order (the
  tie rule below).

Two executors
-------------

Sessions whose path state cannot change mid-frame (no outages, no RSS
recording, no quota, no handover, no path faults, at most one background
class) run the **fold lane** (:class:`_LaneRun`).  Everything else runs
the **general executor** (:class:`_GeneralRun`): a private event wheel (a
heap of tuples) with the reference engine's per-hop granularity, because
an outage window, an RLF detach, a policer refill or a handover break can
land between any two chunks.  General mode trades the fold speedup for
coverage, but its per-hop work is local code too: it skips the shared
event loop's closure allocation and object hops, and it calls no
workload, radio, air or counter method per hop.

The fold lane's array phases
----------------------------

In a quiet session nothing on the air-submit side depends on a
delivery: the workload stream is drawn only by frames, the air stream
once per submitted chunk in activity order, the radio stream only by
deliveries, and nothing a delivery does feeds back into a submit.  So the
fold lane runs no wheel at all, only four phases over the lane's chunks:

1. **frames** — a loop of ``te = te + frame_dt`` up to the horizon, then
   the frame sizes; the per-frame counter writes, LAN/backhaul/middlebox
   sums, SLA verdicts and the activity instants (uplink frame times,
   downlink eNodeB arrivals by the settle edge);
2. **air submits** — window sums, drop probability, queue delay and
   delivery time of every chunk as arrays;
3. **deliveries** — sorted by time, equal times in chunk (push) order,
   then one sequential RSS walk deciding each survival;
4. **counters and RRC** — survivor writes as cumulative series, RRC
   connections from the activity instants, and every COUNTER CHECK and
   release reading the modem counter through one ``searchsorted``.

Arrays carry only IEEE-exact operations, each in the reference's own
expression order: elementwise ``+ − × ÷``, comparisons and the
selections built from them (``where``, ``minimum``, ``maximum``), int64
``cumsum``, ``searchsorted``, stable ``argsort`` and truncation of a
positive float to int.  Transcendental functions (``log``, ``exp``,
``cos``, ``sin``, ``sqrt``) stay on :mod:`math`, mapped element by
element.

Uniforms are drawn in blocks (:func:`_draw_block`): numpy's legacy
MT19937 is loaded from the stream's ``getstate()`` and draws
``random()``'s 53-bit doubles value for value; then ``getrandbits``
advances the stream by two 32-bit outputs per value (:func:`_skip`), so
it ends where as many ``random()`` calls would have left it.  Each
block has the exact size the reference draws: one air uniform per
submitted chunk, one radio uniform per delivery plus two per fresh
Box–Muller pair (which follows from ``gauss_next``), and for the frame
sizes the two uniforms of every rejection attempt up to the last frame's
accepted one (:func:`_frame_sizes` peeks a block, then advances past
exactly those).

A session with two or more background classes runs the general executor:
the fold lane's demand split is :func:`_background_split`, precomputed
once per lane, and the reference's sum over a set of QCIs for more
classes has to be replayed per submit by the live ``_demand_split``.

Tie rule
--------

The reference loop breaks time ties by schedule order (a global seq),
and the lanes keep that order.  The general executor's wheel assigns its
own seq at push time, at the same instants as the reference's
``schedule`` calls.  The fold lane has no wheel, so it resolves the ties
that can change a number — a COUNTER CHECK at the instant of a write to
the modem counter it reads — with :class:`_WheelOrder`, which walks up
the pushers of the two events while their times tie.  Two folds are
proven safe in both executors' designs:

* the downlink LAN hop (+0.5 ms) and SPGW charge are folded into frame
  processing: nothing in the path schedules events with a delay inside
  (2 ms, 2.5 ms), so no push can land between the fold point and the
  reference's scheduling instant with a colliding timestamp (frame gaps
  are ≥ 5 ms — eligibility caps fps at 200 — air delays are ≥ 4 ms,
  counter checks ≥ 50 ms apart, the LAN hop is 0.5 ms);
* the uplink backhaul delivery (+2 ms) is folded into the air delivery:
  the reference's delivery event schedules nothing, and nothing that can
  fire inside the folded window reads the counters it writes (RRC counter
  checks read only the modem counters, which tick at send time).

RRC release timers are *lazy*: a release fires before any event at its
deadline, matching the reference, where the release timer is always
armed earlier (at the last data activity) than any event scheduled
afterwards and so carries the smaller seq; a release therefore reads
only the writes strictly before it.  The general executor keeps the
reserved seq for exact ties with absorbed events, and cancels pending
periodic checks by a generation counter instead of heap surgery,
mirroring timer ``cancel``.

Shared parts
------------

* the physics helpers — :func:`_frame_size` (per frame in general mode;
  the fold lane draws them all at once with :func:`_frame_sizes`),
  :func:`_survives_air` (per delivery in general mode) and
  :func:`_background_split`, the proven ≤ 1-background
  ``_demand_split`` specialization;
* COUNTER CHECK reports, buffered as plain ``(t, uplink_bytes,
  downlink_bytes)`` triples and handed over once at flush: the operator's
  :class:`~repro.edge.monitors.CounterCheckMonitor` ingests them in one
  :meth:`~repro.edge.monitors.CounterCheckMonitor.ingest` call, and any
  other sink gets the responses replayed in emission order;
* plain sums (air, link and middlebox FlowStats, metric counters)
  applied once by :func:`_flush_path`.

Counters the lane writes take a lean path: the fold lane builds whole
point series (:func:`_series`, the ``CumulativeCounter.add`` coalescing
rule over a cumulative sum) into :class:`_Cum` mirrors installed at
flush, and general mode adds into the live counters through
:func:`_count`, ``CumulativeCounter.add`` without its per-call
validation (wheel times never run backwards).

Fault schedules run in general mode: path-kind decisions (burst-loss /
reorder / duplicate / corrupt / blackout) are replayed at the lane's
uplink/downlink injection points through the injector's own
``decide_at`` — same "faults" RNG stream, same draw order, same trace
records — via a precomputed :class:`~repro.netsim.faults.LaneFaultView`;
counter resets are absorbed loop events replayed on the wheel; clock
skew/drift never touches the lane (both engines apply ``skew_at`` in the
shared ``collect()`` phase), so clock-only schedules keep the fold lane.

What NO lane supports — app-level ``on_receive`` hooks, frame rates
above the tie-safety bound — is refused by the eligibility check in
:mod:`repro.kernel.adapter`, which falls back to the reference engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count as _count_from
from math import cos as _cos, exp as _exp, log as _log, sin as _sin, sqrt as _sqrt, tau as _TWOPI

import numpy as np

# random.NV_MAGICCONST, same expression so the same float.
_NV_MAGIC = 4 * _exp(-0.5) / _sqrt(2.0)

from ..cellular.air import AirInterface, RateWindow
from ..cellular.bearer import Bearer
from ..cellular.gateway import TokenBucket
from ..cellular.qos import scheduler_priority
from ..cellular.radio import GOOD_RSS_DBM, OUTAGE_FLOOR_DBM, RadioChannel, RssSample
from ..cellular.rrc import CounterCheckResponse, HardwareModem, RrcConnectionManager, RrcState
from ..netsim.packet import Direction, Packet
from ..obs.spans import Span

__all__ = ["LaneSpec", "run_lane", "SETTLE_S"]

#: Settle window after the charging horizon, matching the reference
#: ``loop.run_until(horizon + 2.0)`` in both runners.
SETTLE_S = 2.0

# Wheel event kinds (first tuple field after (time, seq)).
_K_FRAME = 0  # workload emits one frame
_K_ARRIVAL = 1  # DL chunk reaches the eNodeB (post LAN + SPGW + backhaul)
_K_DELIVER = 2  # air transmission completes (post propagation + queue + serialization)
_K_CHECK = 3  # periodic RRC COUNTER CHECK

# General-mode wheel event kinds (outage / quota / RSS / handover lanes).
_K_LAN = 4  # DL: one frame's chunks delivered by the LAN link (Link._deliver)
_K_BH = 5  # DL: one frame's surviving chunks arrive at the eNodeB over the backhaul
_K_GW = 6  # UL: one packet arrives at the SPGW over the backhaul link
_K_RLF = 7  # radio-link-failure timer (ENodeB._check_rlf)
_K_OUT_BEGIN = 8  # natural outage begins (RadioChannel._begin_outage)
_K_OUT_END = 9  # natural outage ends (RadioChannel._end_outage)
_K_REATTACH = 10  # post-RLF re-attach (ENodeB._reattach)
_K_HO_BEGIN = 11  # handover starts (HandoverProcess._begin_handover)
_K_HO_COMPLETE = 12  # handover interruption ends (HandoverProcess._complete_handover)
_K_RSS = 13  # periodic RSS sample (RadioChannel._sample_rss)
_K_RESET = 14  # armed counter reset (FaultInjector._reset_modem)
_K_UL_SEND = 15  # fault-delayed/duplicated uplink send (UeAccess.send_uplink)
_K_DL_DELIVER = 16  # fault-delayed/duplicated downlink delivery (ue.deliver)

_INF = float("inf")


class _Cum:
    """Bulk-built mirror of :class:`~repro.netsim.counters.CumulativeCounter`.

    The fold lane builds the (time, cumulative) point series of a whole
    lane (:func:`_series`) and installs it into the real counter in one
    shot at flush time.
    """

    __slots__ = ("times", "cums", "total")

    def __init__(self) -> None:
        self.times: list[float] = []
        self.cums: list[int] = []
        self.total = 0

    def flush_into(self, counter) -> None:
        """Install the accumulated points into a fresh CumulativeCounter."""
        if counter._times:
            raise RuntimeError("kernel flush target counter is not empty")
        counter._times = self.times
        counter._cums = self.cums
        counter._total = self.total

    def copy(self) -> "_Cum":
        """A twin counter with the same points (their objects shared)."""
        twin = _Cum()
        twin.times, twin.cums, twin.total = self.times[:], self.cums[:], self.total
        return twin


def _series(times, nbytes) -> _Cum:
    """``CumulativeCounter.add`` of each ``(time, bytes)`` write, in order.

    Writes come in time order; a run of same-time writes coalesces into
    one point holding the run's last cumulative total.
    """
    cum = _Cum()
    if len(times):
        cums = np.cumsum(nbytes)
        last = np.concatenate((times[1:] != times[:-1], [True]))
        cum.times = times[last].tolist()
        cum.cums = cums[last].tolist()
        cum.total = int(cums[-1])
    return cum


def _count(counter, t: float, nbytes: int) -> None:
    """``CumulativeCounter.add`` without its per-call validation.

    Lane writes cannot fail it: wheel times never run backwards and every
    chunk has a positive size.
    """
    total = counter._total + nbytes
    counter._total = total
    times = counter._times
    if times and times[-1] == t:
        counter._cums[-1] = total
    else:
        times.append(t)
        counter._cums.append(total)


def _frame_shape(profile) -> tuple:
    """:func:`_frame_size`'s profile constants (``mean_frame_bytes`` is the same float per call)."""
    return (profile.mean_frame_bytes, profile.iframe_interval, profile.iframe_scale, profile.size_sigma)


def _frame_size(random, frames_sent: int, shape: tuple) -> int:
    """``FrameWorkload._frame_size`` op for op.

    ``random`` is the workload stream's ``random`` method, and
    ``lognormvariate`` is inlined as ``exp(normalvariate)`` with the same
    draws and float expressions.
    """
    mean, iframe_n, iframe_scale, size_sigma = shape
    if iframe_n > 0:
        p_frame = mean * iframe_n / (iframe_n - 1 + iframe_scale)
        mean = p_frame * (iframe_scale if frames_sent % iframe_n == 0 else 1.0)
    while True:
        u1 = random()
        u2 = 1.0 - random()
        z = _NV_MAGIC * (u1 - 0.5) / u2
        if z * z / 4.0 <= -_log(u2):
            break
    size = int(_exp(0.0 + z * size_sigma) * mean)
    return size if size > 64 else 64


#: The one MT19937 generator the block draws run on (lanes run one at a
#: time; each block loads the stream's state first).
_MT = np.random.RandomState()


def _peek_block(rng, n: int):
    """The next ``n`` ``rng.random()`` values, leaving ``rng`` untouched.

    numpy's legacy MT19937 doubles are CPython's ``random()`` (two 32-bit
    outputs, 53 bits), drawn from the state ``getstate()`` exports.
    """
    _, internal, _ = rng.getstate()
    _MT.set_state(("MT19937", internal[:-1], internal[-1]))
    return _MT.random_sample(n)


def _skip(rng, n: int) -> None:
    """Advance ``rng`` past ``n`` ``random()`` calls.

    Each call takes two 32-bit outputs and ``getrandbits`` takes one per
    32 bits, so the stream ends in the same state; ``gauss_next`` is left
    alone, as ``random()`` leaves it.  Steps of 65536 calls keep each
    throwaway integer at 512 KiB.
    """
    while n > 0:
        step = min(n, 65536)
        rng.getrandbits(64 * step)
        n -= step


def _draw_block(rng, n: int):
    """The next ``n`` ``rng.random()`` values as one array, consumed."""
    if not n:
        return np.empty(0)
    block = _peek_block(rng, n)
    _skip(rng, n)
    return block


def _frame_sizes(rng, n: int, shape: tuple):
    """:func:`_frame_size` for frames 0 .. n - 1, as one array.

    Each rejection attempt takes the next two uniforms, so the attempts
    are the consecutive pairs of a pre-drawn block, and frame k keeps the
    k-th accepted one; the stream then advances past exactly the draws
    the frames took.  ``log`` and ``exp`` stay on ``math``.
    """
    if not n:
        return np.zeros(0, dtype=np.int64)
    mean, iframe_n, iframe_scale, size_sigma = shape
    attempts = n + n // 2 + 16  # about 1.37 attempts per frame
    while True:
        u = _peek_block(rng, 2 * attempts)
        u2 = 1.0 - u[1::2]
        z = _NV_MAGIC * (u[0::2] - 0.5) / u2
        accepted = np.flatnonzero(z * z / 4.0 <= -np.array(list(map(_log, u2.tolist()))))
        if len(accepted) >= n:
            break
        attempts *= 2
    accepted = accepted[:n]
    _skip(rng, 2 * (int(accepted[-1]) + 1))
    if iframe_n > 0:
        p_frame = mean * iframe_n / (iframe_n - 1 + iframe_scale)
        mean = np.where(np.arange(n) % iframe_n == 0, p_frame * iframe_scale, p_frame * 1.0)
    scale = np.array(list(map(_exp, (0.0 + z[accepted] * size_sigma).tolist())))
    return np.maximum((scale * mean).astype(np.int64), 64)


def _survives_air(radio, walk: tuple) -> bool:
    """``RadioChannel.survives_air`` op for op.

    ``_walk_rss`` with ``random.gauss`` inlined (same draws, same
    carry-over cache on the stream), then one ``random() >=
    loss_probability()`` draw at the walked RSS, which reads the outage
    floor while the radio is disconnected.  ``walk`` holds the radio
    profile's constants (see :meth:`_GeneralRun.__init__`).
    """
    base, noise, floor, ceiling, base_loss, loss_at_floor = walk
    rng = radio._rng
    z = rng.gauss_next
    rng.gauss_next = None
    if z is None:
        x2pi = rng.random() * _TWOPI
        g2rad = _sqrt(-2.0 * _log(1.0 - rng.random()))
        z = _cos(x2pi) * g2rad
        rng.gauss_next = _sin(x2pi) * g2rad
    step = 0.0 + z * noise  # gauss: mu + z * sigma, mu = 0.0
    rss = radio._current_rss
    rss = rss + 0.25 * (base - rss) + step
    if rss < floor:
        rss = floor
    elif rss > ceiling:
        rss = ceiling
    radio._current_rss = rss
    if not radio.connected:
        rss = OUTAGE_FLOOR_DBM
    if rss >= GOOD_RSS_DBM:
        loss = base_loss
    else:
        frac = (GOOD_RSS_DBM - rss) / (GOOD_RSS_DBM - floor)
        if frac > 1.0:
            frac = 1.0
        loss = base_loss + frac * loss_at_floor
        if loss > 1.0:
            loss = 1.0
    return rng.random() >= loss


def _background_split(background: dict, air_qci: int) -> tuple[float, float] | None:
    """Precomputed ``AirInterface._demand_split`` for ≤ 1 background class.

    With at most one background class the reference's set-union loop
    collapses to one or two single-term bucket sums, which IEEE addition
    reproduces exactly (``x + 0.0 == x``, ``0.0 + x == x`` and ``a + b ==
    b + a`` for the non-negative rates here).  Returns ``(bg_higher,
    bg_same)``, so the hot paths compute ``higher = bg_higher; same =
    bg_same + rate``; returns None for ≥ 2 classes, where they call the
    live ``_demand_split`` instead.
    """
    if len(background) > 1:
        return None
    if not background:
        return 0.0, 0.0
    ((bg_qci, bg_rate),) = background.items()
    my_priority = scheduler_priority(air_qci)
    bg_priority = scheduler_priority(bg_qci)
    if bg_qci == air_qci or bg_priority == my_priority:
        return 0.0, bg_rate
    if bg_priority < my_priority:
        return bg_rate, 0.0
    return 0.0, 0.0  # lower priority: invisible to this QCI's buckets


def _live_split(spec: "LaneSpec", window: RateWindow, t: float, win_bits: int) -> tuple[float, float]:
    """``AirInterface._demand_split`` on the live air (≥ 2 background classes).

    Syncs the lane's bit sum into its foreground window and installs the
    window first, as the reference's first submit does.
    """
    window._bits = win_bits
    air = spec.air
    air._foreground[spec.air_qci] = window
    return air._demand_split(spec.air_qci, t)


def _flush_path(run) -> None:
    """Install the state both executors mirror alike into the live objects.

    Air FlowStats and the foreground window, RRC state and counts, the
    buffered COUNTER CHECK reports, the bearer's usage stamps, and the
    link and middlebox FlowStats.
    """
    spec = run.spec
    air = spec.air
    if run.off_p:  # the reference's first submit creates the window
        run.window._bits = run.win_bits
        air._foreground[spec.air_qci] = run.window
    air.offered.packets += run.off_p
    air.offered.bytes += run.off_b
    air.dropped.packets += run.drop_p
    air.dropped.bytes += run.drop_b
    air.transmitted.packets += run.trans_p
    air.transmitted.bytes += run.trans_b

    rrc = spec.rrc
    rrc.state = RrcState.CONNECTED if run.connected else RrcState.IDLE
    rrc.setups += run.setups
    rrc.releases += run.releases
    rrc.counter_checks_sent += run.checks_sent
    spec.modem.counter_checks_served += run.checks_sent
    # The operator's CounterCheckMonitor ingests the reports in one call;
    # any other sink gets the responses replayed in emission order.
    if spec.report_monitor is not None:
        spec.report_monitor.ingest(run.reports)
    elif run.reports:
        for t, ul_bytes, dl_bytes in run.reports:
            rrc.report_sink(CounterCheckResponse(t=t, uplink_bytes=ul_bytes, downlink_bytes=dl_bytes))

    # Bearer._touch stamps: the lane's charges are the direction
    # counter's whole point series (it was fresh at lane start).
    bearer = spec.bearer
    times = (bearer.uplink if spec.is_uplink else bearer.downlink)._times
    if times:
        if bearer.first_usage is None:
            bearer.first_usage = times[0]
        bearer.last_usage = times[-1]

    link = spec.backhaul_link if spec.is_uplink else spec.lan_link
    link.sent.packets += run.link_sent_p
    link.sent.bytes += run.link_sent_b
    link.delivered.packets += run.link_del_p
    link.delivered.bytes += run.link_del_b
    if link._m_sent is not None:
        link._m_sent.inc(run.link_sent_b)
        link._m_delivered.inc(run.link_del_b)

    middlebox = spec.middlebox
    middlebox.passed.packets += run.mb_pass_p
    middlebox.passed.bytes += run.mb_pass_b
    middlebox.dropped.packets += run.mb_drop_p
    middlebox.dropped.bytes += run.mb_drop_b


@dataclass
class LaneSpec:
    """Everything one lane needs, resolved by the adapter from live objects."""

    is_uplink: bool
    t0: float  # loop.now() at simulate start
    # Workload (the live FrameWorkload; its RNG stream is drawn in place).
    workload: object
    # Radio channel (live; RSS walk state and RNG stream used in place).
    radio: RadioChannel
    # The direction-relevant AirInterface of the serving cell.
    air: AirInterface
    #: QCI the air interface sees: the workload QCI on uplink (the SPGW
    #: stamps the bearer QCI *after* the air), the bearer QCI on downlink
    #: (stamped *before* the eNodeB).
    air_qci: int
    # RRC / modem.
    rrc: RrcConnectionManager
    modem: HardwareModem
    bearer: Bearer
    # Path latencies (NetworkConfig).
    lan_s: float
    backhaul_s: float
    # Endpoints.
    device: object
    server: object
    #: SLA age budget for this flow at the middlebox (None = none).
    sla_budget: float | None
    # Shared components receiving flushed totals.
    middlebox: object
    lan_link: object  # netsim.link.Link ("lan-dl"); DL lanes only
    backhaul_link: object  # netsim.link.Link ("backhaul-ul"); UL lanes only
    gateway_metrics: object  # spgw.metrics (MetricsRegistry or None)

    # ---- general mode (outage / quota / RSS / handover sessions) ----
    #: Run the general-mode executor (:class:`_GeneralRun`) instead of
    #: the fold lane.
    general: bool = False
    ue: object = None  # cellular.enodeb.UeContext
    access: object = None  # cellular.network.UeAccess
    spgw: object = None  # cellular.gateway.Spgw
    mme: object = None  # cellular.mme.Mme
    flow_id: str = ""
    handover: object = None  # cellular.mobility.HandoverProcess | None
    rlf_timeout_s: float = 5.0
    attach_delay_s: float = 0.5
    #: SpanRecorder receiving replayed ``radio.outage`` spans (single-UE
    #: scenario runs only; fleet sessions record no outage spans).
    span_recorder: object = None
    #: Pre-existing loop events absorbed into the lane as ``(kind,
    #: Event)`` pairs sorted by loop seq — the construction-time outage /
    #: RSS / handover / counter-reset chain heads.  Replayed on the wheel
    #: with negative seqs (they were scheduled before anything the lane
    #: pushes) and cancelled on flush so the caller's settle run cannot
    #: double-fire them.
    absorbed: tuple = ()
    #: :class:`~repro.netsim.faults.LaneFaultView` when the session has an
    #: active fault injector; None otherwise.  Path-kind decisions replay
    #: through it at the uplink/downlink injection points, counter resets
    #: through :meth:`~repro.netsim.faults.LaneFaultView.apply_reset`.
    fault_view: object = None
    #: The :class:`~repro.edge.monitors.CounterCheckMonitor` whose
    #: ``on_report`` is the RRC report sink, or None for any other sink.
    report_monitor: object = None


class _WheelOrder:
    """Same-instant pop order of the events a fold lane's wheel would hold.

    The wheel pops equal times in push order, and every event is pushed
    while its pusher is handled, so two same-time events pop in the order
    their pushers popped — or, when one handler pushed both, in the order
    of its pushes.  :meth:`first` walks up the pushers while their times
    tie.  Events are ``(kind, index)`` pairs:

    * ``(_K_FRAME, k)``: frame k, pushed by frame k - 1 (frame 0 before
      anything else).  An uplink frame pushes its check (if it connects)
      and its deliveries, then the next frame; a downlink frame pushes the
      next frame, then its arrival;
    * ``(_K_ARRIVAL, k)``: frame k's downlink eNodeB arrival, which pushes
      its check (if it connects), then its deliveries;
    * ``(_K_DELIVER, i)``: chunk i's air delivery, pushed in chunk order;
    * ``(_K_CHECK, g)``: periodic check g, pushed by check g - 1 of the same
      connection or, for a connection's first check, by the activity that
      connected (``check_parent[g]``, that frame's index; else -1).
    """

    def __init__(self, is_uplink, frame_t, arrival_t, deliver_t, chunk_frame, check_t, check_parent):
        self.act_kind = _K_FRAME if is_uplink else _K_ARRIVAL
        self.next_frame_rank = _INF if is_uplink else 0
        self.times = {_K_FRAME: frame_t, _K_ARRIVAL: arrival_t, _K_DELIVER: deliver_t, _K_CHECK: check_t}
        self.chunk_frame = chunk_frame
        self.check_parent = check_parent
        self.memo: dict = {}

    def _pusher(self, event):
        kind, i = event
        if kind == _K_FRAME:
            return (_K_FRAME, i - 1) if i else None
        if kind == _K_ARRIVAL:
            return (_K_FRAME, i)
        if kind == _K_DELIVER:
            return (self.act_kind, int(self.chunk_frame[i]))
        parent = self.check_parent[i]
        return (_K_CHECK, i - 1) if parent < 0 else (self.act_kind, parent)

    def _rank(self, event):
        """Position among one handler's pushes."""
        kind, i = event
        if kind == _K_CHECK:
            return -1  # a connecting activity arms its check first
        if kind == _K_DELIVER:
            return i
        if kind == _K_ARRIVAL:
            return 1
        return self.next_frame_rank

    def first(self, a, b) -> bool:
        """Whether same-time event ``a`` pops before event ``b``."""
        memo, times = self.memo, self.times
        walked = []
        while True:
            found = memo.get((a, b))
            if found is not None:
                break
            ta, tb = times[a[0]][a[1]], times[b[0]][b[1]]
            if ta != tb:
                found = ta < tb
                break
            pa, pb = self._pusher(a), self._pusher(b)
            if pa is None or pb is None:
                found = pa is None
                break
            if pa == pb:
                found = self._rank(a) < self._rank(b)
                break
            walked.append((a, b))
            a, b = pa, pb
        for pair in walked:
            memo[pair] = found
        return found


class _LaneRun:
    """One fold lane: a quiet session's simulate() phase as array phases.

    See the module docstring for the contract and :meth:`run` for the
    phases.
    """

    def __init__(self, spec: LaneSpec, horizon: float, settle: float) -> None:
        self.spec = spec
        self.until = horizon
        self.end = horizon + settle
        self.packet_bytes = spec.workload.profile.packet_bytes
        split = _background_split(spec.air._background, spec.air_qci)
        if split is None:
            raise ValueError("a fold lane takes at most one background class")
        self.bg_higher, self.bg_same = split

        self.frames_sent = self.bytes_offered = 0
        # The foreground RateWindow the reference creates at the first
        # submit, holding the last submit's window; installed at flush.
        self.window = RateWindow()
        self.win_bits = 0
        self.off_p = self.off_b = self.drop_p = self.drop_b = 0
        self.trans_p = self.trans_b = 0
        self.rss = spec.radio._current_rss

        self.connected = False  # rrc.state is IDLE at a fresh start
        # COUNTER CHECK reports, handed to the sink at flush.
        self.reports: list | None = [] if spec.rrc.report_sink is not None else None
        self.setups = self.releases = self.checks_sent = 0

        self.mod_cum = _Cum()  # modem counter for the lane's direction
        self.bearer_cum = _Cum()
        self.dev_cum = _Cum()  # device ul (UL) / dl (DL) monitor
        self.srv_cum = _Cum()  # server ul (UL) / dl (DL) monitor
        self.charged = 0
        self.received = 0
        self.latencies: list[float] = []
        self.link_sent_p = self.link_sent_b = 0
        self.link_del_p = self.link_del_b = 0
        self.mb_pass_p = self.mb_pass_b = 0
        self.mb_drop_p = self.mb_drop_b = 0

    # ------------------------------------------------------------------ run

    def run(self) -> None:
        """Frames, air submits, deliveries, then counters and RRC reports."""
        spec = self.spec
        frame_t, frame_b = self._frames()
        if spec.is_uplink:
            # EdgeDevice.send: the device monitor and the modem count the
            # whole frame at its send time, and every frame is activity.
            self.dev_cum = _series(frame_t, frame_b)
            self.mod_cum = self.dev_cum.copy()
            arrival_t = None
            act_frame = np.arange(len(frame_t))
            act_t = frame_t
        else:
            arrival_t, act_frame = self._dl_frames(frame_t, frame_b)
            act_t = arrival_t[act_frame]
        chunk_t, chunk_b, chunk_frame, kept, kept_t = self._submit(act_t, frame_b[act_frame], act_frame)

        # Deliveries pop in time order, equal times in push (chunk) order;
        # those after the settle edge never pop.
        order = np.argsort(kept_t, kind="stable")
        n = int(np.searchsorted(kept_t[order], self.end, "right"))
        deliv_chunk = kept[order[:n]]
        deliv_t = kept_t[order[:n]]
        deliv_b = chunk_b[deliv_chunk]
        self.trans_p, self.trans_b = n, int(deliv_b.sum())
        survived = self._survive_air(n)
        surv_t = deliv_t[survived]
        surv_b = deliv_b[survived]
        if spec.is_uplink:
            # The backhaul (pure delay), then Spgw.receive_uplink: bearer
            # charge and server monitor at delivery + backhaul.
            gw_t = surv_t + spec.backhaul_s
            self.bearer_cum = _series(gw_t, surv_b)
            self.srv_cum = self.bearer_cum.copy()
            self.latencies = (gw_t - chunk_t[deliv_chunk[survived]]).tolist()
            self.received = self.link_sent_p = self.link_del_p = len(surv_b)
            self.link_sent_b = self.link_del_b = int(surv_b.sum())
            writes = (frame_t, frame_b, _K_FRAME, range(len(frame_t)))
        else:
            # modem.count_downlink, then device.deliver's monitor.
            self.mod_cum = _series(surv_t, surv_b)
            self.dev_cum = self.mod_cum.copy()
            writes = (surv_t, surv_b, _K_DELIVER, deliv_chunk[survived])
        self.charged = self.bearer_cum.total

        rep_t, rep_check, check_t, check_parent = self._rrc(act_t, act_frame)
        if self.reports is not None and rep_t:
            deliver_t = np.full(len(chunk_t), _INF)
            deliver_t[kept] = kept_t
            order = _WheelOrder(
                spec.is_uplink, frame_t, arrival_t, deliver_t, chunk_frame, check_t, check_parent
            )
            self._read_reports(rep_t, rep_check, *writes, order)
        self._flush()

    # --------------------------------------------------------------- phases

    def _frames(self) -> tuple:
        """FrameWorkload's frames: send times and sizes, drawn in order."""
        spec = self.spec
        wl = spec.workload
        profile = wl.profile
        shape = _frame_shape(profile)
        frame_dt = 1.0 / profile.fps
        until = self.until
        # FrameWorkload.start: the first frame at t0 + a uniform phase
        # jitter; each frame schedules the next frame_dt later, and frames
        # past the horizon send nothing.
        te = spec.t0 + wl._rng.uniform(0.0, 1.0 / profile.fps)
        times = []
        while te <= until:
            times.append(te)
            te = te + frame_dt
        sizes = _frame_sizes(wl._rng, len(times), shape)
        self.frames_sent = len(times)
        self.bytes_offered = int(sizes.sum())
        return np.array(times, dtype=float), sizes

    def _dl_frames(self, frame_t, frame_b) -> tuple:
        """EdgeServer.send with the LAN hop, SPGW charge and SLA check.

        Returns the frames' eNodeB arrival times and the indices of the
        frames whose arrival pops by the settle edge.
        """
        spec = self.spec
        n_chunks = -(-frame_b // self.packet_bytes)
        self.srv_cum = _series(frame_t, frame_b)  # server.dl_monitor at send
        gw_t = frame_t + spec.lan_s  # the LAN link delivers, the SPGW charges
        self.bearer_cum = _series(gw_t, frame_b)
        self.link_sent_p = self.link_del_p = int(n_chunks.sum())
        self.link_sent_b = self.link_del_b = self.bytes_offered
        # SlaMiddlebox.process: loop.now() - created_at > budget drops the
        # frame's chunks (charged, *then* dropped — that asymmetry is the point).
        if spec.sla_budget is None:
            passed = np.ones(len(frame_t), dtype=bool)
        else:
            passed = ~(gw_t - frame_t > spec.sla_budget)
        self.mb_pass_p = int(n_chunks[passed].sum())
        self.mb_pass_b = int(frame_b[passed].sum())
        self.mb_drop_p = self.link_sent_p - self.mb_pass_p
        self.mb_drop_b = self.bytes_offered - self.mb_pass_b
        arrival_t = gw_t + spec.backhaul_s  # _forward_backhaul_dl
        return arrival_t, np.flatnonzero(passed & (arrival_t <= self.end))

    def _submit(self, act_t, act_b, act_frame) -> tuple:
        """AirInterface.submit of every chunk in activity order.

        Returns each chunk's submit time, size and frame index, then the
        indices of the chunks the air kept and their delivery times.
        """
        air = self.spec.air
        pb = self.packet_bytes
        # Fragmentation: full packet_bytes chunks, then the remainder.
        n_chunks = -(-act_b // pb)
        n = int(n_chunks.sum())
        chunk_b = np.full(n, pb, dtype=np.int64)
        tail = act_b % pb
        has_tail = tail > 0
        chunk_b[(np.cumsum(n_chunks) - 1)[has_tail]] = tail[has_tail]
        chunk_t = np.repeat(act_t, n_chunks)
        chunk_frame = np.repeat(act_frame, n_chunks)
        self.off_p, self.off_b = n, int(act_b.sum())

        # RateWindow.observe (window_s = 1.0): after chunk i the window
        # holds the chunks j <= i with t_j > t_i - 1.0.
        bits = chunk_b * 8
        cum = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(bits, out=cum[1:])
        first = np.searchsorted(chunk_t, chunk_t - 1.0, "right")
        win_bits = cum[1:] - cum[first]
        if n:
            start = int(first[-1])
            self.window._samples.extend(zip(chunk_t[start:].tolist(), bits[start:].tolist()))
            self.win_bits = int(win_bits[-1])

        u = _draw_block(air._rng, n)  # submit draws before drop_probability
        higher = self.bg_higher
        same = self.bg_same + win_bits / 1.0  # RateWindow.rate_bps
        # drop_probability, max/min unrolled.
        usable = air.capacity_bps * air.usable_fraction - higher
        if usable < 0.0:
            usable = 0.0
        p = np.zeros(n)
        hot = (same > usable) & (same > 0)
        if usable <= 0:
            p[hot] = 1.0
        else:
            p[hot] = 1.0 - usable / same[hot]
        kept = np.flatnonzero(u >= p)
        self.drop_p = n - len(kept)
        kept_b = chunk_b[kept]
        self.drop_b = self.off_b - int(kept_b.sum())

        # queue_delay recomputes _demand_split at the same instant with
        # unchanged state, so it sees the same (higher, same).
        capacity = air.capacity_bps
        rho = np.minimum((higher + same[kept]) / capacity, 0.99)
        qd = np.where(rho < 0.5, 0.0, np.minimum(0.002 * rho / (1.0 - rho), air.max_queue_delay_s))
        delay = air.propagation_delay_s + qd + kept_b * 8.0 / capacity
        return chunk_t, chunk_b, chunk_frame, kept, chunk_t[kept] + delay

    def _survive_air(self, n: int):
        """``RadioChannel.survives_air`` for ``n`` deliveries in pop order.

        ``_walk_rss`` with ``random.gauss`` inlined, then one ``random() >=
        loss_probability()`` draw, on uniforms pre-drawn in one block.  A
        delivery on a fresh Box–Muller pair draws the pair's two uniforms,
        then its survival draw; the next delivery takes the pair's cached
        second normal and draws only its survival.  Only the RSS walk
        itself is a sequential loop.
        """
        rng = self.spec.radio._rng
        if not n:
            return np.zeros(0, dtype=bool)
        cached = rng.gauss_next
        head = 0 if cached is None else 1
        fresh = (n - head + 1) // 2
        odd = (n - head) % 2  # the last pair's second normal stays cached
        u = _draw_block(rng, n + 2 * fresh)
        # One row per fresh pair: its two uniforms and the two survival
        # draws, padded where an odd tail has no second delivery.
        pairs = np.concatenate((u[head:], np.zeros(odd))).reshape(fresh, 4)
        x2pi = (pairs[:, 0] * _TWOPI).tolist()
        g2rad = -2.0 * np.array(list(map(_log, (1.0 - pairs[:, 1]).tolist())))
        g2rad = np.array(list(map(_sqrt, g2rad.tolist())))
        normals = np.empty(2 * fresh)
        normals[0::2] = np.array(list(map(_cos, x2pi))) * g2rad
        normals[1::2] = np.array(list(map(_sin, x2pi))) * g2rad
        draws = pairs[:, 2:].ravel()
        if head:
            normals = np.concatenate(([cached], normals))
            draws = np.concatenate((u[:1], draws))
        rng.gauss_next = float(normals[n]) if odd else None

        rp = self.spec.radio.profile
        base, floor, ceiling = rp.base_rss_dbm, rp.rss_floor_dbm, rp.rss_ceiling_dbm
        rss = self.rss
        walk = []
        append = walk.append
        for step in (0.0 + normals[:n] * rp.rss_noise_std).tolist():  # gauss: mu + z * sigma
            rss = rss + 0.25 * (base - rss) + step
            if rss < floor:
                rss = floor
            elif rss > ceiling:
                rss = ceiling
            append(rss)
        self.rss = rss
        walk = np.array(walk)
        # loss_probability at each walked RSS, min unrolled.
        frac = np.minimum((GOOD_RSS_DBM - walk) / (GOOD_RSS_DBM - floor), 1.0)
        loss = np.minimum(rp.base_loss + frac * rp.loss_at_floor, 1.0)
        loss[walk >= GOOD_RSS_DBM] = rp.base_loss
        return draws[:n] >= loss

    def _rrc(self, act_t, act_frame) -> tuple:
        """RRC connections, checks and releases from the activity instants.

        ``rrc.on_data_activity`` re-arms the release timer at every
        activity, so a connection ends at ``last + timeout`` unless the next
        activity comes first; an activity at the deadline finds it
        released.  Its periodic checks fire while they come before the
        release and by the settle edge.  Returns the report instants in
        emission order, each one's check index (-1 for a release), and the
        checks' times and parents (see :class:`_WheelOrder`).
        """
        if not len(act_t):
            return [], [], [], []
        rrc = self.spec.rrc
        timeout = rrc.inactivity_timeout_s
        dt = rrc.counter_check_interval_s
        end = self.end
        release_at = act_t + timeout
        stops = np.flatnonzero(release_at[:-1] <= act_t[1:])
        starts = np.concatenate(([0], stops + 1))
        stops = np.concatenate((stops, [len(act_t) - 1]))
        rep_t, rep_check, check_t, check_parent = [], [], [], []
        # Per connection: the connecting activity's frame and instant, and
        # the release deadline its last activity armed.
        for parent, first_t, released in zip(
            act_frame[starts].tolist(), act_t[starts].tolist(), release_at[stops].tolist()
        ):
            if dt is not None:
                # The connecting activity arms the first check; each check
                # that fires arms the next; the release cancels them.
                chain = []
                c = first_t + dt
                while c < released and c <= end:
                    chain.append(c)
                    c = c + dt
                if chain:
                    rep_t += chain
                    rep_check += range(len(check_t), len(check_t) + len(chain))
                    check_t += chain
                    check_parent += [parent] + [-1] * (len(chain) - 1)
            if released <= end:
                rep_t.append(released)
                rep_check.append(-1)
                self.releases += 1
        self.setups = len(starts)
        self.connected = self.setups > self.releases
        self.checks_sent = len(rep_t)
        return rep_t, rep_check, check_t, check_parent

    def _read_reports(self, rep_t, rep_check, write_t, write_b, write_kind, write_index, order) -> None:
        """The modem counter each COUNTER CHECK reports.

        A report reads the writes before its instant.  A periodic check
        also reads the same-instant writes that pop before it on the wheel
        (``order``); a release reads none, because the lazy release fires
        before any event at its deadline.
        """
        n = len(write_t)
        cum = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(write_b, out=cum[1:])
        at = np.searchsorted(write_t, rep_t, "left")
        reads = cum[at].tolist()
        for r in np.flatnonzero(np.concatenate((write_t, [_INF]))[at] == rep_t).tolist():
            check = rep_check[r]
            if check < 0:
                continue
            k, t = int(at[r]), rep_t[r]
            while k < n and write_t[k] == t and order.first((write_kind, int(write_index[k])), (_K_CHECK, check)):
                k += 1
            reads[r] = int(cum[k])
        if self.spec.is_uplink:
            self.reports.extend(zip(rep_t, reads, [0] * len(reads)))
        else:
            self.reports.extend(zip(rep_t, [0] * len(reads), reads))

    # ---------------------------------------------------------------- flush

    def _flush(self) -> None:
        """Install the lane's flat state into the live component objects."""
        spec = self.spec
        wl = spec.workload
        wl.frames_sent += self.frames_sent
        wl.bytes_offered += self.bytes_offered
        wl._until = self.until

        spec.radio._current_rss = self.rss

        modem = spec.modem
        bearer = spec.bearer
        self.mod_cum.flush_into(modem.ul_sent if spec.is_uplink else modem.dl_received)
        self.bearer_cum.flush_into(bearer.uplink if spec.is_uplink else bearer.downlink)
        _flush_path(self)

        device = spec.device
        server = spec.server
        # Sender packet-sequence iterator: one next() per chunk sent.
        # Uplink submits every chunk to the air (off_p); downlink sends
        # every chunk onto the LAN link (link_sent_p).
        sender = device if spec.is_uplink else server
        sender._seq = _count_from(self.off_p if spec.is_uplink else self.link_sent_p)
        if spec.is_uplink:
            self.dev_cum.flush_into(device.ul_monitor.counter)
            self.srv_cum.flush_into(server.ul_monitor.counter)
            server.stats.received += self.received
            server.stats.latencies.extend(self.latencies)
        else:
            self.srv_cum.flush_into(server.dl_monitor.counter)
            self.dev_cum.flush_into(device.dl_monitor.counter)

        # The gateway creates its charged counter lazily on the first
        # charged packet; mirror that so empty runs snapshot identically.
        if self.charged and spec.gateway_metrics is not None:
            direction = "UL" if spec.is_uplink else "DL"
            spec.gateway_metrics.counter(
                "cellular.gateway.charged_bytes", direction=direction
            ).inc(self.charged)


class _GeneralRun:
    """General-mode lane: outage, RSS, quota and handover sessions.

    The fold lane wins its speedup by running whole lanes as array
    phases, which is only sound while the UE's path state cannot change
    mid-frame.  Outage windows, RLF detaches, PCRF
    policer refills and handover breaks all violate that invariant, so
    this executor keeps the reference engine's per-hop granularity —
    every packet hop is one wheel event — while still running on the
    private tuple wheel with flat mirrored state instead of the shared
    event loop with its closure allocations and object hops.

    State split
    -----------

    *Live*: the real objects the lane reads back mid-run or shares with
    the reference code it still calls — the radio (connectivity, RSS
    walk state, outage bookkeeping, its RNG stream), the workload's
    frame counters and RNG stream, the cumulative counters, the
    drop-tail queues' FlowStats, MME/bearer activation, the PCRF policy.
    The per-hop work on them runs in local code, op for op:
    :func:`_frame_size` and :func:`_survives_air` replace the workload
    and radio methods, and counters take :func:`_count`, the lean add
    path without per-call validation.  The real event-loop clock is
    *stale* during the lane (it never advances), so every reference code
    path that reads ``loop.now()`` — ``TrafficMonitor.observe``,
    ``HardwareModem.count_*``, ``Link.send``, ``TokenBucket`` — is
    mirrored with the wheel's event time instead of being called.  A
    frame's chunks share one timestamp, so the server's downlink monitor,
    the device's uplink monitor, the modem's uplink counter (without a
    fault pipe) and the bearer's downlink charge take one add per frame.

    *Mirrored and flushed*: RRC connection state (lazy release deadline
    plus a reserved seq for exact same-time ordering; generation-
    cancelled periodic checks) and the COUNTER CHECK reports, buffered as
    ``(t, uplink_bytes, downlink_bytes)`` triples and handed to the sink
    at flush; the foreground RateWindow with the fold lane's shared
    demand-split specialization (:func:`_background_split`, falling back
    to the live ``_demand_split``); the two drop-tail queues (contents,
    bytes, and the handover-inflated capacity/drop-layer); the token
    bucket policer; the RLF timer generation; the handover save/restore
    pair; the ``radio.outage`` span walk; and plain sums — air, link,
    middlebox and gateway FlowStats and metric counters — applied once.

    Same-time event ordering follows the module's tie rule; the only batched events are the downlink LAN and backhaul
    deliveries of one frame, whose reference events hold *consecutive*
    global seqs (nothing else schedules between them), so collapsing
    them into one wheel event preserves relative order exactly.
    """

    def __init__(self, spec: LaneSpec, horizon: float, settle: float) -> None:
        self.spec = spec
        self.until = horizon
        self.end = horizon + settle
        self.heap: list[tuple] = []
        self.seq = 0

        self.wl = spec.workload
        self.radio = spec.radio
        self.modem = spec.modem
        self.bearer = spec.bearer
        self.ue = spec.ue
        self.mme = spec.mme
        self.spgw = spec.spgw
        self.handover = spec.handover
        self.server = spec.server
        self.device = spec.device

        profile = spec.workload.profile
        self.wl_random = spec.workload._rng.random
        self.shape = _frame_shape(profile)
        self.frame_dt = 1.0 / profile.fps
        self.packet_bytes = profile.packet_bytes

        air = spec.air
        self.air_random = air._rng.random
        self.capacity = air.capacity_bps
        self.cap_usable = air.capacity_bps * air.usable_fraction
        self.prop = air.propagation_delay_s
        self.max_qd = air.max_queue_delay_s
        split = _background_split(air._background, spec.air_qci)
        self.split_general = split is None
        self.bg_higher, self.bg_same = split or (0.0, 0.0)
        # Foreground RateWindow mirror, installed at flush as in the fold lane.
        self.window = RateWindow()
        self.win_samples = self.window._samples
        self.win_bits = 0

        rp = spec.radio.profile
        self.walk = (
            rp.base_rss_dbm, rp.rss_noise_std, rp.rss_floor_dbm,
            rp.rss_ceiling_dbm, rp.base_loss, rp.loss_at_floor,
        )
        self.mean_outage = rp.mean_outage_s
        self.mean_uptime = rp.mean_uptime_s
        self.rss_dt = rp.rss_sample_interval_s

        rrc = spec.rrc
        self.connected = False  # eligibility requires IDLE at start
        self.release_at = _INF
        self.release_seq = 0
        self.timeout = rrc.inactivity_timeout_s
        self.check_dt = rrc.counter_check_interval_s
        self.check_gen = 0
        self.reports: list | None = [] if rrc.report_sink is not None else None
        self.setups = 0
        self.releases = 0
        self.checks_sent = 0

        # Sender-side packet sequence mirror: EdgeDevice.send (UL) /
        # EdgeServer.send (DL) stamp ``seq=next(self._seq)`` on every
        # chunk; buffered packets carry it and the iterator position is
        # flushed back so a rebuilt queue is field-identical.
        self.send_seq = 0

        # Drop-tail queue mirrors: [(size, created_at, seq), ...] + bytes.
        self.dlq: list[tuple[int, float, int]] = []
        self.dlq_bytes = 0
        self.dlq_cap = spec.ue.dl_buffer.capacity_bytes
        self.dlq_layer = spec.ue.dl_buffer.drop_layer
        self.ulq: list[tuple[int, float, int]] = []
        self.ulq_bytes = 0
        self.ulq_cap = spec.access._ul_buffer.capacity_bytes

        # Token-bucket policer mirror (Spgw._policers[flow_id]).
        self.policy = spec.spgw.policy
        self.p_rate: float | None = None
        self.p_burst = 0.0
        self.p_tokens = 0.0
        self.p_last = 0.0

        # Plain sums flushed once: air, link (backhaul UL / LAN DL) and
        # middlebox FlowStats, and the gateway's drop stats and metric
        # counters (the registry's per-call key formatting dominates the
        # hot path; counters are plain sums so one inc at flush is
        # observably identical).
        self.off_p = self.off_b = self.drop_p = self.drop_b = 0
        self.trans_p = self.trans_b = 0
        self.link_sent_p = self.link_sent_b = 0
        self.link_del_p = self.link_del_b = 0
        self.mb_pass_p = self.mb_pass_b = 0
        self.mb_drop_p = self.mb_drop_b = 0
        self.detached_p = self.drop_detached = 0
        self.policed_p = self.drop_policed = 0
        self.charged_ul = 0
        self.charged_dl = 0

        self.rlf_gen = 0
        # Handover break save/restore mirror (HandoverProcess._saved_*).
        self.ho_saved_layer: str | None = None
        self.ho_saved_cap: int | None = None

        # Fault-schedule deciders: ``decide(t) -> (action, delay)`` per
        # injection point, or None when the schedule can never touch that
        # point (the reference draws no RNG there either).
        fv = spec.fault_view
        self.fault_ul = fv.decider("uplink") if fv is not None else None
        self.fault_dl = fv.decider("downlink") if fv is not None else None

        # radio.outage span mirror: closed (open_t, close_t) pairs plus
        # the currently-open outage, if any (scenario runs only).
        self.span_open_t: float | None = None
        self.spans: list[tuple[float, float]] = []

    # ----------------------------------------------------------- lifecycle

    def run(self) -> None:
        spec = self.spec
        # Absorbed construction-time events (the outage / RSS / handover
        # chain heads) predate every lane push, so they keep their
        # relative loop order via negative wheel seqs.
        n = len(spec.absorbed)
        for idx, (kind, event) in enumerate(spec.absorbed):
            # The Event rides along so _K_RESET can read its args; the
            # other absorbed kinds ignore the payload.
            heappush(self.heap, (event.time, idx - n, kind, event, 0))
        # FrameWorkload.start: first frame at t0 + uniform phase jitter.
        jitter = self.wl._rng.uniform(0.0, 1.0 / self.wl.profile.fps)
        self.seq += 1
        heappush(self.heap, (spec.t0 + jitter, self.seq, _K_FRAME, 0, 0))
        self._run()
        self._flush()

    def _push(self, t: float, kind: int, a=0, b=0) -> None:
        self.seq += 1
        heappush(self.heap, (t, self.seq, kind, a, b))

    def _run(self) -> None:
        heap = self.heap
        end = self.end
        is_ul = self.spec.is_uplink

        # The wheel never drains naturally — outage, RSS and handover
        # chains reschedule forever, exactly like the reference loop's
        # pending queue at run_until's horizon — so the loop exits via
        # the beyond-end break, leaving future events unprocessed.
        while heap:
            te, ev_seq, kind, a, b = heappop(heap)
            if te > end:
                break
            # Lazy RRC release with exact tie-breaking: the release
            # timer holds the seq reserved at the last data activity, so
            # on a time tie it fires first unless the popped event was
            # scheduled even earlier (an absorbed chain head or a
            # long-armed outage toggle carries the smaller seq).
            if self.connected:
                ra = self.release_at
                if ra < te or (ra == te and self.release_seq < ev_seq):
                    self._fire_release()

            if kind == _K_DELIVER:
                self._on_deliver(te, a, b, is_ul)
            elif kind == _K_FRAME:
                if te > self.until:
                    continue  # workload stopped; no reschedule
                if is_ul:
                    self._on_frame_ul(te)
                else:
                    self._on_frame_dl(te)
            elif kind == _K_LAN:
                self._on_lan(te, a, b)
            elif kind == _K_BH:
                self._on_bh(te, a, b)
            elif kind == _K_GW:
                self._on_gw(te, a, b)
            elif kind == _K_CHECK:
                # Stale generations are cancelled timers; a live timer
                # firing while IDLE does not re-arm (rrc._periodic_check).
                if a == self.check_gen and self.connected:
                    self._counter_check(te)
                    self._push(te + self.check_dt, _K_CHECK, self.check_gen)
            elif kind == _K_OUT_BEGIN:
                self._on_out_begin(te)
            elif kind == _K_OUT_END:
                self._on_out_end(te)
            elif kind == _K_RLF:
                self._on_rlf(a)
            elif kind == _K_REATTACH:
                self._on_reattach(te)
            elif kind == _K_HO_BEGIN:
                self._on_ho_begin(te)
            elif kind == _K_HO_COMPLETE:
                self._on_ho_complete(te)
            elif kind == _K_RESET:
                # Absorbed FaultInjector._reset_modem event: replay the
                # counter zeroing at the armed instant.
                modem, point = a.args
                self.spec.fault_view.apply_reset(modem, te, point)
            elif kind == _K_UL_SEND:
                # Fault-delayed (or duplicated) uplink send: the pipe's
                # deferred downstream(packet) = UeAccess.send_uplink.
                created, pkt_seq = b
                self._ul_send(te, a, created, pkt_seq)
            elif kind == _K_DL_DELIVER:
                # Fault-delayed (or duplicated) downlink delivery: the
                # pipe's deferred ue.deliver -> device.dl_monitor.
                _count(self.device.dl_monitor.counter, te, a)
            else:  # _K_RSS
                radio = self.radio
                radio._walk_rss()
                radio.rss_history.append(
                    RssSample(te, radio.current_rss(), radio.connected)
                )
                self._push(te + self.rss_dt, _K_RSS)

        # A release armed before the horizon's edge still fires inside
        # the settle window even with no later event left to trigger
        # the lazy check.
        if self.connected and self.release_at <= end:
            self._fire_release()

    # ----------------------------------------------------------------- RRC

    def _counter_check(self, t: float) -> None:
        # rrc.perform_counter_check: the modem counters are live (a
        # counter reset replaces them), so the report reads their real
        # totals at this wheel instant.
        self.checks_sent += 1
        if self.reports is not None:
            modem = self.modem
            self.reports.append((t, modem.ul_sent._total, modem.dl_received._total))

    def _fire_release(self) -> None:
        # rrc._release_on_inactivity at the armed deadline.
        self._counter_check(self.release_at)
        self.releases += 1
        self.connected = False
        self.check_gen += 1
        self.release_at = _INF

    def _rrc_activity(self, te: float) -> None:
        # rrc.on_data_activity: _setup (periodic check armed first),
        # then the release timer re-armed — which consumes a loop seq on
        # *every* activity; reserve it so same-time ties resolve exactly
        # as the reference's.
        if not self.connected:
            self.connected = True
            self.setups += 1
            if self.check_dt is not None:
                self._push(te + self.check_dt, _K_CHECK, self.check_gen)
        self.seq += 1
        self.release_seq = self.seq
        self.release_at = te + self.timeout

    # ----------------------------------------------------------------- air

    def _air_submit(self, te: float, size: int, created: float, pkt_seq: int = 0) -> None:
        # AirInterface.submit with ``loop.now()`` == te made explicit:
        # RateWindow.observe (window_s = 1.0) on the mirrored window, the
        # drop draw, then drop_probability and queue_delay op for op
        # (cap × usable_fraction is the same float as the precomputed
        # product; max/min unrolled).
        bits = size * 8
        samples = self.win_samples
        samples.append((te, bits))
        win_bits = self.win_bits + bits
        cutoff = te - 1.0
        while samples and samples[0][0] <= cutoff:
            win_bits -= samples.popleft()[1]
        self.win_bits = win_bits
        self.off_p += 1
        self.off_b += size
        u = self.air_random()
        if self.split_general:
            higher, same = _live_split(self.spec, self.window, te, win_bits)
        else:
            higher = self.bg_higher
            same = self.bg_same + win_bits / 1.0  # RateWindow.rate_bps
        usable = self.cap_usable - higher
        if usable < 0.0:
            usable = 0.0
        if same <= usable or same <= 0:
            p = 0.0
        elif usable <= 0:
            p = 1.0
        else:
            p = 1.0 - usable / same
        if u < p:
            self.drop_p += 1
            self.drop_b += size
            return
        # queue_delay re-runs _demand_split at the same instant with
        # unchanged window state — reuse (higher, same).
        rho = (higher + same) / self.capacity
        if rho > 0.99:
            rho = 0.99
        if rho < 0.5:
            qd = 0.0
        else:
            qd = 0.002 * rho / (1.0 - rho)
            if qd > self.max_qd:
                qd = self.max_qd
        delay = self.prop + qd + size * 8.0 / self.capacity
        self.seq += 1
        heappush(self.heap, (te + delay, self.seq, _K_DELIVER, size, (created, pkt_seq)))

    # --------------------------------------------------------------- quota

    def _quota_check(self, t: float, size: int, used: int) -> bool:
        # Spgw._policed against the mirrored token bucket (the real
        # TokenBucket reads ``loop.now()`` in both ctor and admit, which
        # is stale here — t is the wheel event time).  ``used`` is the
        # bearer's charged total, both directions.
        rate = self.policy.allowed_rate_bps(self.spec.flow_id, used)
        if rate is None:
            self.p_rate = None  # mirrors _policers.pop
            return False
        if self.p_rate is None or self.p_rate != rate:
            self.p_rate = rate
            self.p_burst = rate / 8.0
            self.p_tokens = self.p_burst
            self.p_last = t
        tokens = self.p_tokens + (t - self.p_last) * self.p_rate / 8.0
        if tokens > self.p_burst:
            tokens = self.p_burst
        self.p_last = t
        if tokens >= size:
            self.p_tokens = tokens - size
            return False
        self.p_tokens = tokens
        return True

    # -------------------------------------------------------------- queues

    def _dlq_push(self, size: int, created: float, pkt_seq: int) -> None:
        # ue.dl_buffer.push: tail drop against the (possibly handover-
        # inflated) mirrored capacity; FlowStats live on the real queue.
        q = self.ue.dl_buffer
        if self.dlq_bytes + size > self.dlq_cap:
            q.dropped.packets += 1
            q.dropped.bytes += size
            return
        self.dlq.append((size, created, pkt_seq))
        self.dlq_bytes += size
        q.enqueued.packets += 1
        q.enqueued.bytes += size

    def _ulq_push(self, size: int, created: float, pkt_seq: int) -> None:
        # access._ul_buffer.push (the modem's uplink buffer).
        q = self.spec.access._ul_buffer
        if self.ulq_bytes + size > self.ulq_cap:
            q.dropped.packets += 1
            q.dropped.bytes += size
            return
        self.ulq.append((size, created, pkt_seq))
        self.ulq_bytes += size
        q.enqueued.packets += 1
        q.enqueued.bytes += size

    def _drain_dlq(self, te: float) -> None:
        # ENodeB._drain_buffer: recovered packets re-enter the air with
        # their original created_at; no RRC activity on this path.
        if not self.dlq:
            return
        dlq = self.dlq
        self.dlq = []
        self.dlq_bytes = 0
        recovered = self.ue.buffered_recovered
        for size, created, pkt_seq in dlq:
            recovered.packets += 1
            recovered.bytes += size
            self._air_submit(te, size, created, pkt_seq)

    # -------------------------------------------------------------- frames

    def _ul_send(self, t: float, size: int, created: float, pkt_seq: int) -> None:
        # UeAccess.send_uplink at time t.  Fault-delayed sends fire here
        # after the frame handler returned, so attach and radio state are
        # re-read at fire time, exactly as the deferred reference call.
        # A detached UE's packet dies after the app-level count — no
        # modem count, no buffer, no stats.
        if not self.ue.attached:
            return
        _count(self.modem.ul_sent, t, size)  # counts before the radio check
        if not self.radio.connected:
            self._ulq_push(size, created, pkt_seq)
        else:
            self._rrc_activity(t)
            self._air_submit(t, size, created, pkt_seq)

    def _on_frame_ul(self, te: float) -> None:
        # FrameWorkload._emit_frame with sender = EdgeDevice.send.  The
        # workload's frame counters and RNG stream stay live.  Every chunk
        # is counted by device.ul_monitor at te: one add per frame.
        wl = self.wl
        remaining = _frame_size(self.wl_random, wl.frames_sent, self.shape)
        wl.frames_sent += 1
        wl.bytes_offered += remaining
        _count(self.device.ul_monitor.counter, te, remaining)
        packet_bytes = self.packet_bytes
        fault = self.fault_ul
        # UeAccess.send_uplink: a detached UE's packet dies after the
        # app-level count — no modem count, no buffer, no stats.  Attach
        # and radio state cannot change inside the handler, so without a
        # fault pipe the modem counts the whole frame at te.
        attached = fault is None and self.ue.attached
        connected = self.radio.connected
        if attached:
            _count(self.modem.ul_sent, te, remaining)  # counts before the radio check
        while remaining > 0:
            chunk = remaining if remaining < packet_bytes else packet_bytes
            pkt_seq = self.send_seq  # device.send: seq=next(self._seq)
            self.send_seq += 1
            if fault is not None:
                # The injector pipe wraps access.send_uplink, so the fate
                # decision runs before the attached check, per chunk.
                action, delay = fault(te)
                if action is None:
                    self._ul_send(te, chunk, te, pkt_seq)
                elif action == "delay":
                    self._push(te + delay, _K_UL_SEND, chunk, (te, pkt_seq))
                elif action == "dup":
                    # Original now, the same packet again after the delay
                    # (the modem counts it twice, like the reference).
                    self._ul_send(te, chunk, te, pkt_seq)
                    self._push(te + delay, _K_UL_SEND, chunk, (te, pkt_seq))
                # drop: the chunk dies after the app-level count
            elif attached:
                if not connected:
                    self._ulq_push(chunk, te, pkt_seq)
                else:
                    self._rrc_activity(te)
                    self._air_submit(te, chunk, te, pkt_seq)
            remaining -= chunk
        self._push(te + self.frame_dt, _K_FRAME)

    def _on_frame_dl(self, te: float) -> None:
        # _emit_frame with sender = EdgeServer.send: per chunk the server
        # monitor counts and the LAN link accepts (depart = now, deliver
        # at te + lan_s).  All at te, so the monitor takes one add per
        # frame.  One frame's LAN delivers hold consecutive reference
        # seqs, so they batch into a single wheel event pushed before the
        # next-frame event, preserving relative order.
        wl = self.wl
        size = _frame_size(self.wl_random, wl.frames_sent, self.shape)
        wl.frames_sent += 1
        wl.bytes_offered += size
        _count(self.server.dl_monitor.counter, te, size)
        packet_bytes = self.packet_bytes
        # server.send: seq=next(self._seq) per chunk, full chunks first.
        n_full, last = divmod(size, packet_bytes)
        first = self.send_seq
        chunks = [(packet_bytes, first + i) for i in range(n_full)]
        if last:
            chunks.append((last, first + n_full))
        self.send_seq = first + len(chunks)
        self.link_sent_p += len(chunks)
        self.link_sent_b += size
        heap = self.heap
        seq = self.seq
        heappush(heap, (te + self.spec.lan_s, seq + 1, _K_LAN, chunks, te))
        heappush(heap, (te + self.frame_dt, seq + 2, _K_FRAME, 0, 0))
        self.seq = seq + 2

    # ---------------------------------------------------------------- hops

    def _on_lan(self, te: float, chunks: list, created: float) -> None:
        # Link._deliver → Spgw.send_downlink per chunk: charge (or drop)
        # at te, SLA verdict at the middlebox, then one batched backhaul
        # event for the surviving chunks (consecutive reference seqs).
        # Bearer activation and the SLA verdict (every chunk of the frame
        # has the same age) cannot change inside the handler.
        self.link_del_p += len(chunks)
        if not self.bearer.active:
            nbytes = sum(chunk for chunk, _ in chunks)
            self.link_del_b += nbytes
            self.detached_p += len(chunks)
            self.drop_detached += nbytes
            return
        sla = self.spec.sla_budget
        aged = sla is not None and te - created > sla
        policed = self.policy is not None
        bearer = self.bearer
        # Every charge lands at te, so the bearer counter takes one add
        # per frame; the quota check sees the running total.
        used = bearer.uplink._total + bearer.downlink._total
        delivered = charged = 0
        passed = []
        for chunk, pkt_seq in chunks:
            delivered += chunk
            if policed and self._quota_check(te, chunk, used + charged):
                self.policed_p += 1
                self.drop_policed += chunk
                continue
            charged += chunk
            passed.append((chunk, pkt_seq))
        self.link_del_b += delivered
        if charged:
            _count(bearer.downlink, te, charged)
            self.charged_dl += charged
        # SlaMiddlebox.process: age verdict on the charged packets.
        if aged:
            self.mb_drop_p += len(passed)
            self.mb_drop_b += charged
        elif passed:
            self.mb_pass_p += len(passed)
            self.mb_pass_b += charged
            self._push(te + self.spec.backhaul_s, _K_BH, passed, created)

    def _on_bh(self, te: float, chunks: list, created: float) -> None:
        # Backhaul deliver → ENodeB.receive_downlink per chunk.
        if not self.ue.attached:
            dropped = self.ue.dropped_detached
            dropped.packets += len(chunks)
            dropped.bytes += sum(chunk for chunk, _ in chunks)
            return
        for chunk, pkt_seq in chunks:
            self._rrc_activity(te)
            self._air_submit(te, chunk, created, pkt_seq)

    def _on_deliver(self, te: float, size: int, payload: tuple, is_ul: bool) -> None:
        # AirInterface._transmit → ENodeB._air_deliver_ul/_air_deliver_dl.
        created, pkt_seq = payload
        self.trans_p += 1
        self.trans_b += size
        radio = self.radio
        if is_ul:
            # _air_deliver_ul draws survival unconditionally.
            if _survives_air(radio, self.walk):
                self.link_sent_p += 1
                self.link_sent_b += size
                self._push(te + self.spec.backhaul_s, _K_GW, size, created)
            return
        ue = self.ue
        if not ue.attached:
            ue.dropped_detached.packets += 1
            ue.dropped_detached.bytes += size
        elif not radio.connected:
            self._dlq_push(size, created, pkt_seq)  # buffered for the outage drain
        elif _survives_air(radio, self.walk):
            _count(self.modem.dl_received, te, size)  # modem.count_downlink
            fault = self.fault_dl
            if fault is not None:
                # The injector pipe wraps ue.deliver, so the fate decision
                # runs after the modem count, before the device monitor.
                action, delay = fault(te)
                if action is None:
                    _count(self.device.dl_monitor.counter, te, size)
                elif action == "delay":
                    self._push(te + delay, _K_DL_DELIVER, size)
                elif action == "dup":
                    _count(self.device.dl_monitor.counter, te, size)
                    self._push(te + delay, _K_DL_DELIVER, size)
                # drop: counted at the modem, never at the device
            else:
                _count(self.device.dl_monitor.counter, te, size)  # device.deliver
        # else: phy-rss loss, counted nowhere

    def _on_gw(self, te: float, size: int, created: float) -> None:
        # Backhaul Link._deliver → Spgw.receive_uplink.
        self.link_del_p += 1
        self.link_del_b += size
        if not self.bearer.active:
            self.detached_p += 1
            self.drop_detached += size
            return
        bearer = self.bearer
        if self.policy is not None and self._quota_check(
            te, size, bearer.uplink._total + bearer.downlink._total
        ):
            self.policed_p += 1
            self.drop_policed += size
            return
        _count(bearer.uplink, te, size)
        self.charged_ul += size
        # EdgeServer._receive_uplink via the registered SPGW sink.
        server = self.server
        _count(server.ul_monitor.counter, te, size)
        server.stats.received += 1
        server.stats.latencies.append(te - created)

    # -------------------------------------------------------------- outage

    def _outage_start_callbacks(self, te: float) -> None:
        # Registration order: ENodeB._on_outage_start (arms the RLF
        # timer), then the scenario runner's span-open callback.
        self._push(te + self.spec.rlf_timeout_s, _K_RLF, self.rlf_gen)
        if self.spec.span_recorder is not None and self.span_open_t is None:
            self.span_open_t = te

    def _outage_end_callbacks(self, te: float) -> None:
        # Registration order: ENodeB._on_outage_end, then
        # UeAccess._drain_ul_buffer, then the runner's span close.
        self.rlf_gen += 1  # cancels the armed RLF timer
        ue = self.ue
        if not ue.attached:
            self._push(te + self.spec.attach_delay_s, _K_REATTACH)
        else:
            self._drain_dlq(te)
        if ue.attached and self.ulq:
            ulq = self.ulq
            self.ulq = []
            self.ulq_bytes = 0
            for size, created, pkt_seq in ulq:
                # Each buffered packet replays receive_uplink.
                self._rrc_activity(te)
                self._air_submit(te, size, created, pkt_seq)
        if self.spec.span_recorder is not None and self.span_open_t is not None:
            self.spans.append((self.span_open_t, te))
            self.span_open_t = None

    def _on_out_begin(self, te: float) -> None:
        # RadioChannel._begin_outage.  Firing while already disconnected
        # (inside a handover break) kills the natural chain permanently —
        # the reference returns without rescheduling; preserved quirk.
        radio = self.radio
        if not radio.connected:
            return
        radio.connected = False
        radio.outage_count += 1
        radio._outage_started_at = te
        self._outage_start_callbacks(te)
        outage = radio._rng.expovariate(1.0 / self.mean_outage)
        self._push(te + outage, _K_OUT_END)

    def _on_out_end(self, te: float) -> None:
        # RadioChannel._end_outage.
        radio = self.radio
        if radio.connected:
            return
        radio.connected = True
        if radio._outage_started_at is not None:
            radio.total_outage_time += te - radio._outage_started_at
            radio._outage_started_at = None
        self._outage_end_callbacks(te)
        uptime = radio._rng.expovariate(1.0 / self.mean_uptime)
        self._push(te + uptime, _K_OUT_BEGIN)

    def _on_rlf(self, gen: int) -> None:
        # ENodeB._check_rlf: stale generations are cancelled timers.
        if gen != self.rlf_gen:
            return
        ue = self.ue
        if self.radio.connected or not ue.attached:
            return
        ue.rlf_count += 1
        # rrc.abort(): leave CONNECTED without a counter check.
        if self.connected:
            self.connected = False
            self.releases += 1
            self.check_gen += 1
            self.release_at = _INF
        ue.attached = False
        # Buffered downlink dies silently (mark_dropped only, no stats).
        self.dlq.clear()
        self.dlq_bytes = 0
        self.mme.detach(ue.imsi, cause="radio-link-failure")

    def _on_reattach(self, te: float) -> None:
        # ENodeB._reattach after the attach delay.
        ue = self.ue
        if ue.attached or not self.radio.connected:
            return
        ue.attached = True
        self.mme.attach(ue.imsi)
        self._drain_dlq(te)

    # ------------------------------------------------------------ handover

    def _ho_schedule_next(self, te: float) -> None:
        # HandoverProcess._schedule_next (the jitter draw happens even
        # when the handover itself was skipped).
        config = self.handover.config
        jitter = self.handover._rng.uniform(
            1 - config.interval_jitter, 1 + config.interval_jitter
        )
        self._push(te + config.interval_s * jitter, _K_HO_BEGIN)

    def _on_ho_begin(self, te: float) -> None:
        # HandoverProcess._begin_handover.
        ho = self.handover
        ue = self.ue
        if not ue.attached or not self.radio.connected:
            self._ho_schedule_next(te)
            return
        ho.handovers += 1
        buffered = self.dlq
        self.dlq = []
        self.dlq_bytes = 0
        if ho.config.x2_forwarding:
            # Capacity is raised before re-queueing (preserved packets
            # must never tail-drop); restored at completion.
            self.ho_saved_cap = self.dlq_cap
            self.dlq_cap *= 4
            for size, created, pkt_seq in buffered:
                ho.forwarded.packets += 1
                ho.forwarded.bytes += size
                self._dlq_push(size, created, pkt_seq)
        else:
            for size, created, pkt_seq in buffered:
                ho.dropped.packets += 1
                ho.dropped.bytes += size
        self.ho_saved_layer = self.dlq_layer
        self.dlq_layer = "link-mobility"
        # radio.force_outage_start(): bookkeeping + callbacks, no draws,
        # no end event — the completion forces the end.
        radio = self.radio
        radio.connected = False
        radio.outage_count += 1
        radio._outage_started_at = te
        self._outage_start_callbacks(te)
        self._push(te + ho.config.interruption_s, _K_HO_COMPLETE)

    def _on_ho_complete(self, te: float) -> None:
        # HandoverProcess._complete_handover: end the forced break, then
        # restore drop layer and capacity, then schedule the next one.
        radio = self.radio
        if not radio.connected:  # force_outage_end (no-op when connected)
            radio.connected = True
            if radio._outage_started_at is not None:
                radio.total_outage_time += te - radio._outage_started_at
                radio._outage_started_at = None
            self._outage_end_callbacks(te)
        if self.ho_saved_layer is not None:
            self.dlq_layer = self.ho_saved_layer
            self.ho_saved_layer = None
        if self.ho_saved_cap is not None:
            self.dlq_cap = self.ho_saved_cap
            self.ho_saved_cap = None
        self._ho_schedule_next(te)

    # --------------------------------------------------------------- flush

    def _flush(self) -> None:
        spec = self.spec
        spec.workload._until = self.until
        _flush_path(self)

        # Rebuild the drop-tail queue contents as real packets (sizes and
        # created_at are what the drain path observes; the qci mirrors
        # where each direction's packets are stamped: SPGW stamps the
        # bearer QCI before the eNodeB buffers downlink, uplink buffers
        # hold pre-SPGW packets with the workload QCI).
        profile = spec.workload.profile
        dl_buffer = spec.ue.dl_buffer
        dl_buffer.capacity_bytes = self.dlq_cap
        dl_buffer.drop_layer = self.dlq_layer
        for size, created, pkt_seq in self.dlq:
            dl_buffer._queue.append(Packet(
                size=size,
                flow_id=spec.flow_id,
                direction=Direction.DOWNLINK,
                qci=spec.bearer.qci,
                transport=profile.transport,
                created_at=created,
                seq=pkt_seq,
            ))
        dl_buffer._bytes = self.dlq_bytes
        ul_buffer = spec.access._ul_buffer
        for size, created, pkt_seq in self.ulq:
            ul_buffer._queue.append(Packet(
                size=size,
                flow_id=spec.flow_id,
                direction=Direction.UPLINK,
                qci=profile.qci,
                transport=profile.transport,
                created_at=created,
                seq=pkt_seq,
            ))
        ul_buffer._bytes = self.ulq_bytes

        # Sender packet-sequence iterator: device.send / server.send
        # consumed one per chunk; park the real iterator at the mirror.
        sender = spec.device if spec.is_uplink else spec.server
        sender._seq = _count_from(self.send_seq)

        if self.handover is not None:
            self.handover._saved_drop_layer = self.ho_saved_layer
            self.handover._saved_capacity = self.ho_saved_cap

        # Token-bucket policer: a rate currently enforced means a bucket
        # is installed; rebuild it with the mirrored fill state.
        if self.p_rate is not None:
            policer = TokenBucket(self.spgw.loop, self.p_rate)
            policer._tokens = self.p_tokens
            policer._last = self.p_last
            self.spgw._policers[spec.flow_id] = policer

        spgw = self.spgw
        spgw.detached_drops.packets += self.detached_p
        spgw.detached_drops.bytes += self.drop_detached
        spgw.policed_drops.packets += self.policed_p
        spgw.policed_drops.bytes += self.drop_policed
        # Gateway metric counters, created lazily like the reference's
        # first-hit path so empty runs snapshot identically.
        metrics = spec.gateway_metrics
        if metrics is not None:
            if self.drop_detached:
                metrics.counter(
                    "cellular.gateway.drop_bytes", reason="detached"
                ).inc(self.drop_detached)
            if self.drop_policed:
                metrics.counter(
                    "cellular.gateway.drop_bytes", reason="policed"
                ).inc(self.drop_policed)
            if self.charged_ul:
                metrics.counter(
                    "cellular.gateway.charged_bytes", direction="UL"
                ).inc(self.charged_ul)
            if self.charged_dl:
                metrics.counter(
                    "cellular.gateway.charged_bytes", direction="DL"
                ).inc(self.charged_dl)

        # Replay radio.outage spans into the runner's recorder.  The
        # recorder's _close reads the (stale) clock and would reject
        # ends before "now", so closed ends are assigned directly; a
        # still-open outage stays open with the recorder's depth counter
        # elevated, exactly as live recording would leave it mid-outage.
        rec = spec.span_recorder
        if rec is not None:
            for open_t, close_t in self.spans:
                span = Span("radio.outage", open_t, rec._open, rec)
                rec._open += 1
                rec._spans.append(span)
                span.end = close_t
                rec._open -= 1
            if self.span_open_t is not None:
                span = Span("radio.outage", self.span_open_t, rec._open, rec)
                rec._open += 1
                rec._spans.append(span)

        # The absorbed construction-time events were replayed on the
        # wheel; cancel the loop originals so the caller's settle
        # run_until cannot double-fire them.
        for _, event in spec.absorbed:
            event.cancel()


def run_lane(spec: LaneSpec, horizon: float, settle: float = SETTLE_S) -> None:
    """Run one eligible UE's simulate() phase on the batched kernel.

    Replays the exact draw order, timestamps and same-time event order of
    the reference engine (see the module docstring), writing results back
    into the live component objects.  The caller advances the shared loop
    clock afterwards (``loop.run_until(horizon + settle)``), exactly as
    the reference path does.  ``spec.general`` selects the general-mode
    executor (outage / quota / RSS / handover / path-fault sessions) over
    the fold lane.
    """
    if spec.general:
        _GeneralRun(spec, horizon, settle).run()
    else:
        _LaneRun(spec, horizon, settle).run()
