"""Per-UE sessions and multi-UE shard simulation.

:class:`_UeSession` is the one per-UE stack: device and server endpoints
with their monitors, the operator's RRC COUNTER CHECK monitor, attach,
bearer, quota, handover, SLA budget, workload and fault pipes, plus the
kernel-or-reference engine choice and the per-cycle record extraction
and scheme evaluation.  Both runners build their UEs with it: the fleet
shard runner below puts many sessions on one loop, and the single-UE
:class:`~repro.experiments.runner.ScenarioRunner` builds one standalone
session on its own loop and network.

A fleet shard is a batch of UEs simulated together on a single
:class:`~repro.netsim.events.EventLoop` and one
:class:`~repro.cellular.CellularNetwork` — one SPGW/OFCS/bearer table
serving every bearer, which is exactly the many-bearers-per-gateway shape
a production deployment has.  Each UE gets its *own cell* (the paper's
per-subscriber charging physics is per-radio-link; cross-UE air
contention is a different experiment, available via the fleet config's
``background_mbps``) and its own session.

Determinism contract:

* everything *per-UE* (workload frames, cycle clock skews, negotiation
  claims, fault schedule draws) is drawn from a registry seeded by the
  UE's fleet-wide seed, so a UE's traffic does not depend on which shard
  it landed in or which UEs share the shard;
* everything *shared* (radio processes keyed by IMSI, per-cell air
  noise) comes from the shard registry, so a shard's result is a pure
  function of its :class:`~repro.experiments.fleet.FleetShard` spec.

Shard results are compact per-UE summaries plus one mergeable
:class:`~repro.obs.MetricsSnapshot` — O(shard), never O(usages) — which
is what lets the fleet engine stream-aggregate arbitrarily large
populations.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from ..cellular import (
    CellularNetwork,
    ENodeBConfig,
    HandoverConfig,
    HandoverProcess,
    Imsi,
    NetworkConfig,
    QuotaPolicy,
    RadioProfile,
    UeContext,
    make_test_imsi,
)
from ..core import CycleUsage, DataPlan, SchemeOutcome
from ..edge import CounterCheckMonitor, EdgeDevice, EdgeServer
from ..kernel import SETTLE_S, LaneSpec, build_session_lane, resolve_kernel, run_lane
from ..netsim import Direction, EventLoop, FaultInjector, StreamRegistry
from ..obs import MetricsRegistry, MetricsSnapshot
from ..workloads import FrameWorkload
from .runner import SCHEMES, evaluate_schemes
from .scenarios import ScenarioConfig

#: Fixed bucket edges for the fleet's per-UE mean-gap histogram (MB/hr).
#: Fixed so shard snapshots merge bit-deterministically regardless of the
#: population's gap spread.
GAP_EDGES_MB_HR = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0)

#: TLC schemes negotiate; legacy does not, so convergence is undefined for it.
NEGOTIATED_SCHEMES = tuple(s for s in SCHEMES if s != "legacy")


@dataclass
class UeSummary:
    """One UE's charging outcome, reduced to O(1) aggregation inputs."""

    ue_index: int
    archetype: str
    flow_id: str
    cycles: int
    offered_bitrate_bps: float
    mean_gap_mb_hr: dict[str, float] = field(default_factory=dict)
    mean_epsilon: dict[str, float] = field(default_factory=dict)
    mean_rounds: dict[str, float] = field(default_factory=dict)
    converged_cycles: dict[str, int] = field(default_factory=dict)


@dataclass
class FleetShardResult:
    """Everything a shard ships back to the aggregator."""

    shard_index: int
    ues: list[UeSummary]
    metrics: MetricsSnapshot


def collect_air_metrics(metrics: MetricsRegistry, network: CellularNetwork) -> None:
    """Add every cell's air-interface byte totals to direction-labelled gauges."""
    for enodeb in network.enodebs:
        for direction, air in (("dl", enodeb.downlink_air), ("ul", enodeb.uplink_air)):
            metrics.gauge("cellular.air.offered_bytes", direction=direction).add(
                air.offered.bytes
            )
            metrics.gauge("cellular.air.dropped_bytes", direction=direction).add(
                air.dropped.bytes
            )
            metrics.gauge("cellular.air.transmitted_bytes", direction=direction).add(
                air.transmitted.bytes
            )


class _UeSession:
    """One subscriber's full stack: the only place a UE is built and read.

    Both runners build their UEs here.  A fleet shard puts many sessions
    on one loop, network and registry, each with a per-UE stream registry
    and a cell of its own.  A single-UE scenario builds one
    ``standalone`` session that shares the scenario's registry with the
    network; it keeps the default ``operator-rrc`` monitor name, records
    radio outages as ``radio.outage`` spans, and its kernel lane refuses
    a loop that holds anything beyond the session's own events.
    """

    def __init__(
        self,
        loop: EventLoop,
        network: CellularNetwork,
        metrics: MetricsRegistry,
        rng: StreamRegistry,
        config: ScenarioConfig,
        *,
        ue_index: int,
        imsi: Imsi,
        archetype: str = "",
        cell: int = 0,
        standalone: bool = False,
    ) -> None:
        self.ue_index = ue_index
        self.archetype = archetype
        self.config = config
        self.cell = cell
        self.loop = loop
        self.network = network
        self.metrics = metrics
        self.rng = rng
        self.standalone = standalone
        self.kernel_used: str | None = None
        self.kernel_fallback_reason: str | None = None
        self.plan = DataPlan(c=config.c, cycle_duration_s=config.cycle_duration_s)
        self.imsi = imsi
        self.flow_id = f"{config.workload.name}:ue{ue_index}"
        self.counter_monitor = (
            CounterCheckMonitor(loop)
            if standalone
            else CounterCheckMonitor(loop, name=f"operator-rrc:ue{ue_index}")
        )
        self.device = EdgeDevice(loop, imsi, self.flow_id)
        access = network.attach_device(
            imsi,
            radio_profile=self._radio_profile(),
            deliver=self.device.deliver,
            counter_report_sink=self.counter_monitor.on_report,
            record_rss=config.outage_eta is not None,
            cell=cell,
        )
        self.device.bind(access)
        self.access = access
        # Radio outages become spans on the simulated clock (event-driven
        # open/close; a snapshot taken mid-outage closes them virtually).
        self._outage_span = None
        if standalone:
            access.radio.on_outage_start.append(self._outage_started)
            access.radio.on_outage_end.append(self._outage_ended)
        network.create_bearer(imsi, self.flow_id, qci=config.workload.qci)
        if config.quota_bytes is not None:
            network.pcrf.set_quota(
                self.flow_id,
                QuotaPolicy(config.quota_bytes, throttle_bps=config.quota_throttle_bps),
            )
        self.server = EdgeServer(loop, network, self.flow_id)
        if config.background_mbps > 0:
            rate = config.background_mbps * 1e6
            network.set_background_load(rate, rate, cell=cell)
        # Link-layer mobility rides the network's registry (like the radio
        # processes): in a shard that is the shared registry, keyed by
        # IMSI, per the determinism contract above.
        self.handover: HandoverProcess | None = None
        if config.handover_interval_s is not None:
            self.handover = HandoverProcess(
                loop,
                network.rng,
                self._ue(),
                HandoverConfig(
                    interval_s=config.handover_interval_s,
                    interruption_s=config.handover_interruption_s,
                    x2_forwarding=config.handover_x2,
                ),
            )
            self.handover.start()
        if config.sla_budget_s is not None:
            network.set_sla_budget(self.flow_id, config.sla_budget_s)
        sender = self.device if config.direction is Direction.UPLINK else self.server
        self.workload = FrameWorkload(loop, self.rng, config.workload, sender)
        # Chaos layer: wrap the device's uplink send path and downlink
        # delivery path through the injector's uniform hook, and arm any
        # modem counter resets.  Clock faults apply at record extraction.
        self.fault_injector: FaultInjector | None = None
        if config.faults is not None and not config.faults.is_empty:
            injector = FaultInjector(loop, self.rng, config.faults, metrics=metrics)
            access.send_uplink = injector.pipe("uplink", access.send_uplink)
            ue = self._ue()
            ue.deliver = injector.pipe("downlink", ue.deliver)
            injector.attach_modem(access.modem, point="modem")
            self.fault_injector = injector

    def _ue(self) -> UeContext:
        return self.network.serving_enodeb(str(self.imsi)).ue(str(self.imsi))

    def _outage_started(self) -> None:
        if self._outage_span is None:
            self._outage_span = self.metrics.span_open("radio.outage")

    def _outage_ended(self) -> None:
        if self._outage_span is not None:
            self._outage_span.close()
            self._outage_span = None

    def _radio_profile(self) -> RadioProfile:
        config = self.config
        if config.outage_eta is not None:
            return RadioProfile.for_disconnectivity(
                config.outage_eta,
                mean_outage_s=config.mean_outage_s,
                base_loss=config.base_loss,
            )
        return RadioProfile(base_loss=config.base_loss)

    # -------------------------------------------------------------- running

    def start(self, kernel: str, horizon: float) -> LaneSpec | None:
        """Put this UE on an engine: return its kernel lane for the caller
        to run, or start its workload on the reference engine.

        An auto-mode fallback records its reason on the session and in
        the registry, so fleet coverage regressions surface in the shard
        snapshot; an explicit ``kernel="reference"`` records nothing, and
        ``kernel="batched"`` raises instead of falling back.
        """
        lane = reason = None
        if kernel != "reference":
            lane, reason = build_session_lane(self)
            if lane is None and kernel == "batched":
                raise RuntimeError(
                    f"batched kernel unavailable for UE {self.ue_index}: {reason}"
                )
        if lane is not None:
            self.kernel_used = "batched"
            return lane
        self.kernel_used = "reference"
        if reason is not None:
            self.kernel_fallback_reason = reason
            self.metrics.counter("kernel.fallback", reason=reason).inc()
        self.workload.start(until=horizon)
        return None

    def final_counter_check(self) -> None:
        """Run a last RRC COUNTER CHECK so the last cycle's record is fresh."""
        self._ue().rrc.perform_counter_check()

    def collect_metrics(self) -> None:
        """Add this UE's passive end-of-run counters to the registry's gauges.

        Gauges are summed, never labelled per UE, so a shard's snapshot
        stays O(metric names) however many sessions it holds.
        """
        m = self.metrics
        radio = self.access.radio
        m.gauge("cellular.radio.outages").add(radio.outage_count)
        m.gauge("cellular.radio.outage_time_s").add(radio.total_outage_time)
        modem = self.access.modem
        m.gauge("edge.modem.uplink_bytes").add(modem.ul_sent.total)
        m.gauge("edge.modem.downlink_bytes").add(modem.dl_received.total)
        m.gauge("edge.modem.counter_checks").add(modem.counter_checks_served)
        monitors = (
            ("device-ul", self.device.ul_monitor),
            ("device-dl", self.device.dl_monitor),
            ("server-ul", self.server.ul_monitor),
            ("server-dl", self.server.dl_monitor),
        )
        for point, monitor in monitors:
            m.gauge("edge.monitor.observed_bytes", point=point).add(monitor.total)

    # ----------------------------------------------------------- extraction

    def _cycle_usage(self, t1: float, t2: float, edge_skew: float, op_skew: float) -> CycleUsage:
        config = self.config
        direction = config.direction
        for monitor in (
            self.device.ul_monitor,
            self.device.dl_monitor,
            self.server.ul_monitor,
            self.server.dl_monitor,
        ):
            monitor.set_skew(edge_skew)
        self.counter_monitor.set_skew(op_skew)

        gateway = self.network.gateway_usage(self.flow_id, t1, t2, direction)
        if direction is Direction.UPLINK:
            true_sent = self.device.ul_monitor.true_usage(t1, t2)
            true_received = min(gateway, true_sent)
            edge_sent = self.device.ul_monitor.reported_usage(t1, t2)
            edge_received_est = self.server.ul_monitor.reported_usage(t1, t2)
            operator_received = gateway  # the gateway *is* the receiver record
            operator_sent_est = self.counter_monitor.reported_uplink_usage(t1, t2)
        else:
            true_sent = self.server.dl_monitor.true_usage(t1, t2)
            true_received = min(self.device.dl_monitor.true_usage(t1, t2), true_sent)
            edge_sent = self.server.dl_monitor.reported_usage(t1, t2)
            edge_received_est = self.device.dl_monitor.reported_usage(t1, t2)
            operator_received = self.counter_monitor.reported_usage(t1, t2)
            operator_sent_est = gateway

        cycles = self.plan.cycles(config.n_cycles)
        index = int(round(t1 / config.cycle_duration_s))
        return CycleUsage(
            cycle=cycles[index],
            direction=direction,
            flow_id=self.flow_id,
            true_sent=true_sent,
            true_received=true_received,
            gateway_count=gateway,
            edge_sent_record=edge_sent,
            edge_received_estimate=edge_received_est,
            operator_received_record=operator_received,
            operator_sent_estimate=operator_sent_est,
        )

    def collect(self) -> list[CycleUsage]:
        """Per-cycle usage records with per-UE, per-cycle clock skews."""
        config = self.config
        skew_rng = self.rng.stream("cycle-skews")
        usages = []
        for k in range(config.n_cycles):
            t1 = k * config.cycle_duration_s
            t2 = (k + 1) * config.cycle_duration_s
            edge_skew = skew_rng.gauss(0.0, config.edge_skew_rel_std * config.cycle_duration_s)
            op_skew = skew_rng.gauss(0.0, config.operator_skew_rel_std * config.cycle_duration_s)
            if self.fault_injector is not None:
                # Injected clock faults stack on top of the baseline NTP
                # error: offsets while active, drift accumulated to the
                # (true-time) cycle boundary.
                edge_skew += self.fault_injector.extra_skew("edge-clock", t2)
                op_skew += self.fault_injector.extra_skew("operator-clock", t2)
            usages.append(self._cycle_usage(t1, t2, edge_skew, op_skew))
        return usages

    def evaluate(self, usages: list[CycleUsage]) -> dict[str, list[SchemeOutcome]]:
        """Charging schemes on this UE's cycles (the session's negotiation stream)."""
        return evaluate_schemes(
            self.plan,
            usages,
            self.rng.stream("negotiation"),
            self.config.accept_tolerance,
            self.config.max_rounds,
            self.metrics,
        )

    def summarize(
        self, usages: list[CycleUsage], outcomes: dict[str, list[SchemeOutcome]]
    ) -> UeSummary:
        """Reduce one UE's run to the aggregation-ready summary row."""
        horizon = self.config.n_cycles * self.config.cycle_duration_s
        summary = UeSummary(
            ue_index=self.ue_index,
            archetype=self.archetype,
            flow_id=self.flow_id,
            cycles=len(usages),
            offered_bitrate_bps=self.workload.achieved_bitrate_bps(horizon),
        )
        for scheme, rows in outcomes.items():
            gaps = [
                usage.scaled_to_hour(outcome.delta)
                for usage, outcome in zip(usages, rows)
            ]
            summary.mean_gap_mb_hr[scheme] = statistics.mean(gaps) if gaps else 0.0
            eps = [o.epsilon for o in rows if o.expected > 0]
            summary.mean_epsilon[scheme] = statistics.mean(eps) if eps else 0.0
            summary.mean_rounds[scheme] = (
                statistics.mean(o.rounds for o in rows) if rows else 0.0
            )
            if scheme in NEGOTIATED_SCHEMES:
                summary.converged_cycles[scheme] = sum(
                    1 for o in rows if o.rounds < self.config.max_rounds
                )
        return summary


class FleetShardRunner:
    """Owns one shard's simulation: N UEs, one network, one metrics registry."""

    def __init__(self, shard, kernel: str | None = None) -> None:
        from .fleet import FleetShard  # local import: fleet imports us

        assert isinstance(shard, FleetShard)
        if not shard.ues:
            raise ValueError(f"shard {shard.index} has no UEs")
        self.shard = shard
        # Simulation kernel (see repro.kernel): resolved once per shard;
        # "auto" batches every eligible session and runs the rest on the
        # reference engine within the same shard.
        self.kernel = resolve_kernel(kernel)
        self.loop = EventLoop()
        self.metrics = MetricsRegistry(clock=self.loop.now)
        # Shard-level randomness (radio processes keyed by IMSI, per-cell
        # air noise) comes from the shard seed.
        self.rng = StreamRegistry(shard.seed)
        durations = {ue.config.cycle_duration_s for ue in shard.ues}
        cycles = {ue.config.n_cycles for ue in shard.ues}
        if len(durations) != 1 or len(cycles) != 1:
            raise ValueError("all UEs of a shard must share the charging cycle grid")
        self.cycle_duration_s = durations.pop()
        self.n_cycles = cycles.pop()
        check_interval = max(0.05, self.cycle_duration_s / 600.0)
        self.network = CellularNetwork(
            self.loop,
            self.rng,
            NetworkConfig(
                enodeb=ENodeBConfig(counter_check_interval_s=check_interval),
                n_cells=len(shard.ues),
                retain_cdrs=False,
            ),
            metrics=self.metrics,
        )
        self.sessions = [
            _UeSession(
                self.loop,
                self.network,
                self.metrics,
                # Per-UE randomness: a registry seeded only by the UE's
                # fleet-wide seed, so its draws are shard-composition
                # independent.
                StreamRegistry(ue.seed),
                ue.config,
                ue_index=ue.index,
                imsi=make_test_imsi(ue.index + 1),
                archetype=ue.archetype,
                cell=cell,
            )
            for cell, ue in enumerate(shard.ues)
        ]

    @property
    def kernel_used(self) -> dict[int, str]:
        """The engine each UE ran on, by UE index."""
        return {s.ue_index: s.kernel_used for s in self.sessions}

    @property
    def kernel_fallback_reasons(self) -> dict[int, str]:
        """Why each auto-mode fallback UE left the kernel, by UE index."""
        return {
            s.ue_index: s.kernel_fallback_reason
            for s in self.sessions
            if s.kernel_fallback_reason is not None
        }

    # -------------------------------------------------------------- running

    def simulate(self) -> None:
        """Run every UE's workload through the shared charging horizon."""
        horizon = self.n_cycles * self.cycle_duration_s
        with self.metrics.span("simulate"):
            lanes = [session.start(self.kernel, horizon) for session in self.sessions]
            # Lanes never touch the shared loop; any order works.  The
            # reference sessions' events then settle on the real loop.
            for lane in lanes:
                if lane is not None:
                    run_lane(lane, horizon, settle=SETTLE_S)
            self.loop.run_until(horizon + SETTLE_S)  # settle in-flight traffic
            for session in self.sessions:
                session.final_counter_check()

    def collect_metrics(self) -> None:
        """Shard-level totals: passive counters summed across cells and UEs.

        Sums keep metric cardinality constant (no per-UE labels), so the
        merged fleet snapshot stays O(metric names), not O(population).
        """
        collect_air_metrics(self.metrics, self.network)
        for session in self.sessions:
            session.collect_metrics()
        self.metrics.gauge("cellular.ofcs.bearers").set(len(self.network.bearers))
        self.metrics.gauge("fleet.shard.ues").set(len(self.sessions))

    def run(self) -> FleetShardResult:
        """Simulate, extract, evaluate and summarize every UE of the shard."""
        self.simulate()
        summaries = []
        for session in self.sessions:
            usages = session.collect()
            outcomes = session.evaluate(usages)
            summary = session.summarize(usages, outcomes)
            self._record_fleet_metrics(summary)
            summaries.append(summary)
        self.collect_metrics()
        return FleetShardResult(
            shard_index=self.shard.index,
            ues=summaries,
            metrics=self.metrics.snapshot(),
        )

    def _record_fleet_metrics(self, summary: UeSummary) -> None:
        m = self.metrics
        m.counter("fleet.ue.count", archetype=summary.archetype).inc()
        for scheme, gap in summary.mean_gap_mb_hr.items():
            m.histogram(
                "fleet.gap.mean_mb_per_hr", GAP_EDGES_MB_HR, scheme=scheme
            ).observe(gap)
        for scheme in NEGOTIATED_SCHEMES:
            m.counter("fleet.negotiation.cycles", scheme=scheme).inc(summary.cycles)
            m.counter("fleet.negotiation.converged_cycles", scheme=scheme).inc(
                summary.converged_cycles.get(scheme, 0)
            )


def simulate_shard(shard) -> FleetShardResult:
    """Convenience wrapper: build, run and return one shard."""
    return FleetShardRunner(shard).run()
