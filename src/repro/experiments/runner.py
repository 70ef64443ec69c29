"""End-to-end experiment runner.

Builds the EPC for one scenario and one UE on it — the per-UE session
(device, server, radio, workload) that fleet shards use too — simulates
the configured charging cycles, extracts per-cycle
:class:`~repro.core.records.CycleUsage` (ground truth + every party's
measured records), and evaluates the charging schemes the paper compares:

* ``legacy``      — the gateway count, unnegotiated (honest legacy 4G/5G);
* ``tlc-optimal`` — Algorithm 1 with both parties playing minimax/maximin;
* ``tlc-random``  — Algorithm 1 with selfish-but-unaware random claims;
* ``tlc-honest``  — Algorithm 1 with truthful claims (ablation).

Per-cycle clock skews are drawn for the edge vendor and the operator
(relative to cycle length), reproducing the charging-record errors whose
magnitude Figure 18 reports and which bound TLC-optimal's residual gap.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from ..cellular import CellularNetwork, ENodeBConfig, NetworkConfig, make_test_imsi
from ..core import (
    CycleUsage,
    DataPlan,
    HonestStrategy,
    NegotiationEngine,
    OptimalStrategy,
    PartyKnowledge,
    PartyRole,
    RandomSelfishStrategy,
    SchemeOutcome,
)
from ..kernel import SETTLE_S, resolve_kernel, run_lane
from ..netsim import EventLoop, FaultTrace, StreamRegistry
from ..obs import MetricsRegistry, MetricsSnapshot
from .scenarios import ScenarioConfig

SCHEMES = ("legacy", "tlc-optimal", "tlc-random", "tlc-honest")

#: Fixed bucket edges for the per-scheme negotiation-round histogram
#: (Figure 16b's x-axis range); fixed so snapshots merge and compare.
ROUND_EDGES = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 64.0)


def evaluate_schemes(
    plan: DataPlan,
    usages: list[CycleUsage],
    neg_rng,
    accept_tolerance: float,
    max_rounds: int,
    metrics: MetricsRegistry | None = None,
) -> dict[str, list[SchemeOutcome]]:
    """Run every charging scheme on every cycle of one flow.

    Shared by the single-UE :class:`ScenarioRunner` and the fleet shard
    runner: ``neg_rng`` is the caller's dedicated negotiation stream, so
    per-flow results depend only on that stream's state, never on how
    many flows share the simulation.
    """
    outcomes: dict[str, list[SchemeOutcome]] = {name: [] for name in SCHEMES}
    for usage in usages:
        expected = plan.expected_charge(usage.true_sent, usage.true_received)
        outcomes["legacy"].append(
            SchemeOutcome("legacy", usage.gateway_count, expected)
        )
        for scheme in ("tlc-optimal", "tlc-random", "tlc-honest"):
            edge_know = PartyKnowledge(
                PartyRole.EDGE, usage.edge_sent_record, usage.edge_received_estimate
            )
            op_know = PartyKnowledge(
                PartyRole.OPERATOR,
                usage.operator_received_record,
                usage.operator_sent_estimate,
            )
            if scheme == "tlc-optimal":
                edge = OptimalStrategy(edge_know, accept_tolerance=accept_tolerance)
                operator = OptimalStrategy(op_know, accept_tolerance=accept_tolerance)
            elif scheme == "tlc-honest":
                edge = HonestStrategy(edge_know, accept_tolerance=accept_tolerance)
                operator = HonestStrategy(op_know, accept_tolerance=accept_tolerance)
            else:
                edge = RandomSelfishStrategy(edge_know, neg_rng)
                operator = RandomSelfishStrategy(op_know, neg_rng)
            engine = NegotiationEngine(plan, edge, operator, max_rounds=max_rounds)
            result = engine.run()
            outcomes[scheme].append(
                SchemeOutcome(scheme, result.volume, expected, result.rounds)
            )
    if metrics is not None:
        for scheme, rows in outcomes.items():
            rounds = metrics.histogram(
                "core.negotiation.rounds", ROUND_EDGES, scheme=scheme
            )
            residual = metrics.counter("core.gap.residual_bytes", scheme=scheme)
            charged = metrics.counter("core.gap.charged_bytes", scheme=scheme)
            for outcome in rows:
                rounds.observe(outcome.rounds)
                residual.inc(outcome.delta)
                charged.inc(outcome.charged)
    return outcomes


@dataclass
class ScenarioResult:
    """All cycles of one scenario, with per-scheme outcomes."""

    config: ScenarioConfig
    usages: list[CycleUsage]
    outcomes: dict[str, list[SchemeOutcome]]
    measured_bitrate_bps: float
    rss_history: list = field(default_factory=list)
    fault_trace: FaultTrace = field(default_factory=FaultTrace)
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)

    def mean_delta_mb_per_hr(self, scheme: str) -> float:
        """Average absolute gap, normalized to MB/hr (Table 2's Δ)."""
        rows = [
            usage.scaled_to_hour(outcome.delta)
            for usage, outcome in zip(self.usages, self.outcomes[scheme])
        ]
        return statistics.mean(rows) if rows else 0.0

    def mean_epsilon(self, scheme: str) -> float:
        """Average per-cycle relative gap ratio (Table 2's ε)."""
        rows = [o.epsilon for o in self.outcomes[scheme] if o.expected > 0]
        return statistics.mean(rows) if rows else 0.0

    def mean_rounds(self, scheme: str) -> float:
        """Average negotiation rounds (Figure 16b)."""
        rows = [o.rounds for o in self.outcomes[scheme]]
        return statistics.mean(rows) if rows else 0.0

    def gaps_mb_per_hr(self, scheme: str) -> list[float]:
        """Per-cycle gaps in MB/hr (Figure 12's CDF input)."""
        return [
            usage.scaled_to_hour(outcome.delta)
            for usage, outcome in zip(self.usages, self.outcomes[scheme])
        ]


class ScenarioRunner:
    """Owns one scenario's loop, network and metrics, and its one UE.

    The UE is a standalone :class:`~repro.experiments.fleet_runner._UeSession`
    (the stack fleet shards use) on the scenario's own network, drawing
    from the same seeded registry; its device, server, monitors and
    workload are reached through :attr:`session`.
    """

    def __init__(self, config: ScenarioConfig, kernel: str | None = None) -> None:
        from .fleet_runner import _UeSession  # local import: fleet_runner imports us

        self.config = config
        # Simulation kernel: "auto" picks the batched per-UE kernel when
        # the scenario is eligible (bit-identical results), "reference"
        # forces the per-packet engine, "batched" raises if ineligible.
        self.kernel = resolve_kernel(kernel)
        self.loop = EventLoop()
        self.metrics = MetricsRegistry(clock=self.loop.now)
        self.rng = StreamRegistry(config.seed)
        # Keep the RRC counter-check staleness proportional to the cycle:
        # the paper's 5 s checks on 1 h cycles quantize ~0.14 % of volume.
        check_interval = max(0.05, config.cycle_duration_s / 600.0)
        net_config = NetworkConfig(
            enodeb=ENodeBConfig(counter_check_interval_s=check_interval)
        )
        self.network = CellularNetwork(self.loop, self.rng, net_config, metrics=self.metrics)
        # The scenario's one UE: IMSI 1, flow "<workload>:ue1".
        self.session = _UeSession(
            self.loop,
            self.network,
            self.metrics,
            self.rng,
            config,
            ue_index=1,
            imsi=make_test_imsi(1),
            standalone=True,
        )

    # -------------------------------------------------------------- running

    def simulate(self) -> None:
        """Run the workload through every configured charging cycle."""
        horizon = self.config.n_cycles * self.config.cycle_duration_s
        with self.metrics.span("simulate"):
            lane = self.session.start(self.kernel, horizon)
            if lane is not None:
                run_lane(lane, horizon, settle=SETTLE_S)
            self.loop.run_until(horizon + SETTLE_S)  # settle in-flight traffic
            self.session.final_counter_check()

    def collect_metrics(self) -> None:
        """Harvest end-of-run totals from components into gauges.

        Live counters (links, gateway, faults, PoC) accumulate during the
        simulation; this pass snapshots the remaining passive counters —
        air interface, radio, modem, application monitors — so one
        snapshot accounts for the whole data path layer by layer.
        """
        from .fleet_runner import collect_air_metrics

        collect_air_metrics(self.metrics, self.network)
        self.session.collect_metrics()

    def run(self) -> ScenarioResult:
        """Simulate, extract and evaluate; the one-call entry point."""
        self.simulate()
        session = self.session
        usages = session.collect()
        outcomes = session.evaluate(usages)
        self.collect_metrics()
        horizon = self.config.n_cycles * self.config.cycle_duration_s
        return ScenarioResult(
            config=self.config,
            usages=usages,
            outcomes=outcomes,
            measured_bitrate_bps=session.workload.achieved_bitrate_bps(horizon),
            rss_history=session.access.radio.rss_history,
            fault_trace=(
                session.fault_injector.trace
                if session.fault_injector is not None
                else FaultTrace()
            ),
            metrics=self.metrics.snapshot(),
        )


def run_scenario(config: ScenarioConfig, kernel: str | None = None) -> ScenarioResult:
    """Convenience wrapper: build, run and return one scenario."""
    return ScenarioRunner(config, kernel=kernel).run()
