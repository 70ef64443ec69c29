"""Batched-kernel parity: bit-exact equivalence with the reference engine.

The batched kernel's whole contract is that nothing downstream can tell
it ran: same usage records, same negotiation outcomes, same metrics
snapshot, and — the strongest form — the same raw counter point series,
RNG-dependent internals and latency lists.  These tests pin that
contract over a config matrix that exercises every hot path the kernel
mirrors: all four shipped workloads, congestion (background demand
splits), SLA middlebox drops, sparse traffic that cycles the RRC
state machine through release/re-setup, and the chaos lanes the
general executor took over from the reference fallback — outage
windows (with RSS walks and RLF detach), PCRF quota throttling,
X2/non-X2 handover, and fault schedules (burst loss, reorder,
duplication, blackouts, counter resets, clock drift) replayed at the
lane's injection points.  For fault rows the bar includes
``FaultTrace`` equality and the end-state of every named RNG stream —
one extra or missing "faults" draw diverges the stream state even when
the visible outputs happen to agree.
"""

from dataclasses import replace

import pytest

from repro.experiments.fleet import FleetConfig, FleetShard, UeSpec, build_shards
from repro.experiments.fleet_runner import FleetShardRunner
from repro.experiments.runner import ScenarioRunner
from repro.experiments.scenarios import (
    ALL_APPS,
    GAMING_DL,
    VRIDGE_DL,
    WEBCAM_RTSP_UL,
    WEBCAM_UDP_UL,
)
from repro.kernel import KERNELS, resolve_kernel
from repro.netsim.faults import FAULT_PROFILES, FaultSchedule, FaultSpec

SHORT = dict(n_cycles=2, cycle_duration_s=10.0)

BURST_LOSS = FaultSchedule(specs=(FaultSpec("burst-loss", magnitude=0.1),))


def too_fast(config):
    """Push the workload past MAX_BATCHED_FPS — the one config-expressible
    shape the kernel still refuses, used wherever a test needs a
    guaranteed fallback (fault injection no longer is one)."""
    return config.with_(workload=replace(config.workload, fps=500.0))


MATRIX = [
    pytest.param(app.with_(**SHORT), id=app.name) for app in ALL_APPS
] + [
    pytest.param(
        VRIDGE_DL.with_(background_mbps=80.0, **SHORT), id="vridge-congested"
    ),
    pytest.param(
        WEBCAM_UDP_UL.with_(background_mbps=80.0, **SHORT), id="webcam-congested"
    ),
    pytest.param(GAMING_DL.with_(sla_budget_s=0.0001, **SHORT), id="gaming-sla-drops"),
    pytest.param(
        WEBCAM_RTSP_UL.with_(
            workload=replace(WEBCAM_RTSP_UL.workload, fps=0.05),
            n_cycles=2,
            cycle_duration_s=60.0,
        ),
        id="sparse-ul-rrc-cycling",
    ),
    # Chaos lanes: each was a fallback reason before the general executor.
    pytest.param(
        WEBCAM_RTSP_UL.with_(outage_eta=0.12, **SHORT), id="ul-outage-rss-rlf"
    ),
    pytest.param(VRIDGE_DL.with_(outage_eta=0.08, **SHORT), id="dl-outage-buffering"),
    pytest.param(WEBCAM_UDP_UL.with_(quota_bytes=60_000, **SHORT), id="ul-quota-throttle"),
    pytest.param(GAMING_DL.with_(quota_bytes=120_000, **SHORT), id="dl-quota-throttle"),
    pytest.param(GAMING_DL.with_(handover_interval_s=4.0, **SHORT), id="dl-handover"),
    pytest.param(
        VRIDGE_DL.with_(handover_interval_s=4.0, handover_x2=True, **SHORT),
        id="dl-handover-x2",
    ),
    pytest.param(
        WEBCAM_RTSP_UL.with_(
            outage_eta=0.1,
            quota_bytes=100_000,
            handover_interval_s=6.0,
            handover_x2=True,
            **SHORT,
        ),
        id="chaos-kitchen-sink",
    ),
    # Fault-schedule lanes: every canned profile, both directions where
    # the profile is direction-sensitive.  Durations are chosen so each
    # row actually crosses its profile's windows (bursty DL fade at
    # t=7, flaky-link UL blackout at t=11 / DL at t=31, chaos blackout
    # at t=50 and counter reset at t=95).
    pytest.param(
        WEBCAM_UDP_UL.with_(faults=FAULT_PROFILES["bursty"], **SHORT),
        id="ul-bursty-profile",
    ),
    pytest.param(
        VRIDGE_DL.with_(faults=FAULT_PROFILES["bursty"], **SHORT),
        id="dl-bursty-profile",
    ),
    pytest.param(
        WEBCAM_RTSP_UL.with_(
            faults=FAULT_PROFILES["flaky-link"], n_cycles=2, cycle_duration_s=20.0
        ),
        id="ul-flaky-link-profile",
    ),
    pytest.param(
        GAMING_DL.with_(
            faults=FAULT_PROFILES["flaky-link"], n_cycles=2, cycle_duration_s=20.0
        ),
        id="dl-flaky-link-profile",
    ),
    pytest.param(
        WEBCAM_UDP_UL.with_(faults=FAULT_PROFILES["clock-drift"], **SHORT),
        id="ul-clock-drift-profile",
    ),
    pytest.param(
        VRIDGE_DL.with_(faults=FAULT_PROFILES["clock-drift"], **SHORT),
        id="dl-clock-drift-profile",
    ),
    pytest.param(
        WEBCAM_UDP_UL.with_(
            faults=FAULT_PROFILES["chaos"], n_cycles=2, cycle_duration_s=60.0
        ),
        id="ul-chaos-profile",
    ),
    pytest.param(
        VRIDGE_DL.with_(
            faults=FAULT_PROFILES["chaos"], n_cycles=2, cycle_duration_s=60.0
        ),
        id="dl-chaos-profile",
    ),
    pytest.param(
        GAMING_DL.with_(
            faults=FAULT_PROFILES["chaos"],
            outage_eta=0.08,
            quota_bytes=200_000,
            handover_interval_s=25.0,
            handover_x2=True,
            n_cycles=2,
            cycle_duration_s=60.0,
        ),
        id="faults-kitchen-sink",
    ),
]


def counter_points(counter):
    return (list(counter._times), list(counter._cums), counter._total)


def flow(stats):
    return (stats.packets, stats.bytes)


def monitor_state(runner):
    monitor = runner.session.counter_monitor
    return (
        monitor.reports_received,
        monitor.resets_observed,
        monitor._last_dl,
        monitor._last_ul,
    )


def bearer_stamps(runner):
    bearer = runner.network.bearers.by_flow(runner.session.flow_id)
    return (bearer.first_usage, bearer.last_usage)


@pytest.mark.parametrize("config", MATRIX)
def test_scenario_bit_exact(config):
    assert_bit_exact(
        ScenarioRunner(config, kernel="reference"), ScenarioRunner(config, kernel="batched")
    )


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(WEBCAM_UDP_UL.with_(background_mbps=80.0, **SHORT), id="fold-ul"),
        pytest.param(VRIDGE_DL.with_(background_mbps=80.0, **SHORT), id="fold-dl"),
        pytest.param(
            VRIDGE_DL.with_(background_mbps=80.0, outage_eta=0.08, **SHORT), id="general-dl"
        ),
    ],
)
def test_two_background_classes_bit_exact(config):
    """With two background classes neither executor can use the
    one-class demand-split specialization; both call the live
    ``_demand_split`` over the lane's window."""
    runners = []
    for kernel in ("reference", "batched"):
        runner = ScenarioRunner(config, kernel=kernel)
        for air in (runner.network.enodeb.uplink_air, runner.network.enodeb.downlink_air):
            air.set_background(5, 50e6)  # a higher-priority class beside QCI 9
        runners.append(runner)
    assert_bit_exact(*runners)


def assert_bit_exact(ref, bat):
    ref_result = ref.run()
    bat_result = bat.run()
    assert bat.session.kernel_used == "batched"
    assert ref.session.kernel_used == "reference"

    # Everything the charging study reads.
    assert ref_result.usages == bat_result.usages
    assert ref_result.outcomes == bat_result.outcomes
    assert ref_result.measured_bitrate_bps == bat_result.measured_bitrate_bps
    assert ref_result.metrics == bat_result.metrics

    # Fault replay: same events, same order, same timestamps/details —
    # and the same number of "faults"-stream draws, pinned by comparing
    # the end-state of every named RNG stream.
    assert ref_result.fault_trace == bat_result.fault_trace
    assert set(ref.rng._streams) == set(bat.rng._streams)
    for name, stream in ref.rng._streams.items():
        assert stream.getstate() == bat.rng._streams[name].getstate(), name

    # Raw point series: any timestamp or cumulative drift shows up here
    # even when cycle-boundary queries happen to agree.
    for get in (
        lambda r: r.session.device.ul_monitor.counter,
        lambda r: r.session.device.dl_monitor.counter,
        lambda r: r.session.server.ul_monitor.counter,
        lambda r: r.session.server.dl_monitor.counter,
        lambda r: r.session.access.modem.ul_sent,
        lambda r: r.session.access.modem.dl_received,
        lambda r: r.session.counter_monitor._dl_reports,
        lambda r: r.session.counter_monitor._ul_reports,
        lambda r: r.network.bearers.by_flow(r.session.flow_id).uplink,
        lambda r: r.network.bearers.by_flow(r.session.flow_id).downlink,
    ):
        assert counter_points(get(ref)) == counter_points(get(bat))

    # State the lanes write in bulk at flush: the operator record's
    # ingestion bookkeeping and the bearer's usage stamps.
    assert monitor_state(ref) == monitor_state(bat)
    assert bearer_stamps(ref) == bearer_stamps(bat)

    # RNG-coupled internals: one extra or missing draw diverges these.
    assert ref.session.access.radio._current_rss == bat.session.access.radio._current_rss
    assert ref.session.access.radio.rss_history == bat.session.access.radio.rss_history
    assert ref.session.access.radio.connected == bat.session.access.radio.connected
    assert ref.session.server.stats.latencies == bat.session.server.stats.latencies

    ref_ue = ref.network.enodeb.ue(str(ref.session.device.imsi))
    bat_ue = bat.network.enodeb.ue(str(bat.session.device.imsi))
    assert ref_ue.rrc.state is bat_ue.rrc.state
    assert ref_ue.rrc.setups == bat_ue.rrc.setups
    assert ref_ue.rrc.releases == bat_ue.rrc.releases
    assert ref_ue.rrc.counter_checks_sent == bat_ue.rrc.counter_checks_sent

    for pick in ("offered", "dropped", "transmitted"):
        assert flow(getattr(ref.network.enodeb.uplink_air, pick)) == flow(
            getattr(bat.network.enodeb.uplink_air, pick)
        )
        assert flow(getattr(ref.network.enodeb.downlink_air, pick)) == flow(
            getattr(bat.network.enodeb.downlink_air, pick)
        )
    assert flow(ref.network.middlebox.passed) == flow(bat.network.middlebox.passed)
    assert flow(ref.network.middlebox.dropped) == flow(bat.network.middlebox.dropped)


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(WEBCAM_UDP_UL.with_(**SHORT), id="fold-ul"),
        pytest.param(VRIDGE_DL.with_(**SHORT), id="fold-dl"),
        pytest.param(VRIDGE_DL.with_(outage_eta=0.08, **SHORT), id="general-dl-outage"),
        pytest.param(
            WEBCAM_UDP_UL.with_(
                faults=FAULT_PROFILES["chaos"], n_cycles=2, cycle_duration_s=60.0
            ),
            id="general-ul-counter-reset",
        ),
    ],
)
def test_foreign_report_sink_gets_reference_responses(config):
    """A report sink other than the operator's monitor (here a plain
    ``list.append``) receives the same responses, in the same order, from
    a batched lane as from the reference engine."""

    def captured(kernel):
        runner = ScenarioRunner(config, kernel=kernel)
        reports = []
        runner.network.enodeb.ue(str(runner.session.device.imsi)).rrc.report_sink = reports.append
        runner.simulate()
        assert runner.session.kernel_used == kernel
        assert runner.session.counter_monitor.reports_received == 0
        return reports

    reference = captured("reference")
    assert reference
    assert captured("batched") == reference


def metrics_key(snapshot):
    """Snapshot as a dict, minus ``kernel.fallback{...}`` counters.

    Auto-mode runners record a fallback counter per reference-engine
    session; an explicit ``kernel="reference"`` run records none.  The
    counter is bookkeeping about *which engine ran*, not simulation
    output, so mixed-kernel comparisons ignore it.
    """
    data = snapshot.to_dict()
    data["counters"] = {
        k: v
        for k, v in data["counters"].items()
        if not k.startswith("kernel.fallback")
    }
    return data


def shard_result_key(result):
    return (
        result.shard_index,
        [
            (
                ue.ue_index,
                ue.archetype,
                ue.flow_id,
                ue.cycles,
                ue.offered_bitrate_bps,
                sorted(ue.mean_gap_mb_hr.items()),
                sorted(ue.mean_epsilon.items()),
                sorted(ue.mean_rounds.items()),
                sorted(ue.converged_cycles.items()),
            )
            for ue in result.ues
        ],
        metrics_key(result.metrics),
    )


class TestFleetParity:
    def test_shard_bit_exact(self):
        fleet = FleetConfig(ues=6, shard_size=6, seed=3, n_cycles=2, cycle_duration_s=10.0)
        (shard,) = build_shards(fleet)
        ref = FleetShardRunner(shard, kernel="reference").run()
        runner = FleetShardRunner(shard, kernel="batched")
        bat = runner.run()
        assert set(runner.kernel_used.values()) == {"batched"}
        assert shard_result_key(ref) == shard_result_key(bat)

    def test_chaos_shard_bit_exact(self):
        """Fleet-level chaos overrides stay batched and bit-exact."""
        fleet = FleetConfig(
            ues=4,
            shard_size=4,
            seed=3,
            n_cycles=2,
            cycle_duration_s=10.0,
            outage_eta=0.1,
            handover_interval_s=5.0,
            handover_x2=True,
            quota_bytes=150_000,
        )
        (shard,) = build_shards(fleet)
        ref = FleetShardRunner(shard, kernel="reference").run()
        runner = FleetShardRunner(shard, kernel="batched")
        bat = runner.run()
        assert set(runner.kernel_used.values()) == {"batched"}
        assert shard_result_key(ref) == shard_result_key(bat)

    def test_chaos_profile_shard_bit_exact_no_fault_fallbacks(self):
        """The standard mix under the canned ``chaos`` profile stays
        entirely on the batched kernel — the acceptance bar for this PR:
        ``kernel.fallback{reason="fault injection active"}`` is gone."""
        fleet = FleetConfig(
            ues=6,
            shard_size=6,
            seed=3,
            n_cycles=2,
            cycle_duration_s=60.0,
            fault_profile="chaos",
        )
        (shard,) = build_shards(fleet)
        ref = FleetShardRunner(shard, kernel="reference").run()
        runner = FleetShardRunner(shard, kernel="auto")
        auto = runner.run()
        assert set(runner.kernel_used.values()) == {"batched"}
        assert not any(
            k.startswith("kernel.fallback")
            for k in auto.metrics.to_dict()["counters"]
        )
        assert shard_result_key(ref) == shard_result_key(auto)

    def test_mixed_shard_auto_falls_back_per_session(self):
        """Ineligible UEs run on the reference engine in the same shard."""
        fleet = FleetConfig(ues=4, shard_size=4, seed=3, n_cycles=2, cycle_duration_s=10.0)
        (shard,) = build_shards(fleet)
        flaky = shard.ues[1]
        shard = FleetShard(
            index=shard.index,
            seed=shard.seed,
            ues=tuple(
                UeSpec(
                    index=ue.index,
                    archetype=ue.archetype,
                    seed=ue.seed,
                    config=too_fast(ue.config),
                )
                if ue is flaky
                else ue
                for ue in shard.ues
            ),
        )
        ref = FleetShardRunner(shard, kernel="reference").run()
        runner = FleetShardRunner(shard, kernel="auto")
        auto = runner.run()
        assert runner.kernel_used[flaky.index] == "reference"
        assert set(runner.kernel_used.values()) == {"batched", "reference"}
        assert "kernel bound" in runner.kernel_fallback_reasons[flaky.index]
        assert shard_result_key(ref) == shard_result_key(auto)

    def test_strict_batched_raises_on_ineligible_session(self):
        fleet = FleetConfig(ues=2, shard_size=2, seed=3, n_cycles=2, cycle_duration_s=10.0)
        (shard,) = build_shards(fleet)
        shard = FleetShard(
            index=shard.index,
            seed=shard.seed,
            ues=(
                shard.ues[0],
                UeSpec(
                    index=shard.ues[1].index,
                    archetype=shard.ues[1].archetype,
                    seed=shard.ues[1].seed,
                    config=too_fast(shard.ues[1].config),
                ),
            ),
        )
        with pytest.raises(RuntimeError, match="batched kernel unavailable"):
            FleetShardRunner(shard, kernel="batched").simulate()


class TestSelection:
    def test_resolve_order_and_validation(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_KERNEL", raising=False)
        assert resolve_kernel() == "auto"
        monkeypatch.setenv("REPRO_SIM_KERNEL", "reference")
        assert resolve_kernel() == "reference"
        assert resolve_kernel("batched") == "batched"  # explicit beats env
        with pytest.raises(ValueError, match="unknown simulation kernel"):
            resolve_kernel("turbo")
        assert set(KERNELS) == {"auto", "batched", "reference"}

    def test_auto_fallback_records_reason(self):
        config = too_fast(WEBCAM_UDP_UL.with_(**SHORT))
        runner = ScenarioRunner(config, kernel="auto")
        runner.simulate()
        assert runner.session.kernel_used == "reference"
        assert "kernel bound" in runner.session.kernel_fallback_reason
        # Satellite: the fallback reason is an observable counter too.
        counters = runner.metrics.snapshot().counters
        key = f"kernel.fallback{{reason={runner.session.kernel_fallback_reason}}}"
        assert counters[key] == 1

    @pytest.mark.parametrize(
        "chaos",
        [
            pytest.param(dict(outage_eta=0.05), id="outage"),
            pytest.param(dict(quota_bytes=50_000), id="quota"),
            pytest.param(dict(handover_interval_s=5.0), id="handover"),
            pytest.param(
                dict(handover_interval_s=5.0, handover_x2=True), id="handover-x2"
            ),
            pytest.param(dict(faults=BURST_LOSS), id="burst-loss"),
            pytest.param(
                dict(faults=FAULT_PROFILES["bursty"]), id="bursty-profile"
            ),
            pytest.param(
                dict(faults=FAULT_PROFILES["flaky-link"]), id="flaky-link-profile"
            ),
            pytest.param(
                dict(faults=FAULT_PROFILES["clock-drift"]), id="clock-drift-profile"
            ),
            pytest.param(dict(faults=FAULT_PROFILES["chaos"]), id="chaos-profile"),
        ],
    )
    def test_chaos_lanes_no_longer_fall_back(self, chaos):
        runner = ScenarioRunner(
            WEBCAM_UDP_UL.with_(**chaos, **SHORT), kernel="auto"
        )
        runner.simulate()
        assert runner.session.kernel_used == "batched"
        assert runner.session.kernel_fallback_reason is None
        assert not any(
            k.startswith("kernel.fallback")
            for k in runner.metrics.snapshot().counters
        )

    def test_strict_batched_accepts_faults(self):
        config = WEBCAM_UDP_UL.with_(faults=FAULT_PROFILES["chaos"], **SHORT)
        runner = ScenarioRunner(config, kernel="batched")
        runner.simulate()
        assert runner.session.kernel_used == "batched"

    def test_env_var_reaches_simulation(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_KERNEL", "batched")
        runner = ScenarioRunner(WEBCAM_UDP_UL.with_(**SHORT))
        runner.simulate()
        assert runner.session.kernel_used == "batched"
