"""Simulator performance: events/second and end-to-end packet rate.

Not a paper figure — housekeeping numbers a user sizing an experiment
campaign needs: how fast the DES core dispatches, how many packets per
wall-second the full cellular path sustains, and how much the batched
per-UE kernel buys over the reference event-per-packet engine.
"""

import time

from repro.cellular import CellularNetwork, RadioProfile, make_test_imsi
from repro.edge import EdgeDevice, EdgeServer
from repro.experiments.runner import ScenarioRunner
from repro.experiments.scenarios import VRIDGE_DL, WEBCAM_UDP_UL
from repro.netsim import EventLoop, StreamRegistry


def test_event_loop_dispatch_rate(benchmark):
    """Raw DES dispatch throughput (empty callbacks)."""

    def run():
        loop = EventLoop()
        for i in range(20_000):
            loop.schedule_at(i * 1e-6, _noop)
        return loop.run()

    dispatched = benchmark(run)
    assert dispatched == 20_000


def _noop():
    pass


def test_end_to_end_packet_rate(benchmark, archive):
    """Uplink packets through device → air → eNodeB → SPGW → server."""

    def run():
        loop = EventLoop()
        net = CellularNetwork(loop, StreamRegistry(1))
        imsi = make_test_imsi(1)
        device = EdgeDevice(loop, imsi, "perf")
        access = net.attach_device(imsi, RadioProfile(), deliver=device.deliver)
        device.bind(access)
        net.create_bearer(imsi, "perf")
        server = EdgeServer(loop, net, "perf")
        n = 5_000
        for i in range(n):
            loop.schedule_at(i * 0.001, device.send, 1000)
        loop.run()
        return server.stats.received

    received = benchmark(run)
    # The default radio's RSS walk can graze -95 dBm: a handful of air
    # losses over 5k packets is physical, not a harness bug.
    assert received >= 4_980
    packets_per_s = 5_000 / benchmark.stats["mean"]
    archive(
        "simulator_throughput",
        f"Simulator throughput on this host: {packets_per_s:,.0f} "
        "end-to-end packets/wall-second (full UL path)",
    )


def _timed_simulate(config, kernel):
    """One scenario run; returns (air packets offered, cpu seconds)."""
    runner = ScenarioRunner(config, kernel=kernel)
    t0 = time.process_time()
    runner.simulate()
    dt = time.process_time() - t0
    assert runner.session.kernel_used == kernel
    enb = runner.network.enodeb
    packets = enb.uplink_air.offered.packets + enb.downlink_air.offered.packets
    return packets, dt


def test_scenario_kernel_speedup(archive):
    """Batched kernel vs. reference engine on the full scenario path.

    CPU time (``time.process_time``), interleaved reference/batched
    iterations, min of ``ROUNDS`` — the only methodology that survives
    a noisy shared host; wall-clock on this class of machine jitters by
    2-4x and would make any threshold meaningless.  The speedup target
    (10x) is a release gate for the batched kernel: measured headroom on
    the reference host is ~11x uplink / ~13x downlink.
    """
    ROUNDS = 5
    rows = [f"{'scenario':>12} {'packets':>8} {'ref pkt/s':>10} {'batched pkt/s':>14} {'speedup':>8}"]
    ref_cpu = batched_cpu = 0.0
    for scenario in (WEBCAM_UDP_UL, VRIDGE_DL):
        config = scenario.with_(n_cycles=2, cycle_duration_s=60.0)
        t_ref = t_bat = float("inf")
        packets = 0
        for _ in range(ROUNDS):  # interleaved: ambient load hits both alike
            packets, dt = _timed_simulate(config, "reference")
            t_ref = min(t_ref, dt)
            p2, dt = _timed_simulate(config, "batched")
            t_bat = min(t_bat, dt)
            assert p2 == packets  # bit-exact parity implies identical traffic
        ref_cpu += t_ref
        batched_cpu += t_bat
        rows.append(
            f"{scenario.name:>12} {packets:>8} {packets / t_ref:>10,.0f} "
            f"{packets / t_bat:>14,.0f} {t_ref / t_bat:>7.1f}x"
        )

    pooled = ref_cpu / batched_cpu
    rows.append(f"pooled speedup (sum ref cpu / sum batched cpu): {pooled:.1f}x")
    archive("kernel_speedup", "\n".join(rows))
    assert pooled >= 10.0, f"batched kernel speedup regressed: {pooled:.2f}x < 10x"


def test_fleet_chaos_kernel_speedup(archive):
    """General-mode lanes vs. the reference engine at fleet scale.

    Outage sessions can't take the fold loops (path state changes
    mid-frame), so they ride the per-hop general executor — a smaller
    win per event, but one that *grows* with population because the
    reference pays O(log N) heap dispatch on a shared 1000-UE loop
    while lanes stay per-UE.  Gate: ≥5x pooled CPU on a 1000-UE fleet
    under a chaos-adjacent outage profile (measured ~6x on the
    reference host).  Same methodology as the scenario gate above:
    process_time, interleaved, min of ROUNDS.
    """
    from repro.experiments.fleet import FleetConfig, build_shards
    from repro.experiments.fleet_runner import FleetShardRunner

    ROUNDS = 2
    config = FleetConfig(
        ues=1000,
        shard_size=1000,
        seed=3,
        n_cycles=2,
        cycle_duration_s=10.0,
        outage_eta=0.1,
    )
    (shard,) = build_shards(config)
    t_ref = t_bat = float("inf")
    for _ in range(ROUNDS):
        for kernel in ("reference", "batched"):
            runner = FleetShardRunner(shard, kernel=kernel)
            t0 = time.process_time()
            runner.run()
            dt = time.process_time() - t0
            assert set(runner.kernel_used.values()) == {kernel}
            if kernel == "reference":
                t_ref = min(t_ref, dt)
            else:
                t_bat = min(t_bat, dt)

    speedup = t_ref / t_bat
    archive(
        "fleet_chaos_speedup",
        f"1000-UE chaos fleet (outage_eta=0.1): reference {t_ref:.1f}s cpu, "
        f"batched general-mode {t_bat:.1f}s cpu, speedup {speedup:.1f}x",
    )
    assert speedup >= 5.0, f"chaos fleet speedup regressed: {speedup:.2f}x < 5x"


def test_fleet_chaos_profile_kernel_speedup(archive):
    """The outage fleet above, plus the full canned ``chaos`` fault
    profile (burst loss, reordering, duplication, blackout windows,
    counter resets, clock drift) replayed inside the lanes.

    Fault decisions are pure per-packet Python on both engines, so the
    profile *narrows* the gap versus the outage-only gate — but the
    lane's segment-bisected decision windows keep it ≥5x pooled CPU
    (measured ~5.5x on the reference host; the reference engine pays a
    per-packet fnmatch walk over every spec on top of shared-heap
    dispatch).  One round: each engine pass is minutes of CPU here and
    ``process_time`` is already immune to wall-clock jitter.
    """
    from repro.experiments.fleet import FleetConfig, build_shards
    from repro.experiments.fleet_runner import FleetShardRunner

    config = FleetConfig(
        ues=1000,
        shard_size=1000,
        seed=3,
        n_cycles=2,
        cycle_duration_s=10.0,
        outage_eta=0.1,
        fault_profile="chaos",
    )
    (shard,) = build_shards(config)
    timings = {}
    for kernel in ("reference", "batched"):
        runner = FleetShardRunner(shard, kernel=kernel)
        t0 = time.process_time()
        runner.run()
        timings[kernel] = time.process_time() - t0
        # The acceptance bar: no session falls back — the old
        # "fault injection active" refusal is gone.
        assert set(runner.kernel_used.values()) == {kernel}

    speedup = timings["reference"] / timings["batched"]
    archive(
        "fleet_chaos_profile_speedup",
        f"1000-UE chaos fleet (outage_eta=0.1 + canned 'chaos' fault profile): "
        f"reference {timings['reference']:.1f}s cpu, batched general-mode "
        f"{timings['batched']:.1f}s cpu, speedup {speedup:.1f}x",
    )
    assert speedup >= 5.0, f"chaos-profile fleet speedup regressed: {speedup:.2f}x < 5x"
