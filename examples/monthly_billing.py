"""A full billing epoch: cycles → over-the-network PoCs → ledger → audit.

The most end-to-end scenario in the repository.  A WebCam vendor runs
several charging cycles on the simulated LTE network; at each cycle end
the TLC negotiation executes *over the same network* (CDR/CDA/PoC as
real QCI-5 signalling packets with ARQ), the receipt lands in a
:class:`~repro.poc.PocLedger`, and finally an auditor verifies the whole
history and reconciles the bill against ground truth.

Run:  python examples/monthly_billing.py
"""

import random

from repro.core import DataPlan, OptimalStrategy, PartyKnowledge, PartyRole
from repro.crypto import generate_keypair
from repro.edge.device import EL20, Z840
from repro.experiments.runner import ScenarioRunner
from repro.experiments.scenarios import WEBCAM_UDP_UL
from repro.poc import NetworkNegotiation, PocLedger

N_CYCLES = 5


def main() -> None:
    config = WEBCAM_UDP_UL.with_(n_cycles=N_CYCLES, seed=13, background_mbps=120.0)
    plan = DataPlan(c=config.c, cycle_duration_s=config.cycle_duration_s)
    rng = random.Random(13)
    edge_key = generate_keypair(1024, rng)
    operator_key = generate_keypair(1024, rng)
    ledger = PocLedger(plan)

    print(f"billing epoch: {N_CYCLES} cycles of congested UDP WebCam uplink\n")
    runner = ScenarioRunner(config)
    horizon = N_CYCLES * config.cycle_duration_s
    runner.session.workload.start(until=horizon)

    expected_total = 0.0
    for k in range(N_CYCLES):
        t_end = (k + 1) * config.cycle_duration_s
        runner.loop.run_until(t_end)
        runner.network.enodeb.ue(str(runner.session.device.imsi)).rrc.perform_counter_check()
        usage = runner.session._cycle_usage(k * config.cycle_duration_s, t_end, 0.0, 0.0)
        expected = plan.expected_charge(usage.true_sent, usage.true_received)
        expected_total += expected

        negotiation = NetworkNegotiation(
            runner.network, str(runner.session.device.imsi), plan, usage.cycle.t_start,
            OptimalStrategy(
                PartyKnowledge(PartyRole.EDGE, usage.edge_sent_record,
                               usage.edge_received_estimate),
                accept_tolerance=0.05,
            ),
            OptimalStrategy(
                PartyKnowledge(PartyRole.OPERATOR, usage.operator_received_record,
                               usage.operator_sent_estimate),
                accept_tolerance=0.05,
            ),
            edge_key, operator_key, rng,
            edge_profile=EL20, operator_profile=Z840,
            flow_suffix=f":cycle{k}",
        )
        negotiation.start()
        runner.loop.run_until(t_end + 5.0)
        result = negotiation.result()
        ledger.append(result.poc)
        print(f"  cycle {k}: charged {result.volume / 1e6:7.2f} MB "
              f"(x̂ {expected / 1e6:7.2f} MB) — negotiated over the air in "
              f"{result.elapsed_s * 1000:5.1f} ms, {result.messages_sent} msgs"
              f"{', ' + str(result.retransmissions) + ' retx' if result.retransmissions else ''}")

    print(f"\nledger: {len(ledger)} receipts, total {ledger.total_volume() / 1e6:.2f} MB "
          f"(ground truth {expected_total / 1e6:.2f} MB)")

    audit = ledger.audit(edge_key.public, operator_key.public)
    print(f"third-party audit: ok={audit.ok}, {audit.entries_checked} receipts verified, "
          f"{audit.total_volume / 1e6:.2f} MB confirmed")
    gap = abs(ledger.total_volume() - expected_total) / expected_total
    print(f"epoch charging gap vs ground truth: {gap:.2%}")


if __name__ == "__main__":
    main()
