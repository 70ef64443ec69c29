"""Edge-based VR offloading with end-of-cycle PoC construction.

The Verizon/Envrmnt scenario (§2.2): a VR headset offloads rendering to
the operator's edge; 1080p60 graphical frames stream downlink over GVSP
at ~9 Mbps.  Heavy volume makes selfish charging tempting and loss
expensive, so this example takes one cycle's *measured records* all the
way through the signed CDR → CDA → PoC exchange and third-party
verification — the complete TLC pipeline on simulated traffic.

Run:  python examples/vr_offloading.py
"""

import random

from repro.core import DataPlan, OptimalStrategy, PartyKnowledge, PartyRole
from repro.crypto import generate_keypair
from repro.edge.device import EL20, Z840
from repro.experiments.runner import ScenarioRunner
from repro.experiments.scenarios import VRIDGE_DL
from repro.poc import NegotiationDriver, PlanParams, PublicVerifier


def main() -> None:
    config = VRIDGE_DL.with_(n_cycles=1, cycle_duration_s=120.0, seed=42,
                             background_mbps=120.0)
    print("simulating one VR charging cycle (GVSP downlink, congested cell)...")
    runner = ScenarioRunner(config)
    runner.simulate()
    usage = runner.session.collect()[0]

    print(f"  server sent            : {usage.true_sent / 1e6:9.2f} MB")
    print(f"  headset received       : {usage.true_received / 1e6:9.2f} MB")
    print(f"  gateway counted        : {usage.gateway_count / 1e6:9.2f} MB  <- legacy bill")
    print(f"  edge's record          : {usage.edge_sent_record / 1e6:9.2f} MB")
    print(f"  operator's RRC record  : {usage.operator_received_record / 1e6:9.2f} MB")

    plan = DataPlan(c=config.c, cycle_duration_s=config.cycle_duration_s)
    expected = plan.expected_charge(usage.true_sent, usage.true_received)
    print(f"  fair charge x̂          : {expected / 1e6:9.2f} MB (c={plan.c})")

    # End-of-cycle negotiation with real RSA-1024 signatures.  The edge
    # endpoint is an EL20-class gateway, the operator runs in the core.
    rng = random.Random(42)
    edge_key = generate_keypair(1024, rng)
    operator_key = generate_keypair(1024, rng)
    driver = NegotiationDriver(
        plan, usage.cycle.t_start,
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
    )
    result = driver.run()
    legacy_gap = abs(usage.gateway_count - expected)
    tlc_gap = abs(result.volume - expected)
    print(f"\nnegotiation: {result.rounds} round(s), {result.elapsed_s * 1000:.1f} ms "
          f"({result.crypto_fraction:.0%} crypto), PoC {len(result.poc.encode())} B")
    print(f"  TLC charge             : {result.volume / 1e6:9.2f} MB")
    print(f"  charging gap           : legacy {legacy_gap / 1e6:.2f} MB "
          f"-> TLC {tlc_gap / 1e6:.2f} MB")

    report = PublicVerifier(plan).verify(
        result.poc,
        PlanParams(usage.cycle.t_start, usage.cycle.t_end, plan.c),
        edge_key.public, operator_key.public,
    )
    print(f"\npublic verification (e.g. FCC): ok={report.ok} — the PoC proves both "
          f"parties signed off on {report.volume / 1e6:.2f} MB")


if __name__ == "__main__":
    main()
