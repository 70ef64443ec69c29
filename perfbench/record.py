"""Regenerate ``seeds.json``: the fleet seeds each workload runs and their digests.

Usage (from the repository root; takes a few minutes)::

    python3 perfbench/record.py

A benchmark seed ``n`` selects entry ``n % 32`` of its workload.  The
fleet seeds are chosen so that run-to-run differences come from the
traffic a seed draws, not from how many heavy subscribers it happens to
get: for the 48-UE fleet workloads the Zipf draw must give exactly the
expected archetype counts (largest-remainder rounding of the Zipf shares),
and for the 1024-UE serve-warm fleet every count must lie within 2% of
the population of its expected value.  For each chosen seed the script runs
the workload's program input once and records the sha256 of the fleet
aggregate (and, for serve-warm, of the settlement view), which every
benchmark run then checks its output against.

Only rerun this when the program's results are meant to change; the
digests pin them.
"""

from __future__ import annotations

import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.experiments.fleet import FleetConfig, assign_ues, run_fleet, zipf_weights  # noqa: E402
from repro.experiments.parallel import ResultCache  # noqa: E402
from repro.service import SettlementLedger, replay_fleet  # noqa: E402

from workloads import (  # noqa: E402
    FLEET_UES,
    SERVE_UES,
    aggregate_digest,
    digest,
    fleet_config,
    nproc,
    replay_configs,
)

#: Entries per workload; seed ``n`` runs entry ``n % ENTRIES``.
ENTRIES = 32
DEFAULT_SEED = 1
HELDOUT_SEED = 29


def target_mix(config: FleetConfig) -> dict[str, int]:
    """Expected archetype counts, rounded by largest remainder."""
    shares = [config.ues * w for w in zipf_weights(len(config.mix), config.zipf_s)]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(len(shares)), key=lambda i: shares[i] - counts[i], reverse=True)
    for i in by_remainder[: config.ues - sum(counts)]:
        counts[i] += 1
    return dict(zip(config.mix, counts))


def matching_seeds(workload: str, wanted: int, tolerance: float) -> list[int]:
    """The first ``wanted`` fleet seeds whose archetype counts fit the target."""
    found = []
    candidate = 0
    while len(found) < wanted:
        candidate += 1
        config = fleet_config(workload, candidate)
        target = target_mix(config)
        counts = Counter(ue.archetype for ue in assign_ues(config))
        if all(abs(counts.get(name, 0) - n) <= tolerance for name, n in target.items()):
            found.append(candidate)
    return found


def fleet_entry(workload: str, fleet_seed: int) -> dict:
    config = fleet_config(workload, fleet_seed)
    result = run_fleet(config, workers=nproc(), cache=None)
    return {"fleet_seed": fleet_seed, "aggregate_sha256": aggregate_digest(result)}


def serve_entry(fleet_seed: int, workdir: Path) -> dict:
    config = fleet_config("serve-warm", fleet_seed)
    cache = ResultCache(workdir / f"cache-{fleet_seed}")
    expected = run_fleet(config, workers=nproc(), cache=cache)
    replay, service_config = replay_configs()
    result, stats, service = replay_fleet(
        config, replay=replay, service_config=service_config, disk_cache=cache,
        ledger=SettlementLedger(workdir / f"ledger-{fleet_seed}.jsonl"),
    )
    if result is None or aggregate_digest(result) != aggregate_digest(expected):
        raise SystemExit(f"serve-warm fleet seed {fleet_seed}: served aggregate differs")
    return {
        "fleet_seed": fleet_seed,
        "aggregate_sha256": aggregate_digest(expected),
        "settlement_sha256": digest(service.ledger.text()),
    }


def main() -> int:
    fleet_seeds = matching_seeds("fleet-quiet", ENTRIES, tolerance=0)
    serve_seeds = matching_seeds("serve-warm", ENTRIES, tolerance=0.02 * SERVE_UES)
    workloads = {}
    for name in ("fleet-quiet", "fleet-chaos"):
        entries = []
        for fleet_seed in fleet_seeds:
            entries.append(fleet_entry(name, fleet_seed))
            print(name, entries[-1], flush=True)
        workloads[name] = entries
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as workdir:
        entries = []
        for fleet_seed in serve_seeds:
            entries.append(serve_entry(fleet_seed, Path(workdir)))
            print("serve-warm", entries[-1], flush=True)
        workloads["serve-warm"] = entries

    table = {
        "about": "benchmark seed n runs entries[n % len(entries)]; see record.py",
        "fleet_ues": FLEET_UES,
        "serve_ues": SERVE_UES,
        "workloads": {
            name: {"default_seed": DEFAULT_SEED, "heldout_seed": HELDOUT_SEED, "entries": entries}
            for name, entries in workloads.items()
        },
    }
    (HERE / "seeds.json").write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
