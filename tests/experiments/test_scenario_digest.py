"""Scenario bit-identity pins: the sha256 of one run's full cache codec.

The goldens compare headline figures within a band; these pins cover the
whole single-UE result — usage records, scheme outcomes, RSS history,
fault trace and the metrics snapshot — byte for byte, over the scenario
features the per-UE stack wires up: both directions, outages with RSS
recording, a crossed PCRF quota, X2 handover, the ``chaos`` fault profile,
an SLA budget under background load, and an auto-mode kernel fallback.
Every row is pinned under ``kernel="auto"`` and ``kernel="reference"``.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.experiments.parallel import result_to_dict
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import GAMING_DL, VRIDGE_DL, WEBCAM_RTSP_UL, WEBCAM_UDP_UL
from repro.netsim.faults import FAULT_PROFILES

SHORT = dict(n_cycles=2, cycle_duration_s=10.0)

#: (id, config, {kernel: sha256}).  The fallback row's workload is past the
#: kernel's frame-rate bound, so only auto mode records a kernel.fallback.
PINS = [
    (
        "ul",
        WEBCAM_UDP_UL.with_(**SHORT),
        {"auto": "0d7cf66c99cbc2cb27780be9aa7f102e854505ae07e66b7231ccc953a696c11a"},
    ),
    (
        "dl",
        VRIDGE_DL.with_(**SHORT),
        {"auto": "68d53c35dfa3c6d9a719d23f54aa3d8cf1f47bed00073b723174f53ae63977b9"},
    ),
    (
        "outage-rss",
        GAMING_DL.with_(outage_eta=0.2, seed=3, **SHORT),
        {"auto": "513da0b7aee2b512d97d276a16f6bbb065dcc5c199408288fffc5df8cf5ed0d8"},
    ),
    (
        "quota",
        WEBCAM_RTSP_UL.with_(quota_bytes=60_000, **SHORT),
        {"auto": "b803e1dce7511e7c6ea25a6cdf4b169aab75a3a619120b3590917503f2d9b9ec"},
    ),
    (
        "x2-handover",
        VRIDGE_DL.with_(handover_interval_s=4.0, handover_x2=True, **SHORT),
        {"auto": "fca6749a855fac8b0d0a23c956a1be2ba5a5887a702816f661f9eb8467912e4f"},
    ),
    (
        "chaos",
        GAMING_DL.with_(faults=FAULT_PROFILES["chaos"], n_cycles=2, cycle_duration_s=60.0),
        {"auto": "1d2aa2cab7e80951816088a06c179bb7158b746bfacbaefab6055cc0f26d9c60"},
    ),
    (
        "sla-background",
        GAMING_DL.with_(sla_budget_s=0.0005, background_mbps=80.0, **SHORT),
        {"auto": "14a92f8a69d5cb3d9b36dd526014b2b1225c779464950b929db33f8afcc2c90b"},
    ),
    (
        "fallback",
        WEBCAM_UDP_UL.with_(workload=replace(WEBCAM_UDP_UL.workload, fps=500.0), **SHORT),
        {
            "auto": "13fbbf0d38c2250d035c5f32f2a7cfef6dd714f4427f711ad3c2903c1c47d871",
            "reference": "8b5997dd9e8f2b00f6cbaab1455bc4c8a9022d90bdc5248ef2946ccabdb975ed",
        },
    ),
]


def scenario_digest(config, kernel: str) -> str:
    """sha256 of the run's canonical JSON (the cache codec, sorted keys)."""
    blob = json.dumps(
        result_to_dict(run_scenario(config, kernel=kernel)),
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("kernel", ["auto", "reference"])
@pytest.mark.parametrize(
    "config,digests", [pytest.param(c, d, id=name) for name, c, d in PINS]
)
def test_scenario_digest_pinned(config, digests, kernel):
    # Without a kernel-specific pin the two kernels must agree bit for bit.
    expected = digests.get(kernel, digests["auto"])
    assert scenario_digest(config, kernel) == expected
