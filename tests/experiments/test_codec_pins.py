"""Codec and cache-key pins: the scenario config encoding, byte for byte.

``config_to_dict`` feeds every cache key (``scenario_key``,
``fleet_shard_key``), every cache file (``ResultCache.put_data`` writes
unsorted JSON, so key order is part of the bytes) and every shard claim
the service journals.  These tests pin its output for every fleet
archetype under every canned fault profile, with and without the chaos
overrides, and keep the original ``dataclasses.asdict`` encoding as an
oracle.  The shard and scenario cache keys are pinned too.  A change to
any of these digests retires every cache entry and changes ledger bytes,
so it must come with a codec version bump.
"""

import dataclasses
import enum
import hashlib
import json

import pytest

from repro.experiments.fleet import ARCHETYPES, FleetConfig, build_shards, fleet_shard_key
from repro.experiments.parallel import config_to_dict, scenario_key
from repro.experiments.scenarios import ALL_APPS, ScenarioConfig
from repro.netsim.faults import FAULT_PROFILES, FaultSchedule
from repro.workloads.base import WorkloadProfile

#: Every per-UE override a chaos fleet or a chaos scenario sets.
CHAOS_OVERRIDES = dict(
    outage_eta=0.1,
    handover_interval_s=10.0,
    handover_x2=True,
    quota_bytes=1_000_000,
    sla_budget_s=0.0005,
    background_mbps=80.0,
)


def matrix():
    """(id, config): every archetype x (no schedule, every profile) x
    (archetype settings, chaos overrides)."""
    for archetype, base in ARCHETYPES.items():
        for profile in (None, *FAULT_PROFILES):
            faults = None if profile is None else FAULT_PROFILES[profile]
            for tag, overrides in (("plain", {}), ("chaos", CHAOS_OVERRIDES)):
                yield f"{archetype}/{profile}/{tag}", base.with_(faults=faults, **overrides)


CONFIGS = dict(matrix())

#: sha256 of ``json.dumps(config_to_dict(cfg), separators=(",", ":"))``.
CONFIG_PINS = {
    "gaming-qci7-dl/None/plain": "d17c5b064716f1902a84ce8827c5c45a685a01188d71839845493bf546e4be20",
    "gaming-qci7-dl/None/chaos": "592aca6e7463874d8bdcba975cbe8879775a6a024fa989dd74c5831f6c28ec18",
    "gaming-qci7-dl/none/plain": "87c9ad26c8c95827836665236f1e6bebd2b8e6807c9c7cd8238119d179391778",
    "gaming-qci7-dl/none/chaos": "f349437e0930d85cded337bdb4a58093d5c0b4435d6b74ccd9c0c7f653f889c6",
    "gaming-qci7-dl/bursty/plain": "9975aa5a1841d713da312a6a5f85cc1af054fe0ebed03d50c42f2e2719e5188e",
    "gaming-qci7-dl/bursty/chaos": "22241baeb27e360faf0f8e287f883f8ef8ad3d751435177eb2c7af1b82328f8f",
    "gaming-qci7-dl/flaky-link/plain": "c12350fd2d2b341e816adadc09771385a80d5e556379b99c36032d8bcb73d560",
    "gaming-qci7-dl/flaky-link/chaos": "8666a0041d7ffc34de4d8df12169518a2cd7c32fa683b703b522fc6b8d11ebda",
    "gaming-qci7-dl/clock-drift/plain": "cf926ee2fb5314b43deef8593c20ee1055fc075114193357dde59b3e49c5ca64",
    "gaming-qci7-dl/clock-drift/chaos": "2abb3b6fdcacda1d9c28753782633fc57ecb6cad3c69bc071f3e4a164fd8716e",
    "gaming-qci7-dl/chaos/plain": "eaa0b6f139e4061002b7294f308a2d272562ba7bc916f3d442658dd4e3f73b3e",
    "gaming-qci7-dl/chaos/chaos": "9abd068bff27aad798d137ddc6a35bcf36214650dfc0b97f24e92cb9a203a600",
    "background-iperf-dl/None/plain": "4548f01a7c256e72ea3594f457a6e5790acceb9c725e5ee81ac6e8406d2161e5",
    "background-iperf-dl/None/chaos": "79fba69869d015e907b4fc8544491352a5b1d9fc2dab6f93ce6e6a1e2d227dd9",
    "background-iperf-dl/none/plain": "0d1e14ab89b28801ff0290fc196b9bbf11f76d5924bc7fa139e4c2c0abb324ea",
    "background-iperf-dl/none/chaos": "2333408d8dfcece153d385d6fc15229c8c104f0b2016cbc37861f0025e3644e9",
    "background-iperf-dl/bursty/plain": "57fc183a109b07648335d8d52f7335241149ba9bc3fbfca3ec6aaa5f901d6f93",
    "background-iperf-dl/bursty/chaos": "836ba8dfc0217c6e1e9892e7bb6704efa5d34088692ef6a6ff1930c9cb9e8a72",
    "background-iperf-dl/flaky-link/plain": "b10390bf6508aba56b94e0a11fad0672c014f82a12c5b44057c4a025125ab1e6",
    "background-iperf-dl/flaky-link/chaos": "3c883f3a9003a279043cd6cc502ab9506d43cf09490c8affcdbc59c7b4ef65bb",
    "background-iperf-dl/clock-drift/plain": "60a1ba23657a1450826147b30c50694722e3ee0c3af8cc82b02bb8adeffe09e3",
    "background-iperf-dl/clock-drift/chaos": "ceea94d013e7d81cc65f4e72f14f198f8c32ff7b765ed57ca4cfa274aa16b6d5",
    "background-iperf-dl/chaos/plain": "67ba4b301f2ca86d8fe1dbb9dd449e21c0507200e87df707b1c98d7605c1a006",
    "background-iperf-dl/chaos/chaos": "9b256bad5f5ed037eaa9b935f89678bae0e6142aa354889c8c5ad6645072247e",
    "webcam-rtsp-ul/None/plain": "b650c461834be157720079956c40b738336f5df0135c0edbaf7e7345728e6402",
    "webcam-rtsp-ul/None/chaos": "f0ee5a83634cb1e3a3551c70d02ea23ae25150a60b48942cdd32fa1f174cc591",
    "webcam-rtsp-ul/none/plain": "3f2a6796fbd75af849af41499da3eb9ab0fbf8256ce57293cd7d854afcea8d69",
    "webcam-rtsp-ul/none/chaos": "7489b714c1a9dfd77c764b0ebb97794f0201b3f58bfdca7cec3b624ea7efc761",
    "webcam-rtsp-ul/bursty/plain": "90a16817295fbf2bb6ee0a09789d7b0d8740d1f2d4c0d0022b9eb6d9966f7058",
    "webcam-rtsp-ul/bursty/chaos": "7a48a3527d0a95f18ff0a73fd95abeefe6b9aa2c9a129fefda0762dab6199696",
    "webcam-rtsp-ul/flaky-link/plain": "3b48ad0a7ea16923d882e88c35028e534fd16adb11905b6a23413b5510be0216",
    "webcam-rtsp-ul/flaky-link/chaos": "966471370fd969706a7db877cf7de7a460a0a3a07d6d3e51782b82e0f0103ffc",
    "webcam-rtsp-ul/clock-drift/plain": "724b54353ad3ff10966c1fe9388e90a8660bb18a877bab88179b975b2e67d81b",
    "webcam-rtsp-ul/clock-drift/chaos": "1a161db922e8dff64cb57f82902de6e37f0d64e7b058d148c942e664097ea06f",
    "webcam-rtsp-ul/chaos/plain": "18c48bb427825f7a9e82b639959361888ed563d4c7c4364b4d9dbd0b3731441e",
    "webcam-rtsp-ul/chaos/chaos": "48c2630a45c6d90acf0f20c7e7828b0bf130f958156681806a7d2201597b5c03",
    "webcam-udp-ul/None/plain": "57a98083a2ce99f2ea7ade40a4e5578f889822ca20bff5c58505725e3124e856",
    "webcam-udp-ul/None/chaos": "91d628552195cea494e35d957242565097514cdb58e13894b8440ecf22b5384d",
    "webcam-udp-ul/none/plain": "8841094d386fa99ce43a14a5d8264fbd85308aa59c90575695ea08e544718e11",
    "webcam-udp-ul/none/chaos": "3a67b8fded6d9fee157a78aa6508742725f9a3ea9b6d18faf80e98859e670c45",
    "webcam-udp-ul/bursty/plain": "e40573749becc6d20c27a0fe59491507fd6747497256c8817388503fdac2f8c8",
    "webcam-udp-ul/bursty/chaos": "291ea8a169973df1e6eb17a8c67dab0eaeedda3d5702836fbd20db598513716e",
    "webcam-udp-ul/flaky-link/plain": "30f23fe4d35aff2fd5d454411e2dbbaebb591e3736f8f2322c9d1bc096be1d92",
    "webcam-udp-ul/flaky-link/chaos": "77f6475856f2bd2c60fbbc73b6ac76d74d37e2f6b0f7a93b9d78f413104511df",
    "webcam-udp-ul/clock-drift/plain": "12d669e479e629ac2bf98d8a192d4a16727e1ee47419f93e575d30661534a12f",
    "webcam-udp-ul/clock-drift/chaos": "ac4c3c06788fe35c9b8e00c010e48ab1f2596e2fb0d6b453c4490bb707c565db",
    "webcam-udp-ul/chaos/plain": "0a25babaed2973b29c1b18baed3e028ed15939025314c982a12b54f569073084",
    "webcam-udp-ul/chaos/chaos": "419642597146364c3ed121adfc8bcc0502740e6e9763a3f7726b3cd7c8752b25",
    "vridge-gvsp-dl/None/plain": "648d0867e22e8f6666830234f34dacff51913b6c4b028763d4193169b062b2a8",
    "vridge-gvsp-dl/None/chaos": "970c3d02efabdcd2900df7381a1106f906310b9567d375bc86be3250b36c944c",
    "vridge-gvsp-dl/none/plain": "f1a0b4dc338d459840808847ae1476a26965e21a5925dae6c517d774a41088b4",
    "vridge-gvsp-dl/none/chaos": "604ce32aa0e5908aeb002e62349b0de60a61dbe841645a92344e707886529568",
    "vridge-gvsp-dl/bursty/plain": "f03ec5b795e60e27b38971e36d3cb083e927ae41b9c34973eaf6f8c2f85e0a10",
    "vridge-gvsp-dl/bursty/chaos": "0c8338a5f1fecc9bbe8afae4bbd0afe9cd50e3f1708e91242cbe458d8ec75426",
    "vridge-gvsp-dl/flaky-link/plain": "5ce6c9fca5b162d30676e69f043edd4fe7792e2ee47e4d8aeb616b1a39aa68e6",
    "vridge-gvsp-dl/flaky-link/chaos": "bb410d6aa550ca35fae7f9e71e57e56ac3af681ca823b1172609da9ec65e670e",
    "vridge-gvsp-dl/clock-drift/plain": "94cb846258651e464ba7840cc46f1e424419e98cf7e101edcef859464e1c0c1c",
    "vridge-gvsp-dl/clock-drift/chaos": "7925e024a64ad512365126c0b35545ae97ab660df3a3f8924499e1c1f78d54ab",
    "vridge-gvsp-dl/chaos/plain": "3b9b8f8c71fd5d50c15071ea90e877a47b3151502b0b66d1b3f6853142378461",
    "vridge-gvsp-dl/chaos/chaos": "796c4744bd47d62e2ea3020968ab025a26547bba7716876b8532b7102aa122e6",
}

QUIET_FLEET = FleetConfig(ues=48, seed=1)
CHAOS_FLEET = FleetConfig(
    ues=48,
    shard_size=2,
    seed=1,
    outage_eta=0.1,
    fault_profile="chaos",
    handover_interval_s=10.0,
    handover_x2=True,
    quota_bytes=1_000_000,
)

#: ``fleet_shard_key`` of every shard, in shard order.
QUIET_SHARD_KEYS = [
    "09fef02eb58902dd78128fdfd0fbf56b1711bb3978023ced0608c8c7d0e94386",
    "3cdf445b10eaf52971c3bdbc6b34537f8484c5b2a3f1c15ba480f37607331a4a",
    "9ee185bdc4b5951fd598a9a95c8fa68b4cc4d4dcbc7f43adfad7aab861a296ad",
    "c008930ea87c10a7127aaa2dbe5e294ba73874842a35b6e3833b066a18f41825",
    "3833e5baa2feaf0d2a17a3565a04bb8a25e6299e3d02c689a124fcc1fe719b54",
    "b7913fb724538ca90b1c48e9f4be489956743fa7e0b4755314da4968adb5dd99",
]
CHAOS_SHARD_KEYS = [
    "966490f45dfb173b5d456b94a7c1c9c41f6974679adb7f1095150e5d3c02887e",
    "2e8dc6c8c53e492ebba4087a78d697d7a040cd2f3e9cdf04ab4f0c3a1f95f9f8",
    "41b155119e8218ee2258148927ffa510f80111d2375a793a9ae16514c3e6e142",
    "5053836ea38bcab0b8d5084db87ef3b185813f15bbf198a9561b2566f2f38546",
    "954d6814bdfad32af79c6ebfaa4b8148fe441d18a3845eff458c398d3f1b144c",
    "b32d284f1519c35a68f4f7e76131562877658ef8aea4d6e8790222c707b13cc0",
    "35aac57963013da5f409be424d20768c226fda06fe085e7161cbc8573775856d",
    "fc2dd44ed0c03a62ad39fe4861a935650e08c003d8252cf14aff14f553936346",
    "09797c165e2e6bf4862ccc403b1529821e114d3c46578b99ef7603c100fabaac",
    "a1e1f3c6e98a825af66b41c6e0c53ff2d65b0437d2e612b3d8a141f7a84e342f",
    "948d1e85aeb7bc914e925065dfb4a74f318c4d0963314252d494618a34e392e5",
    "99ff204841d783e362bdb44fffabe5f7cdaae56559c2e29b4a82386dfe213e23",
    "847ee1bcb6e25ecf46fa74de025ff54b17ddf798e6684b8603148eafddbe73be",
    "dfa985cce3aba9540552723e1690d2c029f3e71fd09708c7a57754974e03ba0e",
    "9dbbd5df4da7798ff8fa2fea8ce18bd2365d276ac4fbcc54c4d79409ece2ff75",
    "760189d819002abd471a43921d91b1b59a8f3953232934f68605b063d221fb84",
    "b1b9ef8be487164d2828f1f3aee983013da1debeec8b0a74dd183eefb40f1407",
    "93d7161219f6f0416b9ca54ca10edf3520d2826e6f25d329715a1f48bfa0fd4a",
    "e362fcb76ea9f13468c787fddc155444b85483e8feab1a08c46dacb49f53102f",
    "0af37d8eae4043eac656cc48d86c28423f81da9081b14e015ffe7e4da8604a91",
    "be38adae5585a136ae2c641e2090a4ccc714e31c34e4282dace2454bb12a1ec9",
    "65b2b2a8f8c235a12c4005f4d5eed9b853975745fea6d1724a04c9834b188211",
    "cdcf6f21cc526efcb44ddcab5e2073c818b361ab99bab4e680c4efdf80780082",
    "0dbd1c7e995920ae0fe96a1b5040905d9ebf4c9ab9f438b84df2a7f79c60e636",
]

#: ``scenario_key`` of the four paper applications.
APP_KEYS = {
    "webcam-rtsp-ul": "8801d71b071154e5be254ffede8f1b62b673dcffa65de269a0353a8e75debe54",
    "webcam-udp-ul": "98025677d4e135954d9620cc3c6d82007e83c3d7c763c286b0d652ba2411a82a",
    "vridge-gvsp-dl": "9b4b53cdcc7ea9114ec0991a6955e5096118917d52430191c4e051e913531521",
    "gaming-qci7-dl": "01d46b3681bbc6b3687b60e88f5f9d1733877789eb72727b02864e58047d8b69",
}


def compact(data: dict) -> str:
    """The unsorted compact encoding: key order is part of the bytes."""
    return json.dumps(data, separators=(",", ":"))


def asdict_encoding(config: ScenarioConfig) -> dict:
    """The original codec, built on ``dataclasses.asdict`` (the oracle)."""
    encoded = dataclasses.asdict(config)
    encoded["direction"] = config.direction.value
    encoded["workload"] = dict(encoded["workload"])
    encoded["workload"]["transport"] = config.workload.transport.value
    encoded["faults"] = None if config.faults is None else config.faults.to_dict()
    return encoded


def test_matrix_is_fully_pinned():
    assert sorted(CONFIGS) == sorted(CONFIG_PINS)


@pytest.mark.parametrize("name", sorted(CONFIG_PINS))
def test_config_encoding_is_pinned(name):
    blob = compact(config_to_dict(CONFIGS[name]))
    assert hashlib.sha256(blob.encode()).hexdigest() == CONFIG_PINS[name]


@pytest.mark.parametrize("name", sorted(CONFIG_PINS))
def test_config_encoding_matches_asdict_oracle(name):
    config = CONFIGS[name]
    assert compact(config_to_dict(config)) == compact(asdict_encoding(config))


def test_encoding_does_not_alias_the_config():
    config = CONFIGS["gaming-qci7-dl/chaos/chaos"]
    before = compact(config_to_dict(config))
    encoded = config_to_dict(config)
    encoded["workload"]["fps"] = -1.0
    encoded["faults"]["specs"].clear()
    assert compact(config_to_dict(config)) == before


@pytest.mark.parametrize(
    "fleet, pins",
    [(QUIET_FLEET, QUIET_SHARD_KEYS), (CHAOS_FLEET, CHAOS_SHARD_KEYS)],
    ids=["quiet", "chaos"],
)
def test_fleet_shard_keys_are_pinned(fleet, pins):
    assert [fleet_shard_key(shard) for shard in build_shards(fleet)] == pins


def test_scenario_keys_are_pinned():
    assert {config.name: scenario_key(config) for config in ALL_APPS} == APP_KEYS


def _shareable(value) -> bool:
    return value is None or isinstance(
        value, (bool, int, float, str, enum.Enum, WorkloadProfile, FaultSchedule)
    )


@pytest.mark.parametrize(
    "configs",
    [list(CONFIGS.values()), list(ALL_APPS)],
    ids=["matrix", "apps"],
)
def test_config_fields_are_immutable(configs):
    # The codec copies field values into the encoded dict without a deep
    # copy, so no field may hold a value that can change under it.
    assert ScenarioConfig.__dataclass_params__.frozen
    assert WorkloadProfile.__dataclass_params__.frozen
    assert FaultSchedule.__dataclass_params__.frozen
    for config in configs:
        for field in dataclasses.fields(ScenarioConfig):
            assert _shareable(getattr(config, field.name)), field.name
        for field in dataclasses.fields(WorkloadProfile):
            value = getattr(config.workload, field.name)
            assert _shareable(value) and not isinstance(
                value, (WorkloadProfile, FaultSchedule)
            ), field.name
        if config.faults is not None:
            assert isinstance(config.faults.specs, tuple)
