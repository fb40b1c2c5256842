"""Golden-digest oracle: every library scenario replays a pinned schedule.

For each scenario in :data:`repro.scenarios.SCENARIOS` this pins three
values of a default run:

* ``History.digest()`` — the fingerprint of the recorded event sequence;
* ``events_fired`` — how many scheduler events the run fired;
* ``message_stats.total_sent`` — how many messages the network accepted.

A refactor of the engine, the network or a protocol stack that is meant to
be behaviour-preserving must leave all three untouched.  When a change
alters the schedule on purpose, re-record the table and say why in the
change description.
"""

from __future__ import annotations

import pytest

from repro.scenarios import SCENARIOS
from repro.scenarios.runner import run_scenario


# scenario name -> (history digest, events fired, messages sent)
GOLDEN = {
    "steady-state": (
        "f1b4e46ea38e8da8939fb9f15dd31e42f14e714281a72af85022a72bfc4ecf07",
        2155,
        2506,
    ),
    "hot-key-contention": (
        "3fdde09996c936ea7dbefc9271fbab5a05ba3288d587fb7cff6eba1067d13783",
        1475,
        1710,
    ),
    "leader-crash-under-load": (
        "2bdaf64aa721f710634ec848d5a17089629f8b8874a71e36b13ac60180e33f81",
        1260,
        1450,
    ),
    "rolling-reconfiguration": (
        "e68f0e57eb4db7dafabad96231372491c0bdfcb66502a1b5636aa33b77a38cb9",
        1369,
        1549,
    ),
    "mixed-isolation": (
        "b6eefe06c04bd7c7bb78f0e7f3135ad0373c62547a77ebee8798a5ff480b5df8",
        1425,
        1650,
    ),
    "rdma-steady-state": (
        "e8e86a4ff7bf64b13d7093b62678d9a86c1152f666781070ba55c82393e6cf43",
        3006,
        2268,
    ),
    "multi-shard-skew": (
        "b6c40ec7756d7734684d1c2c81f4b94cefd873c478ce35f568743cca253b1f57",
        2190,
        2564,
    ),
    "bank-transfers": (
        "7798980192b8ddbbf5438279ee7044fbeb023f22b09a0efc4f1326cf427025e4",
        1150,
        1332,
    ),
    "follower-partition": (
        "8f0f6cb43ea2edeb53af2878de5959089e71fbfdc0ba01e3d4f0d321557188f6",
        1179,
        1360,
    ),
    "cascading-crashes": (
        "4a6c068aa8b6d5b92e5944683ec653310f461e222cd43f3575d95b86734a2f2f",
        1292,
        1465,
    ),
    "config-service-outage": (
        "c63ce0a72c98acb6c7a668fd9c605f6687f75eba671708cbaebe138718eae5e9",
        943,
        1049,
    ),
    "closed-loop-think": (
        "ff9bc033b5cc68ba37833575c024df7585eddabf6d347119725792c2baf63637",
        1265,
        1326,
    ),
    "wan-steady-state": (
        "cb3c1c6a91504f65bcf80d02f5ef8b18395f25964731ba05ef423cdd576b4b56",
        2514,
        2514,
    ),
    "wan-cross-region-contention": (
        "afe7db9c93c3437b33b51cbcd47405da900578cd721394d9332a3016bfde3a91",
        1941,
        1941,
    ),
    "wan-leader-crash": (
        "767a62612ff127cfee2c802d8e818408dc7acc5e0dcbc58b67eeb335d76fa86a",
        1833,
        1825,
    ),
    "wan-heavy-tail": (
        "31b4998a0a08757e0f116901490770a6fe524891c6cffbcbcd6d3e640e9d747f",
        1776,
        1776,
    ),
    "coordinator-crash-storm": (
        "83618c0e4109818d59551cdd2a82591b9add3ee5c263d544c35591620d63756f",
        1373,
        1765,
    ),
    "failover-under-wan-tail": (
        "ccc16e9f449d33a2d906d3478ac01c7417bc85dc27e7612a67178e88f2c5124a",
        1894,
        1858,
    ),
    "duplicate-delivery-fuzz": (
        "5f5ee0e9ca2612c340612906b42f1713b844883a182d57f221dc4c4d1b6c356d",
        2410,
        2516,
    ),
    "batch-saturation": (
        "6783199325eced0648dc6b6768e92f9a7bcfb1401cad14873def6f001c31a44e",
        2136,
        1256,
    ),
    "batch-vs-unbatched-wan": (
        "37b015fb7b11d7e7e03f5200537ac45134f957b23a1c9e6ba35064e4bf573692",
        2415,
        1419,
    ),
    "bandwidth-knee": (
        "30ded0c88cf9b1069d144cd0b731e1812df7c6ad87ec9ef3fd875b4cba6736c2",
        2060,
        1256,
    ),
    "saturated-link": (
        "d1d841691f6e45bb33087c9099b1271f199628da3462dad76acbe4e0611dd4c0",
        1550,
        1704,
    ),
    "read-heavy-steady-state": (
        "3483ee51b38c07aaa113f7118b6d5d60d9dbb07141ae54dc986d81ea78e0bf72",
        688,
        740,
    ),
    "stale-lease-ablation": (
        "c218f6675c7e67c53509ce696a3428951988119a167daff61563ad3cd256268a",
        583,
        614,
    ),
    "baseline-steady-state": (
        "1239629fdf9aac5e5b97ae644ef9cc4eaa8065415606485171a1746e029a066c",
        3260,
        3260,
    ),
    "ablation-safety-demo": (
        "6e080134a856f31b1e7bb3ea9af6c17e5f3a5df23c15ebedc471b710969a4e2f",
        43,
        40,
    ),
    "detector-leader-crash": (
        "71c0807317e8b5f963a3943f10dbeb1bdb14001beb704d57b557e934524bf344",
        2038,
        3099,
    ),
    "timeout-failover-leader-crash": (
        "4aaeece5221f28e5252601c3950fc95dc8f4d67977e0793af4942c006fcef2b1",
        1397,
        1935,
    ),
    "gray-failure-slow-leader": (
        "d0183bbeeb30733c523d354fb46e3533e5c53696a23d907feab8a12a8d57d300",
        1891,
        2856,
    ),
    "flapping-detector": (
        "39f6412dc4d74ddc8150e5baa5bdd27a580845cd792b8eee14bd09c21b20a2ce",
        1765,
        2615,
    ),
}


def test_golden_table_covers_the_whole_library():
    assert sorted(GOLDEN) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_scenario_replays_golden_schedule(name):
    result = run_scenario(SCENARIOS[name])
    observed = (result.history_digest, result.events_fired, result.messages_sent)
    assert observed == GOLDEN[name]
