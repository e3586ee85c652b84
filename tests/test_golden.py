"""Golden digests: generated instances and reduction traces must stay
byte-identical across refactors of the graph and reduction layers.

Each digest is the SHA-256 of a JSON document built from fixed-seed
instances.  A mismatch means a generator drew different random numbers or a
reduction visited vertices in a different order.  Each trace is pinned
twice: as the version-1 document rebuilt from its derived properties, whose
digests predate version 2, and as the version-2 document ``trace_to_dict``
writes.
"""

import hashlib
import json
import random

import pytest

from crownkernel import compute_values, kernelize
from crownkernel.formats import trace_to_dict, write_dimacs
from crownkernel.generators import gen_crown_planted, gen_gnp, generate

from oracles import trace_to_dict_v1


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


INSTANCES = {
    "planted-12-3-5": lambda: gen_crown_planted(12, 3, 5, random.Random(1))[0],
    "planted-40-4-5": lambda: gen_crown_planted(40, 4, 5, random.Random(2))[0],
    "planted-9-2-4": lambda: gen_crown_planted(9, 2, 4, random.Random(3), extra_prob=0.6)[0],
    "gnp-7-0.4": lambda: gen_gnp(7, 0.4, random.Random(7)),
    "gnp-30-0.1": lambda: gen_gnp(30, 0.1, random.Random(30)),
    "gnp-60-0.05": lambda: gen_gnp(60, 0.05, random.Random(60)),
    "gnp-200-0.01": lambda: gen_gnp(200, 0.01, random.Random(200)),
}

# name -> (digest of the kernelize traces for k = -1 .. n//2 + 1 with q = 2,
#          digest of the value-mode trace), both as version-1 documents
GOLDEN = {
    "planted-12-3-5": (
        "b7d39a6176c7c85c933f9de56dc21535ebe874910363fe21e597d7dd6803b61a",
        "87b4c05c09dbda6c982fcb072f11294abac8cf96056af97dc9394ff7634ffe62",
    ),
    "planted-40-4-5": (
        "56999df347e63c3a63b5c816b54a4830a18b0273fc206ad48dc790faa241c6d8",
        "0f2359ef137637b487b9fae9363ad3437489bdcf06e2fc13f3a32bc827e1f3e2",
    ),
    "planted-9-2-4": (
        "e0d8d4b5f3a22156e65ac997458d444270b4fc624751c4fb339cc9cdfbf7a449",
        "d261e6c8f60e0afecc5358f8500c8f7731e90148be832c956bc6666c62af3fb4",
    ),
    "gnp-7-0.4": (
        "2c9c270aff91bffa2cdb31d66807b4e003999d11ec896fec62dffa656c32194b",
        "42ddd2b7235409ee5a5d2ad841938ee3bc15c68960945c8e431491d4c5fadbdd",
    ),
    "gnp-30-0.1": (
        "ead5f6bc9a6cc2db011c1522e1e94e8904ec83836b0f4f509d2a878d7ce81b02",
        "727b726f95b5cb0ce6fb23e35bab262fef097555c8771800bef99cf3db968542",
    ),
    "gnp-60-0.05": (
        "068de74f42c840a77968797021a6943bd6cb711862faab15da0151149e581fba",
        "6135e63b9003d8a09ba69e36a6a545183497c603eafb6a691383b12dca923aaf",
    ),
    "gnp-200-0.01": (
        "0326b7de216a63d0e893543b7f75be742ce511783e0bb4b4853ecda24cdf3a12",
        "d3f0ba54233958ec109f494bb6b51bd2cf4b799a0bced5c89266fed069a70a19",
    ),
}

# The same digests of the version-2 documents.
GOLDEN_V2 = {
    "planted-12-3-5": (
        "ad65a45ab29c4581d51491952927bc76c7b94ebbde86f95ec912ef7f76d582c5",
        "12ff2fb1d64d0bef3953473b3bdcdfbb7320dd9a282a467ac6ec974edbd79d7e",
    ),
    "planted-40-4-5": (
        "ab7867b177afe10c5a657ad448e01cd109e628e6b2ed880ce10fbcdc080e9968",
        "cc80660e201b6145e2b49ef64198d4b8ae97246ee746cef6ab0c015b698b4441",
    ),
    "planted-9-2-4": (
        "938628bd732f7ca04c257042eaa3e229faf556e86d907f69bd86f537b6d5daa9",
        "9762176084b531221d7b1b6b350d5a6b9fd238c83208d938f7975e2664d9b287",
    ),
    "gnp-7-0.4": (
        "59b731445c8385efcc806f2c174eb18be56799ea263f728526963b91a9b12b90",
        "2e6c78b9b33ffd41ab39590022c6d6ccaf3acc94ee1de5be30520594982696a3",
    ),
    "gnp-30-0.1": (
        "4036e43264e1d9bf835c9e13302b459e0aaac4bbfeefc67bc37e4168bb12aa99",
        "497d9bda30302620dd364445e3e1a5b69a129f04075b814109be0f202a4456e9",
    ),
    "gnp-60-0.05": (
        "28fc307a86120b817b6cac038eaf0cf01a6e015ff029cddda9965c7eec48b0db",
        "9dcae52d01761bb6da2a30cd042b5fd7d577743166d1a26f11219b125ad99ce5",
    ),
    "gnp-200-0.01": (
        "a1be35544bc2e90d9b948004d8e3b17c80f369d635b6d20c1638560b8771c918",
        "bfc09ecaf8c87454f195e0928e658a1a580feedb242f6bb56728e34421a6b27f",
    ),
}

# Residuals small enough for the exact solvers; the others are checked
# through the value-mode reduction alone.
SOLVABLE = {"planted-12-3-5", "planted-40-4-5", "planted-9-2-4", "gnp-7-0.4"}


def kernelize_traces(name):
    g = INSTANCES[name]()
    return [kernelize(g, k, q=2)[2] for k in range(-1, g.n // 2 + 2)]


def value_mode_trace(name):
    g = INSTANCES[name]()
    if name in SOLVABLE:
        return compute_values(g).trace
    return kernelize(g, None, 2)[2]


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_kernelize_traces_match_golden(name):
    traces = kernelize_traces(name)
    assert digest([trace_to_dict_v1(trace) for trace in traces]) == GOLDEN[name][0]
    assert digest([trace_to_dict(trace) for trace in traces]) == GOLDEN_V2[name][0]


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_value_mode_trace_matches_golden(name):
    trace = value_mode_trace(name)
    assert digest(trace_to_dict_v1(trace)) == GOLDEN[name][1]
    assert digest(trace_to_dict(trace)) == GOLDEN_V2[name][1]


def test_crown_planted_hub_dimacs_matches_golden():
    # The 2009-vertex hub of the decide-large benchmark workload.
    g, _ = generate("crown-planted", c=2000, h=4, r=5, seed=2000)
    assert (g.n, g.m) == (2009, 2425)
    text = write_dimacs(g)
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "83a77dc3ed5000972e968721a7e05529738c3cf987977c083a8bf8f8d7948a92"
    )
