"""Golden outputs of the command line: SHA-256 of every file that five
`generate` invocations write, and of `results.csv` for one small config of
each experiment.

The digests were recorded before both generators built their grids directly
instead of parsing an ASCII map, and before `generate --t-hat-sweep` and
exp2 shared one sweep; the `results.csv` digests again when run k of a
Monte Carlo call took the seed (seed + 1) * 2**32 + k, and again when its
draws became SplitMix64 outputs keyed by (seed, k).  The bench configs
set a node limit that stops the solves that reach it long before the time
limit, so each CSV is the same on every machine (see `bench`).  A change that alters a map, an agent line, a
delay probability, a plan or a Monte Carlo statistic fails here.
"""

import hashlib

import pytest

from mapf_dp.cli import EXIT_OK, main

MAP_20X20_SEED0 = "ffc833ebd7759daea63b515dd9fc96a29c1e65cdacffb1c7d11f9d084f5fa832"
WAREHOUSE_MAP = "f5d26349fc7575495012b2a44c467fabc8cafdd7f7b949d8ca79498f24cb86c0"

GENERATE = {
    "default": ([], {
        "random-000.agents": "d7e12901e28865fec128d0d034b6a6176b6b19b34fa1e01d864d8eb7c58a56bc",
        "random-000.map": MAP_20X20_SEED0,
    }),
    "grid-count-2": (["--width", "10", "--height", "7", "--blocked", "0.2", "--count", "2"], {
        "random-000.agents": "a482c23f32f042ed3e62a5a0944c4d4ac4a7d287bf658d4e17652ebb9234ed95",
        "random-000.map": "02b600b1586f9c0fe7204096ac835831a9ebb5548ed5dde47539b9f95f8abb07",
        "random-001.agents": "57e771248789ce209f23531440e65c792e47349949d450ff1697f1e4c3665caa",
        "random-001.map": "8d598f48afabe9245d251ff9d7e057935a9fe6d96d5ef4555ae8a206bbec40fb",
    }),
    "warehouse-count-2": (["--kind", "warehouse", "--count", "2"], {
        "warehouse-000.agents": "ad97a999be329586a7d6b26fa0814b8bdda1f392b8eafd2fbd0dd63a6d4e53f5",
        "warehouse-000.map": WAREHOUSE_MAP,
        "warehouse-001.agents": "d35392d4dfe8b80122704b5d5c70f9762c31164171b02e418103668b943533b1",
        "warehouse-001.map": WAREHOUSE_MAP,
    }),
    "sweep-2-4-8": (["--t-hat-sweep", "2,4,8"], {
        "t02.agents": "651761b3617cf881c2ba342adb986b3854cc4258db0661be0f528ab5e1c02299",
        "t02.map": MAP_20X20_SEED0,
        "t04.agents": "6cfe7b5d393fc6e46f9bda8cf2df4516a084aa0a3562ce977a162d81c6295591",
        "t04.map": MAP_20X20_SEED0,
        "t08.agents": "59e4d48ed114c281f4d2caced8cb792741f2f357903600782c781d7b37be4643",
        "t08.map": MAP_20X20_SEED0,
    }),
    "sweep-3": (["--t-hat-sweep", "3"], {
        "t03.agents": "28e08457c1ca5c798e8c40eb6b213c291fe1d33c313dcb5107c4b787e8825c3c",
        "t03.map": MAP_20X20_SEED0,
    }),
}

# 8x8 grids, 20 runs, seed 5; 300 nodes end one exp1 and one exp3 solve
BENCH_COMMON = ["--width", "8", "--height", "8", "--runs", "20", "--seed", "5",
                "--node-limit", "300"]
BENCH = {
    "exp1": (["--agents", "4", "--instances", "2"],
             "c60c471d77fb067ab8cd167d513d4def0397de345bf991500b846e1e13a6064d"),
    "exp2": (["--agents", "4"],
             "251dcce982ce5da64a35e7e5ffba8a349c4c868f849ae7775a8876a247d021f5"),
    "exp3": (["--instances", "2"],
             "af6595a3bcda8b94eedd5fe2f82152368dc45009748d40260ac8d336a2b2b3b6"),
    "exp4": (["--agents", "4", "--instances", "2", "--policy", "mcp", "--policy", "fsp",
              "--policy", "dummy", "--solver", "ame", "--solver", "adapted-cbs"],
             "ddb5b2fdbf750f527585952c9af4ec5f2bc68536b214fe14d609be649ed33bc3"),
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GENERATE))
def test_generate_outputs_are_pinned(tmp_path, name):
    options, digests = GENERATE[name]
    assert main(["generate", "--out", str(tmp_path)] + options) == EXIT_OK
    assert {p.name: sha256(p) for p in tmp_path.iterdir()} == digests


@pytest.mark.parametrize("experiment", sorted(BENCH))
def test_bench_csv_is_pinned(tmp_path, experiment):
    options, digest = BENCH[experiment]
    assert main(["bench", "--experiment", experiment, "--out", str(tmp_path)]
                + BENCH_COMMON + options) == EXIT_OK
    assert sha256(tmp_path / "results.csv") == digest
