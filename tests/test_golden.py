"""Golden gate: the CLI writes byte-identical files for the shipped configs.

The sha256 of every output file of propagate, sweep, farfield, darkstate
and calibrate, for the built-in defaults, ``configs/folded5.ini`` and
``configs/fsap3_diced.json``. The CSV/JSON writers print floats in their
shortest round-trip form, so a change in the last bit of any result shows
here. The hashes are platform-bound: they were recorded with Python
3.11, numpy 2.4 and OpenBLAS on x86-64, and another BLAS, CPU or numpy
version may round differently. A change that means to move the numbers
must re-record them and say so; one that does not must leave them alone.
"""

import hashlib
from pathlib import Path

import pytest

from sapsim.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
COMMANDS = ("propagate", "sweep", "farfield", "darkstate", "calibrate")

GOLDEN = {
    None: {
        "propagate.csv":
            "f2e4942693fad005aaa8ec16a87cd496130823c83be1619bfcd03fa6ee8bda71",
        "propagate_summary.json":
            "a0d105ce2665d5d0fbefade97fcbb620bf3e3f63ec918da6638ecb945829e60d",
        "sweep.csv":
            "62c4df4d32f37e6926b043ecf93c3aab85dd9de8aaba9c010b5ee2bf2293cc7f",
        "sweep_summary.json":
            "2e5bbd4363b23cc6d648f263221f09aaa182bc1b77762a86f2e7c2b2fcef287b",
        "farfield.csv":
            "9066935fb9b7b68dcb315c4019ac7fb951a76fc247e168501b63ad8dce409de1",
        "farfield_summary.json":
            "6e8365539a539eeddc1ace127be670582e701cb9bf14636b49a1c20a0f35b6db",
        "darkstate.csv":
            "746b5ab57227016345e6a3a9ef8b9b6945543e995d1eeb9c082f479f70c3be2d",
        "calibrate.json":
            "2303229ad2355e3a38edc9d340f90240b4849142b33116f2b932d8337900d8c3",
    },
    "folded5.ini": {
        "propagate.csv":
            "409816fb66c4b6ca2c9dba8eb7da6f95a232819f13551fb70e17f0f1b10eb7c4",
        "propagate_summary.json":
            "59f0ae009b5a329171f1424d27293f97aa6a4e03d6d01ac2cb00a533cf5f6247",
        "sweep.csv":
            "62c4df4d32f37e6926b043ecf93c3aab85dd9de8aaba9c010b5ee2bf2293cc7f",
        "sweep_summary.json":
            "2e5bbd4363b23cc6d648f263221f09aaa182bc1b77762a86f2e7c2b2fcef287b",
        "farfield.csv":
            "9066935fb9b7b68dcb315c4019ac7fb951a76fc247e168501b63ad8dce409de1",
        "farfield_summary.json":
            "6e8365539a539eeddc1ace127be670582e701cb9bf14636b49a1c20a0f35b6db",
        "darkstate.csv":
            "029360a96caa451d050ec4861ddd2906b700dbb41f8dcc910cc7bb9e305bb12b",
        "calibrate.json":
            "2303229ad2355e3a38edc9d340f90240b4849142b33116f2b932d8337900d8c3",
    },
    "fsap3_diced.json": {
        "propagate.csv":
            "1dd3027c0c480ddb636b0773ac55c38c864ae9495af954d9a9255f988158d245",
        "propagate_summary.json":
            "a0a0c957c20336f333440a3e0061c640e903a5522ddf660c3dfb180f4158ef2c",
        "sweep.csv":
            "d32d7225f460dfa923641d651b31dc77bc08e7b9fe9ca2ed5f94b586d1550bee",
        "sweep_summary.json":
            "b163152e906e9b40726000d6804204d5e84c1b7badb3e6d7b74d4d36a98cb133",
        "farfield.csv":
            "c2d1e40cfe5634bbca6b259f6812009f337cc716dcad5d249b9f278db3600fde",
        "farfield_summary.json":
            "438024769ebb7c32a3602b6397c2cb18828135a482a2920d2b4a965800a6d465",
        "darkstate.csv":
            "0bac323085db88600ee724f0ca340b20fcddd9d6194c84dc5e02b6a9add03554",
        "calibrate.json":
            "31ed3bc3766c0cb6942793a02a20f4730474d018effe7c2f08601b7fa17d92d2",
    },
}


@pytest.mark.parametrize("config", list(GOLDEN))
@pytest.mark.parametrize("command", COMMANDS)
def test_outputs_match_recorded_sha256(tmp_path, config, command):
    argv = [command, "--out", str(tmp_path)]
    if config is not None:
        argv += ["--config", str(CONFIGS / config)]
    assert main(argv) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    expected = {name: digest for name, digest in GOLDEN[config].items()
                if name.startswith(command)}
    assert written == expected


# optimize on a 1 x 2 x 2 grid of the default bounds: two valid candidates,
# two that fail the geometry check, default tolerances.
OPTIMIZE_OVERRIDES = ("design.steps_alpha=1", "design.steps_separation=2",
                      "design.steps_half_length=2")
OPTIMIZE_GOLDEN = {
    "optimize.csv":
        "bb121a4571006c3723b4119927e056c117c32e39ddd1c2e3b33303b812344f92",
    "optimize_best.json":
        "b118e620eefd158af18c73d6ae5417405c2c5a139696e81053a1d0f7d5f92518",
}


def test_optimize_outputs_match_recorded_sha256(tmp_path):
    argv = ["optimize", "--out", str(tmp_path)]
    for item in OPTIMIZE_OVERRIDES:
        argv += ["--override", item]
    assert main(argv) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert written == OPTIMIZE_GOLDEN
