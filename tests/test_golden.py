"""Golden gate: the CLI writes byte-identical files for the shipped configs.

The sha256 of every output file of propagate, sweep, farfield, darkstate
and calibrate, for the built-in defaults, ``configs/folded5.ini`` and
``configs/fsap3_diced.json``. The CSV/JSON writers print floats in their
shortest round-trip form, so a change in the last bit of any result shows
here. The hashes are platform-bound: they were recorded with Python
3.11, numpy 2.4, glibc and OpenBLAS on x86-64, and another BLAS, glibc,
CPU or numpy version may round differently. numpy picks its SIMD kernels
at run time, and its AVX-512 exp, log and angle round differently from
its AVX2 ones, so there are two sets: the one of an AVX-512 host and the
one of an AVX2 host (or of an AVX-512 host with
NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"). The tests pick
the set of the running dispatch, and on an AVX-512 host one test also
checks the AVX2 set in a subprocess. Another glibc or an Arm host may
still differ from both. A change that means to move the numbers must
re-record both sets and say so; one that does not must leave them alone.
The sweep and optimize hashes were re-recorded once, when sweeps,
calibration and the design grid moved to the batched propagation; the
test at the end of this file bounds how far that moved every number. The
darkstate and optimize hashes, and the margins and scores of the optimize
runs in data/sequential_outputs.json, were re-recorded once more when the
adiabaticity margin moved from a finite difference and eigh to closed-form
supermodes (every margin moved by at most 9.4e-5 relative; the ranking
did not move).
"""

import hashlib
import json
import math
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from sapsim.cli import main

from conftest import BATCH_DA, SUBPROCESS_ENV

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
COMMANDS = ("propagate", "sweep", "farfield", "darkstate", "calibrate")

GOLDEN = {
    None: {
        "propagate.csv":
            "f2e4942693fad005aaa8ec16a87cd496130823c83be1619bfcd03fa6ee8bda71",
        "propagate_summary.json":
            "a0d105ce2665d5d0fbefade97fcbb620bf3e3f63ec918da6638ecb945829e60d",
        "sweep.csv":
            "73739c8932910cfc69fb61fd80b8bc594821bf0649cd629bbcef8de6bcc86633",
        "sweep_summary.json":
            "e5ab47bc90294f09e3b09f364eecebff3459c4ef209a87f0f84b8d7e0414a224",
        "farfield.csv":
            "9066935fb9b7b68dcb315c4019ac7fb951a76fc247e168501b63ad8dce409de1",
        "farfield_summary.json":
            "6e8365539a539eeddc1ace127be670582e701cb9bf14636b49a1c20a0f35b6db",
        "darkstate.csv":
            "ccb67d90961189d8740be692a5abe2a149fafeace0eeb7ec5fbfe9915a416030",
        "calibrate.json":
            "2303229ad2355e3a38edc9d340f90240b4849142b33116f2b932d8337900d8c3",
    },
    "folded5.ini": {
        "propagate.csv":
            "409816fb66c4b6ca2c9dba8eb7da6f95a232819f13551fb70e17f0f1b10eb7c4",
        "propagate_summary.json":
            "59f0ae009b5a329171f1424d27293f97aa6a4e03d6d01ac2cb00a533cf5f6247",
        "sweep.csv":
            "73739c8932910cfc69fb61fd80b8bc594821bf0649cd629bbcef8de6bcc86633",
        "sweep_summary.json":
            "e5ab47bc90294f09e3b09f364eecebff3459c4ef209a87f0f84b8d7e0414a224",
        "farfield.csv":
            "9066935fb9b7b68dcb315c4019ac7fb951a76fc247e168501b63ad8dce409de1",
        "farfield_summary.json":
            "6e8365539a539eeddc1ace127be670582e701cb9bf14636b49a1c20a0f35b6db",
        "darkstate.csv":
            "af05d151fee88561d30992e0243af33c09b1d3fe47e99267a72fbb72ac0aa7b5",
        "calibrate.json":
            "2303229ad2355e3a38edc9d340f90240b4849142b33116f2b932d8337900d8c3",
    },
    "fsap3_diced.json": {
        "propagate.csv":
            "1dd3027c0c480ddb636b0773ac55c38c864ae9495af954d9a9255f988158d245",
        "propagate_summary.json":
            "a0a0c957c20336f333440a3e0061c640e903a5522ddf660c3dfb180f4158ef2c",
        "sweep.csv":
            "afed2be263ce4e8aefc01b5350fd597bcee9c9aa48a8a2c91a39d5c03bbafb67",
        "sweep_summary.json":
            "1d309f6fb8263d0b35d5509290c93b24d334da8965950a587736187984a15504",
        "farfield.csv":
            "c2d1e40cfe5634bbca6b259f6812009f337cc716dcad5d249b9f278db3600fde",
        "farfield_summary.json":
            "438024769ebb7c32a3602b6397c2cb18828135a482a2920d2b4a965800a6d465",
        "darkstate.csv":
            "94d0e1eaba56615e223be47320ac350a3bfb61e9e34786e6a1f639e4ce850b9d",
        "calibrate.json":
            "31ed3bc3766c0cb6942793a02a20f4730474d018effe7c2f08601b7fa17d92d2",
    },
}

# The files whose hashes differ under numpy's AVX2 (X86_V3) kernels; the
# rest hash the same under both.
GOLDEN_AVX2 = {
    None: {
        "propagate.csv":
            "ff95ea3d1f8e3c6d7dae30055b751ed70ab2e54b09ff909b6c064ed9a2ed6cb0",
        "propagate_summary.json":
            "edcdc3c9953c922c00b2c2f19f6f3f577ee57addb0fe71f789873e632b705799",
        "sweep.csv":
            "53427afbcf685cc7b1ad53c8039841d58546ced89bc3f4ecb0aeae3e3853a7a5",
        "sweep_summary.json":
            "0460514998654f26129ee7c94cef2c1a49e0bc575305c8091684cfc1feeda06e",
        "farfield.csv":
            "b7e4d33a736bfd9721fb085b114ee0d430fea46a6dbdd93c68bb8394d1d69108",
        "darkstate.csv":
            "f8858944508d32d7a3219ef469937d94881b6c7066f67ef8b38b33f811b9932a",
        "calibrate.json":
            "9a2c0b77f2807e6eed598d67ecd35396c95c334f0b9df34b54f8fa7efa7aefde",
    },
    "folded5.ini": {
        "propagate.csv":
            "592649d146583de64f3c7d7a9824501bbd973c0974374ba45f62bc8fcb13619d",
        "propagate_summary.json":
            "607ea7076dc78be461486a869987126668025f1a6bd1215102d0a7383c0d0019",
        "sweep.csv":
            "53427afbcf685cc7b1ad53c8039841d58546ced89bc3f4ecb0aeae3e3853a7a5",
        "sweep_summary.json":
            "0460514998654f26129ee7c94cef2c1a49e0bc575305c8091684cfc1feeda06e",
        "farfield.csv":
            "b7e4d33a736bfd9721fb085b114ee0d430fea46a6dbdd93c68bb8394d1d69108",
        "darkstate.csv":
            "e365a865cc3152554986bceb5b3e3935cc014cb5fe4d58667de76fa4a637d56b",
        "calibrate.json":
            "9a2c0b77f2807e6eed598d67ecd35396c95c334f0b9df34b54f8fa7efa7aefde",
    },
    "fsap3_diced.json": {
        "propagate.csv":
            "26749493d163fe838dcc6a91a7395ac8bb6067d982874ea4bc1a7d7fefa6d55a",
        "propagate_summary.json":
            "7e175d4bcf03f14e87101c95e3b7ba780b4c5a517e961f60e4bf47addd737b60",
        "sweep.csv":
            "007fdc2e5a43982c35cb717d63049f278272b0bdf6b9e7a4bac6e1d6fc47c5ad",
        "sweep_summary.json":
            "a7bc24d2e521c97eaa08b4d21557971dc76b70de7ee92ee9297f2617491143bd",
        "farfield.csv":
            "e49bb2761b82ce2a6dddfe25156afd8f4bfda1311422164c93d1666d6f9329fd",
        "farfield_summary.json":
            "9f341b68e46687cdb812800385f29e49d21ade038c0746245a0b036bf66de112",
        "darkstate.csv":
            "536088dfa797d9164a1563de4751bd48cc3b8a1300aa6f45dda72328de586ae7",
    },
}

# numpy's AVX-512 exp rounds this argument differently from glibc's exp,
# and its AVX2 exp like it: the canary tells the two dispatches apart.
CANARY = 4.808353387762301
AVX512 = bool(np.exp(np.array([CANARY]))[0] != math.exp(CANARY))
AVX2_ENV = {**SUBPROCESS_ENV,
            "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


def _pick(golden, golden_avx2, avx512):
    """The recorded hashes of a dispatch."""
    return golden if avx512 else {**golden, **golden_avx2}


def _hashes(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.iterdir()}


def _cli_argv(command, config=None, overrides=()):
    argv = [command]
    if config is not None:
        argv += ["--config", str(CONFIGS / config)]
    for item in overrides:
        argv += ["--override", item]
    return argv


def _run(argv, out):
    assert main(argv + ["--out", str(out)]) == 0


def _check_sha256(out, config, command, avx512=AVX512):
    golden = _pick(GOLDEN[config], GOLDEN_AVX2[config], avx512)
    assert _hashes(out) == {name: digest for name, digest in golden.items()
                            if name.startswith(command)}


@pytest.mark.parametrize("config", list(GOLDEN))
@pytest.mark.parametrize("command", COMMANDS)
def test_outputs_match_recorded_sha256(tmp_path, config, command):
    _run(_cli_argv(command, config), tmp_path)
    _check_sha256(tmp_path, config, command)


# optimize on a 1 x 2 x 2 grid of the default bounds: two valid candidates,
# two that fail the geometry check, default tolerances.
OPTIMIZE_OVERRIDES = ("design.steps_alpha=1", "design.steps_separation=2",
                      "design.steps_half_length=2")
OPTIMIZE_GOLDEN = {
    "optimize.csv":
        "6f5f4198fb0ab1963899975dcc838f000249f210908ebadad42b6e27e51a595d",
    "optimize_best.json":
        "6ddddb4b70a79e4146680935c2d60d393dfd57968c8452eda7cee2bfc79bd486",
}

OPTIMIZE_GOLDEN_AVX2 = {
    "optimize.csv":
        "bc6e8c4868490cf0901b78b47e4e95b69786aee84d1b77790e75937e87886e00",
    "optimize_best.json":
        "93d685373b5ff5d4e8c4e195628a6efcba29f8b36df4c1ee31b94a82550b1172",
}


def _check_hashes(out, golden, golden_avx2, avx512=AVX512):
    assert _hashes(out) == _pick(golden, golden_avx2, avx512)


def test_optimize_outputs_match_recorded_sha256(tmp_path):
    _run(_cli_argv("optimize", overrides=OPTIMIZE_OVERRIDES), tmp_path)
    _check_hashes(tmp_path, OPTIMIZE_GOLDEN, OPTIMIZE_GOLDEN_AVX2)


# the same grid refined: its best (half-length 11250 um, the box edge) is a
# local minimum of the compass search, whose step halves to its floor in 9
# of the 10 polls, so the best is the grid's, marked refined
OPTIMIZE_REFINE_GOLDEN = {
    "optimize.csv": OPTIMIZE_GOLDEN["optimize.csv"],
    "optimize_best.json":
        "38d8ff726e960f0fb57cdba85c56f92cfb65c2a8b52593b0a2c0db643a73d0a9",
}

OPTIMIZE_REFINE_GOLDEN_AVX2 = {
    "optimize.csv": OPTIMIZE_GOLDEN_AVX2["optimize.csv"],
    "optimize_best.json":
        "7a293aef158ae79d75ab271e462e771c714554ae4379c834c05ab5a8ca11075a",
}
REFINE_OVERRIDES = OPTIMIZE_OVERRIDES + ("design.refine_iters=10",)


def test_refined_optimize_outputs_match_recorded_sha256(tmp_path):
    _run(_cli_argv("optimize", overrides=REFINE_OVERRIDES), tmp_path)
    _check_hashes(tmp_path, OPTIMIZE_REFINE_GOLDEN, OPTIMIZE_REFINE_GOLDEN_AVX2)


# The sweep, calibrate and optimize outputs come from the batched
# propagation, whose results differ from one propagation per point by
# roundoff; their hashes above were re-recorded when sweeps, calibration
# and the design grid moved to it. data/sequential_outputs.json holds the
# files the per-point route wrote for the same runs, and every numeric field
# must stay within a tolerance derived from the batched-vs-sequential
# agreement of the final amplitudes, DA (conftest.BATCH_DA: three times the
# largest measured max |da|).
SEQUENTIAL = json.loads((Path(__file__).resolve().parent / "data"
                         / "sequential_outputs.json").read_text())
DA = BATCH_DA
# |a|^2 moves by at most 2|a||da| + |da|^2 with |a| <= 1; means, standard
# deviations, maxima and pair ratios over the outputs (which carry a third
# of the power or more) move by less than twice that.
FRACTION_TOL = 2 * (2 * DA + DA ** 2)
# every crosstalk in these outputs lies above -30 dB, and
# d(10 log10 p) = (10 / ln 10) dp / p
P_MIN = 1e-3
DB_TOL = 10 / math.log(10) * FRACTION_TOL / P_MIN
# phase of a_out1 * conj(a_out2): |da| / |a| per output, |a| > 0.5
PHASE_TOL = 4 * DA
# score: the crosstalk in dB over 10 plus the imbalance (unit weights)
SCORE_TOL = DB_TOL / 10 + FRACTION_TOL
# fields that do not depend on the propagation route
EXACT = {"lambda_nm", "rank", "alpha_deg", "separation_um", "half_length_um",
         "target_ratio", "device_length_um", "max_adiabaticity", "valid",
         "n_points", "kind", "delta_decay_um", "d_ref_um", "kappa_ref",
         "crosstalk_target_db", "kappa_min", "kappa_max", "resolution",
         "refined", "achieved_crosstalk_db"}
# The exact fields that round differently under numpy's AVX2 kernels:
# (field, recorded value) -> the value under AVX2. The crosstalk is the
# calibrate check at the picked kappa_ref.
EXACT_AVX2 = {
    ("achieved_crosstalk_db", -20.172965704751988): -20.172965704751952,
}


def _tolerance(name):
    if name in EXACT:
        return 0.0
    if name.endswith("crosstalk_db"):
        return DB_TOL
    if "phase" in name:
        return PHASE_TOL
    return SCORE_TOL if name == "score" else FRACTION_TOL


def _fields(name, text):
    """(field name, value) pairs of a CSV (by column) or JSON file."""
    if name.endswith(".csv"):
        header, *rows = [line.split(",") for line in text.splitlines()]
        return [(col, float(v)) for row in rows for col, v in zip(header, row)]
    out = []

    def walk(key, value):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(k, v)
        elif isinstance(value, list):
            for v in value:
                walk(key, v)
        else:
            out.append((key, value))
    walk(None, json.loads(text))
    return out


def _assert_close(name, got, expected, avx512=AVX512):
    got, expected = _fields(name, got), _fields(name, expected)
    assert [k for k, _ in got] == [k for k, _ in expected]
    for (key, a), (_, b) in zip(got, expected):
        if not avx512 and key in EXACT:
            b = EXACT_AVX2.get((key, b), b)
        if isinstance(b, str) or b is None or not math.isfinite(b):
            assert a == b or (a != a and b != b), (name, key)
            continue
        if key.endswith("crosstalk_db"):
            assert 10 ** (b / 10) >= P_MIN
        assert abs(a - b) <= _tolerance(key), (name, key, a, b)


def _check_sequential(out, config, command, avx512=AVX512):
    recorded = SEQUENTIAL[config or "defaults"]
    names = sorted(n for n in recorded if n.startswith(command))
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        _assert_close(name, (out / name).read_text(), recorded[name], avx512)


@pytest.mark.parametrize("config", list(GOLDEN))
@pytest.mark.parametrize("command", ["sweep", "calibrate"])
def test_batched_outputs_match_sequential_values(tmp_path, config, command):
    _run(_cli_argv(command, config), tmp_path)
    _check_sequential(tmp_path, config, command)


def _representative_margins(text):
    """A recorded optimize.csv with each valid row's max_adiabaticity taken
    from the first row of its (half_length_um, target_ratio) group.

    The grid scores one design per group, the first valid point in grid
    order, and every other member copies its objectives. Ties rank by
    parameters, which is grid order, so the group's first row is that
    representative; the sequential route scored each row on its own.
    """
    header, *rows = [line.split(",") for line in text.splitlines()]
    col = {name: i for i, name in enumerate(header)}
    first = {}
    for row in rows:
        if row[col["valid"]] == "1":
            key = (row[col["half_length_um"]], row[col["target_ratio"]])
            row[col["max_adiabaticity"]] = first.setdefault(
                key, row[col["max_adiabaticity"]])
    return "\n".join(",".join(row) for row in [header, *rows])


def _check_optimize_sequential(out, grid, avx512=AVX512):
    for name, text in SEQUENTIAL[grid].items():
        if name == "optimize.csv":
            text = _representative_margins(text)
        _assert_close(name, (out / name).read_text(), text, avx512)


@pytest.mark.parametrize("grid", ["optimize", "optimize_default"])
def test_batched_optimize_matches_sequential_values(tmp_path, grid):
    # the small golden grid, and the default 125-candidate grid, whose
    # ranking (the rank and parameter columns, compared exactly) must
    # not move either
    overrides = OPTIMIZE_OVERRIDES if grid == "optimize" else ()
    _run(_cli_argv("optimize", overrides=overrides), tmp_path)
    _check_optimize_sequential(tmp_path, grid)


@pytest.mark.skipif(not AVX512, reason="the tests above check the AVX2 set")
def test_avx2_dispatch_matches_its_recorded_set(tmp_path):
    # every CLI run above, in one subprocess with numpy's AVX-512 kernels
    # off, checked against the AVX2 hashes and exact values
    runs = []   # (argv, the checks of its outputs)
    for config in GOLDEN:
        for command in COMMANDS:
            checks = [partial(_check_sha256, config=config, command=command)]
            if command in ("sweep", "calibrate"):
                checks.append(partial(_check_sequential, config=config,
                                      command=command))
            runs.append((_cli_argv(command, config), checks))
    runs += [
        (_cli_argv("optimize", overrides=OPTIMIZE_OVERRIDES),
         [partial(_check_hashes, golden=OPTIMIZE_GOLDEN,
                  golden_avx2=OPTIMIZE_GOLDEN_AVX2),
          partial(_check_optimize_sequential, grid="optimize")]),
        (_cli_argv("optimize", overrides=REFINE_OVERRIDES),
         [partial(_check_hashes, golden=OPTIMIZE_REFINE_GOLDEN,
                  golden_avx2=OPTIMIZE_REFINE_GOLDEN_AVX2)]),
        (_cli_argv("optimize"),
         [partial(_check_optimize_sequential, grid="optimize_default")]),
    ]
    argvs = [argv + ["--out", str(tmp_path / str(i))]
             for i, (argv, _) in enumerate(runs)]
    script = (
        "import json, math, sys\n"
        "import numpy as np\n"
        "from sapsim.cli import main\n"
        f"assert np.exp(np.array([{CANARY!r}]))[0] == math.exp({CANARY!r})\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          capture_output=True, text=True, timeout=120,
                          env=AVX2_ENV)
    assert proc.returncode == 0, proc.stderr
    for i, (_, checks) in enumerate(runs):
        for check in checks:
            check(tmp_path / str(i), avx512=False)
