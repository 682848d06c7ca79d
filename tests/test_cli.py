import json
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sapsim import config as cfgmod
from sapsim import dark_state, eigensystem, hamiltonian_at
from sapsim.cli import main
from sapsim.config import layout_from, load_config, model_from

from conftest import COUNT_BOUNDS, SUBPROCESS_ENV

FAST = ["--override", "propagation.rtol=1e-8",
        "--override", "propagation.atol=1e-10",
        "--override", "propagation.samples=24"]


def run(command, out, *extra):
    return main([command, "--out", str(out), *FAST, *extra])


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


class TestPropagateCommand:
    def test_outputs_and_row_count(self, tmp_path):
        assert run("propagate", tmp_path,
                   "--override", "propagation.wavelength=1540") == 0
        header, rows = read_csv(tmp_path / "propagate.csv")
        assert header[:2] == ["z_um", "I_1"]
        assert len(header) == 1 + 5 + 5
        assert rows.shape[0] == 24
        summary = json.loads((tmp_path / "propagate_summary.json").read_text())
        finals = summary["final"]["fractions"]
        # splitter behavior: halves to the outer guides, little in the center
        assert finals[0] == pytest.approx(0.5, abs=0.02)
        assert finals[4] == pytest.approx(0.5, abs=0.02)
        assert finals[2] < 0.02
        assert summary["final"]["pair_fractions"][0] == pytest.approx(0.5,
                                                                      abs=1e-9)

    def test_zero_coupling_identity(self, tmp_path):
        assert run("propagate", tmp_path,
                   "--override", "coupling.kappa_ref=0") == 0
        _, rows = read_csv(tmp_path / "propagate.csv")
        assert np.allclose(rows[0, 1:6], rows[-1, 1:6], atol=1e-15)

    def test_config_error_exit_code(self, tmp_path):
        assert main(["propagate", "--out", str(tmp_path),
                     "--override", "geometry.kind=ring"]) == 2

    def test_unreadable_config_exit_code(self, tmp_path):
        assert main(["propagate", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("name, data", [
        ("run.ini", b"\xff\xfe[geometry]\nkind = sap3\n"),
        ("run.json", b'{"geometry": {"kind": "sap3\xff"}}'),
    ], ids=["ini", "json"])
    def test_config_not_utf8_exit_code(self, tmp_path, capsys, name, data):
        path = tmp_path / name
        path.write_bytes(data)
        assert main(["propagate", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config {path}: "
                              "'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nhalf_length = 5000\n",
        "[DEFAULT]\nrtol = 1e-9\n\n[geometry]\nkind = sap3\n",
    ], ids=["alone", "beside_geometry"])
    def test_ini_default_section_exit_code(self, tmp_path, capsys, text):
        path = tmp_path / "run.ini"
        path.write_text(text)
        assert main(["propagate", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == \
            "config error: DEFAULT: unknown section\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override,message", [
        ("geometry.angle=4", "guides 1 and 2 cross or touch at z = 0 um"),
        ("geometry.width=30", "guides 1 and 2 overlap at z = 0 um: "
                              "separation 7.073 um < width 30 um"),
        ("geometry.half_length=1e300",
         "guides 1 and 2 cross or touch at z = 0 um"),
    ])
    def test_rejected_layout_names_the_geometry_section(self, tmp_path, capsys,
                                                        override, message):
        # each key passes alone; the layout they build is invalid
        assert main(["propagate", "--out", str(tmp_path),
                     "--override", override]) == 2
        assert capsys.readouterr().err == f"config error: geometry: {message}\n"
        assert not any(tmp_path.iterdir())


class TestSweepCommand:
    def test_summary_matches_csv(self, tmp_path):
        assert run("sweep", tmp_path, "--override", "sweep.n_points=5") == 0
        header, rows = read_csv(tmp_path / "sweep.csv")
        assert header[0] == "lambda_nm"
        assert rows.shape == (5, 1 + 5 + 2)
        summary = json.loads((tmp_path / "sweep_summary.json").read_text())
        for i in range(5):
            assert summary["mean_fractions"][i] == pytest.approx(
                rows[:, 1 + i].mean(), abs=1e-12)
        assert summary["worst_crosstalk_db"] == pytest.approx(
            rows[:, 6].max(), abs=1e-12)

    def test_single_point_sweep(self, tmp_path):
        assert run("sweep", tmp_path, "--override", "sweep.n_points=1") == 0
        _, rows = read_csv(tmp_path / "sweep.csv")
        assert rows.shape[0] == 1
        assert rows[0, 0] == 1500.0


class TestFarfieldCommand:
    def test_folded_bright(self, tmp_path):
        assert run("farfield", tmp_path,
                   "--override", "farfield.n_points=801") == 0
        _, rows = read_csv(tmp_path / "farfield.csv")
        assert rows.shape == (801, 2)
        assert rows[:, 1].max() == 1.0
        summary = json.loads((tmp_path / "farfield_summary.json").read_text())
        assert summary["classification"] == "BRIGHT_CENTER"
        assert summary["emitter_positions_um"] == [0.0, 44.0]

    def test_fractional_dark(self, tmp_path):
        assert run("farfield", tmp_path,
                   "--override", "geometry.kind=fsap3",
                   "--override", "farfield.n_points=801") == 0
        summary = json.loads((tmp_path / "farfield_summary.json").read_text())
        assert summary["classification"] == "DARK_CENTER"


class TestDarkstateCommand:
    def test_columns_and_midpoint_row(self, tmp_path):
        assert run("darkstate", tmp_path,
                   "--override", "propagation.samples=11") == 0
        header, rows = read_csv(tmp_path / "darkstate.csv")
        assert header == ["z_um", "ev_1", "ev_2", "ev_3", "ev_4", "ev_5",
                          "dark_1", "dark_2", "dark_3", "dark_4", "dark_5",
                          "adiabaticity"]
        assert rows.shape[0] == 11
        mid = rows[5]
        assert mid[0] == 7500.0
        # equal couplings at the midpoint: eigenvalues 0, +-k, +-sqrt(3) k
        assert mid[3] == pytest.approx(0.0, abs=1e-12)
        expected = 1.0 / np.sqrt(3.0)
        assert abs(mid[6]) == pytest.approx(expected, abs=1e-9)
        assert abs(mid[8]) == pytest.approx(expected, abs=1e-9)
        assert abs(mid[10]) == pytest.approx(expected, abs=1e-9)
        assert mid[7] == 0.0 and mid[9] == 0.0
        assert mid[6] < 0 < mid[8]   # sign fixed on the central guide

    def test_endpoint_rows_match_facet_ratio(self, tmp_path):
        assert run("darkstate", tmp_path,
                   "--override", "propagation.samples=11") == 0
        _, rows = read_csv(tmp_path / "darkstate.csv")
        # residuals fixed by the 0.15 facet ratio, not smaller
        first, last = rows[0], rows[-1]
        r15 = 0.15 / np.sqrt(1 + 2 * 0.15 ** 2)
        assert abs(first[6]) == pytest.approx(r15, abs=1e-6)
        assert first[8] == pytest.approx(np.sqrt(1 - 2 * r15 ** 2), abs=1e-6)
        r3 = 0.15 / np.sqrt(2 + 0.15 ** 2)
        assert last[8] == pytest.approx(r3, abs=1e-6)

    def test_zero_angle_margin_column_zero(self, tmp_path):
        # a straight-guide layout has no facet ratio: decay length explicit
        assert run("darkstate", tmp_path,
                   "--override", "geometry.angle=0",
                   "--override", "coupling.delta_decay=4.14",
                   "--override", "propagation.samples=7") == 0
        _, rows = read_csv(tmp_path / "darkstate.csv")
        assert np.all(rows[:, 11] == 0.0)

    def test_rows_match_per_sample_supermodes(self, tmp_path):
        overrides = ["coupling.detuning=0.4", "propagation.wavelength=1610"]
        assert run("darkstate", tmp_path, "--override", overrides[0],
                   "--override", overrides[1],
                   "--override", "propagation.samples=13") == 0
        _, rows = read_csv(tmp_path / "darkstate.csv")
        cfg = load_config(None, overrides)
        layout = layout_from(cfg)
        model = model_from(cfg, layout)
        for row in rows:
            H = hamiltonian_at(layout, model, row[0], 1610.0).matrix
            assert np.allclose(row[1:6], eigensystem(H)[0],
                               rtol=0.0, atol=1e-14)
            assert np.allclose(row[6:11], dark_state(H), rtol=0.0, atol=1e-15)
            assert row[7] == 0.0 and row[9] == 0.0

    def test_zero_angle_without_decay_length_rejected(self, tmp_path):
        assert run("darkstate", tmp_path,
                   "--override", "geometry.angle=0") == 2


class TestOptimizeCommand:
    OPT = ["--override", "design.steps_alpha=1",
           "--override", "design.steps_separation=1",
           "--override", "design.steps_half_length=2",
           "--override", "design.band_points=3"]

    def test_ranked_csv_and_best_json(self, tmp_path):
        assert run("optimize", tmp_path, *self.OPT) == 0
        header, rows = read_csv(tmp_path / "optimize.csv")
        assert header[0] == "rank"
        assert rows.shape[0] == 2
        assert list(rows[:, 0]) == [1.0, 2.0]
        assert rows[0, 9] <= rows[1, 9]
        best = json.loads((tmp_path / "optimize_best.json").read_text())
        assert best["score"] == pytest.approx(rows[0, 9], abs=1e-12)

    def test_single_point_grid(self, tmp_path):
        assert run("optimize", tmp_path,
                   "--override", "design.steps_alpha=1",
                   "--override", "design.steps_separation=1",
                   "--override", "design.steps_half_length=1",
                   "--override", "design.band_points=3") == 0
        _, rows = read_csv(tmp_path / "optimize.csv")
        assert rows.shape[0] == 1
        assert rows[0, 0] == 1.0

    def test_refined_best_stays_in_the_box(self, tmp_path):
        # the refine polls half-length and facet ratio inside the design
        # bounds and keeps the grid best's angle and separation
        assert main(["optimize", "--out", str(tmp_path),
                     "--override", "design.refine_iters=40"]) == 0
        header, rows = read_csv(tmp_path / "optimize.csv")
        best = json.loads((tmp_path / "optimize_best.json").read_text())
        d = cfgmod.RunConfig().design
        bounds = {"alpha_deg": (d.alpha_min, d.alpha_max),
                  "separation_um": (d.separation_min, d.separation_max),
                  "half_length_um": (d.half_length_min, d.half_length_max),
                  "target_ratio": (d.ratio_min, d.ratio_max)}
        assert best["params"].keys() == bounds.keys()
        for name, (lo, hi) in bounds.items():
            assert lo <= best["params"][name] <= hi, name
        assert best["refined"] is True
        assert best["score"] <= rows[0, header.index("score")]
        # the poll lattice point the search ends on in 13 polls
        assert best["params"]["half_length_um"] == 8071.2890625

    def test_no_refine_without_a_valid_grid_best(self, tmp_path):
        # every candidate fails the geometry check, so there is nothing to
        # refine and optimize_best.json must not claim a refine ran
        assert run("optimize", tmp_path,
                   "--override", "design.alpha_min=0",
                   "--override", "design.alpha_max=0",
                   "--override", "design.refine_iters=5") == 0
        best = json.loads((tmp_path / "optimize_best.json").read_text())
        assert best["objectives"] is None and best["score"] is None
        assert best["refined"] is False


class TestCalibrateCommand:
    CAL = ["--override", "coupling.kappa_ref=auto",
           "--override", "coupling.crosstalk_target_db=-10",
           "--override", "coupling.kappa_min=0.4"]

    def test_writes_calibration_summary(self, tmp_path):
        assert run("calibrate", tmp_path, *self.CAL) == 0
        summary = json.loads((tmp_path / "calibrate.json").read_text())
        assert summary["delta_decay_um"] == pytest.approx(4.13995, abs=1e-5)
        assert summary["achieved_crosstalk_db"] <= -10.0
        assert summary["kappa_ref"] >= 0.4

    def test_calibration_failure_exit_code(self, tmp_path):
        code = run("calibrate", tmp_path,
                   "--override", "coupling.kappa_ref=auto",
                   "--override", "coupling.crosstalk_target_db=-90",
                   "--override", "coupling.kappa_min=0.05",
                   "--override", "coupling.kappa_max=0.06")
        assert code == 4


class TestDeterminism:
    @pytest.mark.parametrize("command,extra", [
        ("propagate", ()),
        ("sweep", ("--override", "sweep.n_points=3")),
        ("farfield", ("--override", "farfield.n_points=401")),
        ("darkstate", ("--override", "propagation.samples=9")),
    ])
    def test_byte_identical_reruns(self, tmp_path, command, extra):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert run(command, out1, *extra) == 0
        assert run(command, out2, *extra) == 0
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "sapsim", "propagate", "--out", str(tmp_path),
         *FAST],
        capture_output=True, text=True, env=SUBPROCESS_ENV)
    assert proc.returncode == 0
    assert (tmp_path / "propagate_summary.json").exists()


@pytest.mark.parametrize("override, code", [("propagation.samples=9", 0),
                                            ("coupling.kappa_ref=0", 2)])
def test_console_script_runs_like_the_module(tmp_path, override, code):
    # the function pyproject.toml installs as `sapsim`, run as the
    # generated script runs it, exits like `python -m sapsim`
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    module, function = target["sapsim"].split(":")
    script = (f"import sys\nfrom {module} import {function}\n"
              f"sys.exit({function}())\n")
    procs = [subprocess.run(
        [*launcher, "darkstate", "--out", str(tmp_path / str(i)),
         "--override", override],
        capture_output=True, text=True, timeout=30, env=SUBPROCESS_ENV)
        for i, launcher in enumerate([[sys.executable, "-c", script],
                                      [sys.executable, "-m", "sapsim"]])]
    assert [proc.returncode for proc in procs] == [code, code]
    assert procs[0].stderr == procs[1].stderr


def run_bounded(command, out, *overrides):
    """Run the CLI in a subprocess that must finish within 30 s."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "sapsim", command, "--out", str(out),
         *(arg for item in overrides for arg in ("--override", item))],
        capture_output=True, text=True, timeout=30,
        env=SUBPROCESS_ENV)
    assert time.monotonic() - start < 30.0
    assert "Traceback" not in proc.stderr
    return proc


@pytest.mark.parametrize("command, out, culprit", [
    ("propagate", "file", "file"),           # --out is an existing file
    ("darkstate", "file/sub", "file/sub"),   # --out lies under a file
    ("propagate", "dir", "dir/propagate.csv"),   # an output is a directory
])
def test_unusable_out_exits_2(tmp_path, command, out, culprit):
    (tmp_path / "file").write_text("")
    (tmp_path / "dir" / "propagate.csv").mkdir(parents=True)
    proc = run_bounded(command, tmp_path / out,
                       "propagation.samples=8", "propagation.rtol=1e-8")
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: --out {tmp_path / out}: ")
    assert proc.stderr.rstrip("\n").endswith(f"'{tmp_path / culprit}'")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("command", ["propagate", "sweep"])
def test_non_finite_coupling_exits_2(tmp_path, command):
    proc = run_bounded(command, tmp_path, "coupling.kappa_ref=nan")
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: coupling.kappa_ref:")


@pytest.mark.parametrize("override", ["coupling.delta_decay=0.001",
                                      "coupling.kappa_ref=1e300"])
def test_darkstate_without_a_dark_state_exits_3(tmp_path, override):
    # couplings that underflow to zero, or whose norm overflows
    proc = run_bounded("darkstate", tmp_path, override)
    assert proc.returncode == 3
    # one line: numpy's overflow warning on the way is not printed
    [line] = proc.stderr.splitlines()
    assert line.startswith("numerical failure: dark state undefined:")
    assert not (tmp_path / "darkstate.csv").exists()


@pytest.mark.parametrize("command", ["propagate", "sweep"])
def test_overflowing_rhs_exits_3(tmp_path, command):
    # finite coupling, but i H a overflows: the step size underflows
    proc = run_bounded(command, tmp_path, "coupling.kappa_ref=1e300")
    assert proc.returncode == 3
    # one line: numpy's overflow warnings on the way are not printed
    [line] = proc.stderr.splitlines()
    assert line.startswith("numerical failure:")
    assert line.endswith("Required step size is less than spacing between "
                         "numbers.")


def test_step_budget_ends_a_fast_detuning(tmp_path):
    # a detuning of 1e5 /mm would take millions of steps (hours); the
    # step budget ends it in seconds
    start = time.monotonic()
    proc = run_bounded("propagate", tmp_path, "coupling.detuning=1e5")
    assert time.monotonic() - start < 10.0
    assert proc.returncode == 3
    [line] = proc.stderr.splitlines()
    assert line.startswith("numerical failure: propagation failed at lam = ")
    assert "step budget" in line
    assert not (tmp_path / "propagate.csv").exists()


@pytest.mark.parametrize("command", ["darkstate", "optimize"])
def test_subnormal_couplings_exit_3(tmp_path, command):
    # the couplings are subnormal, so the dark-state norm underflows
    proc = run_bounded(command, tmp_path, "coupling.kappa_ref=1e-320")
    assert proc.returncode == 3
    [line] = proc.stderr.splitlines()
    assert line.startswith("numerical failure: dark state undefined: "
                           "coupling norm is not a normal float")
    assert not any(tmp_path.iterdir())


def test_farfield_without_emitted_light_exits_3(tmp_path):
    # no coupling: all light stays in the central guide, which is either
    # left out of the emitters or (above the default cutoff) the only lit
    # one; no split, so no far field is classified
    for cutoff in ("1", "0.05"):
        proc = run_bounded("farfield", tmp_path, "coupling.kappa_ref=0",
                           f"farfield.include_central_above={cutoff}")
        assert proc.returncode == 3
        [line] = proc.stderr.splitlines()
        assert line == ("numerical failure: fewer than two emitters carry "
                        "light at lam = 1560.0 nm")
        assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("override", ["coupling.resolution=1e-9",
                                      "coupling.resolution=5e-324",
                                      "coupling.kappa_min=5e-324"])
def test_calibration_grid_faults_exit_4(tmp_path, override):
    # a grid of about 6e9 points, or one whose points cannot grow: rejected
    # before the scan instead of scanning for hours or forever
    proc = run_bounded("calibrate", tmp_path, override)
    assert proc.returncode == 4
    [line] = proc.stderr.splitlines()
    assert line.startswith("calibration failure: grid from kappa_min = ")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["propagate", "sweep", "farfield",
                                     "darkstate", "calibrate"])
def test_underflowing_target_ratio_exits_4(tmp_path, capsys, command):
    # 1 / target_ratio overflows, so the decay length would be 0 um
    # (optimize takes its ratios from design.ratio_min/max instead)
    assert main([command, "--out", str(tmp_path),
                 "--override", "coupling.target_ratio=5e-324"]) == 4
    [line] = capsys.readouterr().err.splitlines()
    assert line == ("calibration failure: target_ratio 5e-324 gives decay "
                    "length 0.0 um")
    assert not any(tmp_path.iterdir())


def test_device_shorter_than_a_float_mm_exits_3(tmp_path, capsys):
    # z_end = 1e-323 um is 0 mm: the one-system solve has no span. The
    # batched one (sweep) steps in units of z_end, where it has one, and
    # still fails as the one-system route does, naming its first member.
    for command, lam in (("propagate", 1550.0), ("sweep", 1500.0)):
        assert run(command, tmp_path, "--override", "coupling.delta_decay=4",
                   "--override", "geometry.half_length=5e-324") == 3
        [line] = capsys.readouterr().err.splitlines()
        assert line == ("numerical failure: device length 1e-323 um is 0 mm "
                        f"in floating point at lam = {lam} nm")
        assert not any(tmp_path.iterdir())


def run_recording(command, out, capsys, *overrides):
    """Run the CLI in-process; return the exit code and the stderr lines,
    each warning counted as the line it would print."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--out", str(out),
                     *(arg for item in overrides
                       for arg in ("--override", item))])
    lines = capsys.readouterr().err.splitlines()
    return code, lines + [f"{w.category.__name__}: {w.message}"
                          for w in caught]


@pytest.mark.parametrize("command,overrides", [
    ("propagate", ["coupling.delta_decay=5e-324"]),
    ("propagate", ["coupling.delta_decay=1e-300"]),
    ("sweep", ["coupling.delta_decay=5e-324"]),
    ("sweep", ["coupling.delta_decay=1e-300"]),
    ("darkstate", ["coupling.delta_decay=5e-324"]),
    ("darkstate", ["coupling.delta_decay=1e-300"]),
    # overflows in the dense-output stages
    ("propagate", ["coupling.detuning=-1e300", "coupling.target_ratio=1e-300"]),
])
def test_overflow_fails_without_warnings(tmp_path, capsys, command,
                                         overrides):
    code, lines = run_recording(command, tmp_path, capsys, *overrides)
    assert code == 3
    [line] = lines
    assert line.startswith("numerical failure: ")


def test_huge_waist_runs_without_warnings(tmp_path, capsys):
    assert run_recording("farfield", tmp_path, capsys,
                         "farfield.waist=1e300") == (0, [])


def strict_json(path):
    """The JSON file at ``path``; NaN or Infinity in it fails the test."""
    def reject(constant):
        raise AssertionError(f"{path.name} holds non-standard {constant}")
    return json.loads(path.read_text(), parse_constant=reject)


@pytest.mark.parametrize("command,overrides,name,field,expected", [
    # no light reaches the outputs: their power split is undefined
    ("propagate", ["coupling.kappa_ref=0"], "propagate_summary.json",
     ("final", "pair_fractions"), [None, None]),
    ("sweep", ["coupling.kappa_ref=0"], "sweep_summary.json",
     ("mean_pair_fractions",), [None, None]),
    # fewer than two maxima on a narrow angle grid
    ("farfield", ["farfield.theta_max=1e-4"], "farfield_summary.json",
     ("fringe_spacing_rad",), None),
    # every candidate invalid: the best scores infinite
    ("optimize", ["design.alpha_min=0", "design.alpha_max=0",
                  "design.steps_alpha=1"], "optimize_best.json",
     ("score",), None),
])
def test_undefined_numbers_are_json_null(tmp_path, command, overrides, name,
                                         field, expected):
    assert main([command, "--out", str(tmp_path),
                 *(arg for item in overrides
                   for arg in ("--override", item))]) == 0
    value = strict_json(tmp_path / name)
    for key in field:
        value = value[key]
    assert value == expected


def test_optimize_marks_zero_angle_invalid(tmp_path):
    # alpha = 0 gives equal facet separations, which calibration rejects:
    # those candidates are invalid rows, the rest of the grid still runs
    proc = run_bounded("optimize", tmp_path, "design.alpha_min=0",
                       "design.steps_separation=1",
                       "design.steps_half_length=1", "design.band_points=3")
    assert proc.returncode == 0, proc.stderr
    header, rows = read_csv(tmp_path / "optimize.csv")
    alpha, valid = rows[:, header.index("alpha_deg")], \
        rows[:, header.index("valid")]
    assert (alpha == 0).any() and (valid[alpha == 0] == 0).all()
    assert (valid == 1).any()


@pytest.mark.parametrize("key,overrides", [
    ("design.budget", ["design.budget=1"]),
    ("design.w_", [f"design.w_{name}=0" for name in
                   ("crosstalk", "imbalance", "length", "adiabaticity")]),
    ("coupling.kappa_ref", ["coupling.kappa_ref=0", "design.steps_alpha=1",
                            "design.steps_separation=1",
                            "design.steps_half_length=1"]),
])
def test_optimize_config_faults_exit_2(tmp_path, key, overrides):
    proc = run_bounded("optimize", tmp_path, *overrides)
    assert proc.returncode == 2
    [line] = proc.stderr.splitlines()
    assert line.startswith(f"config error: {key}")
    assert not any(tmp_path.iterdir())


def test_import_does_not_load_the_integrator(tmp_path):
    # sapsim needs scipy for its tests only: neither importing it, nor any
    # command, nor a refined optimize may load a scipy module (its ODE
    # package alone is about 0.6 s of cold start)
    small_grid = [arg for item in ("design.steps_alpha=1",
                                   "design.steps_separation=2",
                                   "design.steps_half_length=2",
                                   "design.band_points=3")
                  for arg in ("--override", item)]
    script = (
        "import sys, sapsim\n"
        "def scipy_loaded():\n"
        "    print(any(name.split('.')[0] == 'scipy' for name in sys.modules))\n"
        "scipy_loaded()\n"
        "from sapsim.cli import main\n"
        f"fast, out = {FAST + small_grid!r}, {str(tmp_path)!r}\n"
        f"for command in {COMMANDS!r}:\n"
        "    assert main([command, '--out', out, *fast]) == 0\n"
        "scipy_loaded()\n"
        "assert main(['optimize', '--out', out, *fast,\n"
        "             '--override', 'design.refine_iters=5']) == 0\n"
        "scipy_loaded()\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120,
                          env=SUBPROCESS_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "False"]
    best = json.loads((tmp_path / "optimize_best.json").read_text())
    assert best["refined"] is True


NUMERIC_KEYS = [
    f"{section}.{key}"
    for section, keys in cfgmod.SECTIONS.items()
    for key, (_, domain) in keys.items() if not isinstance(domain[0], str)
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", NUMERIC_KEYS)
def test_non_finite_override_is_a_config_error(tmp_path, capsys, key, value):
    assert main(["propagate", "--out", str(tmp_path),
                 "--override", f"{key}={value}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}:")
    assert "Traceback" not in err


@pytest.mark.parametrize("key,bound", COUNT_BOUNDS)
def test_over_bound_count_is_a_config_error(tmp_path, capsys, key, bound):
    assert main(["darkstate", "--out", str(tmp_path),
                 "--override", f"{key}={bound + 1}"]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}:")
    assert not any(tmp_path.iterdir())


def test_decay_length_sign_checked_at_config_time(tmp_path, capsys):
    assert run("sweep", tmp_path, "--override", "coupling.rho=200") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: coupling.rho:")
    assert "sweep.lambda_min = 1500.0 nm" in err


def test_darkstate_needs_coupling(tmp_path, capsys):
    assert run("darkstate", tmp_path, "--override", "coupling.kappa_ref=0") == 2
    assert capsys.readouterr().err.startswith(
        "config error: coupling.kappa_ref:")


COMMANDS = ["propagate", "sweep", "farfield", "darkstate", "optimize",
            "calibrate"]
# NaN, +-inf, booleans and over-bound counts have their own tests above
FUZZ_VALUES = ["0", "-1", "5e-324", "1e-300", "1e300", "-1e300"]
# the one warning a run may print: an rtol below 100 eps is raised to it
RTOL_WARNING = "UserWarning: rtol too small"

# Inputs that once ended in a traceback, a hang, a warning on stderr, a
# misclassified far field or non-standard JSON; each runs on every pass.
NAMED_INPUTS = [
    ("farfield", ["coupling.kappa_ref=0"]),
    ("farfield", ["coupling.kappa_ref=0", "farfield.include_central_above=1"]),
    ("calibrate", ["coupling.resolution=1e-9"]),
    ("calibrate", ["coupling.resolution=5e-324"]),
    ("calibrate", ["coupling.kappa_min=5e-324"]),
    *((command, ["coupling.target_ratio=5e-324"]) for command in COMMANDS),
    *((command, ["coupling.delta_decay=4", "geometry.half_length=5e-324"])
      for command in COMMANDS),
    *((command, [f"coupling.delta_decay={value}"])
      for command in ("propagate", "sweep", "darkstate")
      for value in ("5e-324", "1e-300")),
    ("propagate", ["coupling.detuning=-1e300", "coupling.target_ratio=1e-300"]),
    ("farfield", ["farfield.waist=1e300"]),
    ("propagate", ["coupling.kappa_ref=0"]),
    ("sweep", ["coupling.kappa_ref=0"]),
    ("farfield", ["farfield.theta_max=1e-4"]),
    ("optimize", ["design.alpha_min=0", "design.alpha_max=0",
                  "design.steps_alpha=1"]),
    ("darkstate", ["geometry.half_length=5e-324",
                   "coupling.delta_decay=5e-324"]),
    ("farfield", ["farfield.wavelength=5e-324", "coupling.rho=0"]),
    ("farfield", ["farfield.waist=1e5", "farfield.n_points=4"]),
]


def with_named_inputs(test):
    for command, overrides in NAMED_INPUTS:
        test = example(command=command, overrides=overrides)(test)
    return test


@with_named_inputs
@given(command=st.sampled_from(COMMANDS),
       overrides=st.lists(st.tuples(st.sampled_from(NUMERIC_KEYS),
                                    st.sampled_from(FUZZ_VALUES)),
                          min_size=1, max_size=2, unique_by=lambda kv: kv[0])
       .map(lambda pairs: [f"{key}={value}" for key, value in pairs]))
@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_input_ends_in_a_documented_exit(capsys, command, overrides):
    # exit 0/2/3/4 within 30 s, no traceback (an exception escaping main
    # fails the test), one stderr line on failure, none on success, and
    # standard JSON
    with tempfile.TemporaryDirectory() as out:
        start = time.monotonic()
        code, lines = run_recording(command, out, capsys, *overrides)
        assert time.monotonic() - start < 30.0
        assert code in (0, 2, 3, 4)
        lines = [line for line in lines if not line.startswith(RTOL_WARNING)]
        assert len(lines) == (code != 0), lines
        for path in Path(out).glob("*.json"):
            strict_json(path)
