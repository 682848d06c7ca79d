"""A command loads only the modules it runs, and ``import sapsim`` resolves
every public name on first use."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import sapsim

from conftest import SUBPROCESS_ENV

ROOT = Path(__file__).resolve().parent.parent

# The names the package exported when it imported every submodule eagerly,
# by the module that defines them.
EXPORTED = {
    "errors": ["CalibrationError", "ConfigError", "GeometryError",
               "IntegrationError", "SapsimError"],
    "geometry": ["ArrayLayout", "GeometrySpec", "Kind", "WaveguidePath",
                 "build_fsap3", "build_folded5", "build_layout", "build_sap3"],
    "coupling": ["CouplingModel", "calibrate_decay", "calibrate_strength",
                 "calibrated_model"],
    "propagator": ["Hamiltonian", "IntegratorStats", "PropagationOptions",
                   "StateVector", "Trajectory", "backpropagate_check",
                   "hamiltonian_at", "nominal_input", "propagate",
                   "propagate_batch", "propagate_oracle", "unit_state"],
    "analysis": ["AdiabaticityProfile", "SplitReport", "adiabaticity_margin",
                 "dark_state", "eigensystem", "loss_corrected_transfer",
                 "split_report"],
    "spectral": ["ScanEntry", "SpectralCurve", "SpectralSummary",
                 "robustness_scan", "sweep_wavelength", "wavelength_grid"],
    "farfield": ["FarFieldPattern", "Fringe", "classify_fringe",
                 "facet_emitters", "farfield_pattern"],
    "design": ["CandidateParams", "DesignCandidate", "ObjectiveConfig",
               "ObjectiveWeights", "Objectives", "ParameterBounds",
               "evaluate_candidate", "grid_search", "refine_local"],
}
NAMES = [(module, name) for module, names in EXPORTED.items()
         for name in names]

FAST = ["--override", "propagation.rtol=1e-8",
        "--override", "propagation.atol=1e-10",
        "--override", "propagation.samples=24",
        "--override", "sweep.n_points=3",
        "--override", "farfield.n_points=101"]
WATCHED = ("sapsim.design", "sapsim.spectral", "sapsim.farfield",
           "configparser")


def loaded_by(tmp_path, *argv):
    """The WATCHED modules a fresh process has loaded after one command."""
    script = (
        "import json, sys\n"
        "from sapsim.cli import main\n"
        f"assert main({[*argv, '--out', str(tmp_path), *FAST]!r}) == 0\n"
        f"print(json.dumps([m for m in {WATCHED!r} if m in sys.modules]))\n")
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=60,
                          env=SUBPROCESS_ENV)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


@pytest.mark.parametrize("argv, absent", [
    (["propagate"], WATCHED),
    (["darkstate", "--config", "configs/fsap3_diced.json"], WATCHED),
    (["calibrate"], WATCHED),
    (["sweep", "--config", "configs/fsap3_diced.json"],
     ("sapsim.design", "sapsim.farfield", "configparser")),
    (["farfield", "--config", "configs/fsap3_diced.json"],
     ("sapsim.design", "sapsim.spectral", "configparser")),
])
def test_command_loads_only_what_it_runs(tmp_path, argv, absent):
    assert loaded_by(tmp_path, *argv).isdisjoint(absent)


def test_ini_config_loads_configparser(tmp_path):
    # the check above can see configparser when it is loaded
    loaded = loaded_by(tmp_path, "propagate", "--config", "configs/folded5.ini")
    assert loaded == {"configparser"}


def test_import_loads_only_the_integration_core():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, sapsim\n"
         "print(' '.join(sorted(m for m in sys.modules\n"
         "                      if m.startswith('sapsim'))))"],
        capture_output=True, text=True, timeout=60, env=SUBPROCESS_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "sapsim", "sapsim.coupling", "sapsim.dop853", "sapsim.errors",
        "sapsim.geometry", "sapsim.propagator"]


@pytest.mark.parametrize("module, name", NAMES)
def test_exported_name_resolves(module, name):
    expected = getattr(importlib.import_module(f"sapsim.{module}"), name)
    assert getattr(sapsim, name) is expected
    namespace = {}
    exec(f"from sapsim import {name}", namespace)
    assert namespace[name] is expected
    assert name in dir(sapsim)


def test_star_import_gives_every_exported_name():
    namespace = {}
    exec("from sapsim import *", namespace)
    assert {name for _, name in NAMES} <= namespace.keys()


def test_submodules_resolve_as_attributes():
    for module in (*EXPORTED, "dop853"):
        assert getattr(sapsim, module) is sys.modules[f"sapsim.{module}"]
        assert module in dir(sapsim)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        sapsim.no_such_name
    with pytest.raises(ImportError):
        exec("from sapsim import no_such_name", {})
    assert not hasattr(sapsim, "cli_main")
