"""Coupled-mode simulator and design toolkit for spatial-adiabatic-passage
integrated beam splitters. Past the integration core, each name and
submodule below loads on first use (PEP 562): a command loads what it runs."""

from importlib import import_module as _import_module

# The integration core (propagator, dop853, coupling, geometry, errors),
# which every command uses, loads with the package: compiled before anything
# else is alive, it leaves a smaller peak memory than compiled later.
from . import propagator

# module -> the public names it provides here
_PUBLIC = {
    "errors": "CalibrationError ConfigError GeometryError IntegrationError "
              "SapsimError",
    "geometry": "ArrayLayout GeometrySpec Kind WaveguidePath build_fsap3 "
                "build_folded5 build_layout build_sap3",
    "coupling": "CouplingModel calibrate_decay calibrate_strength "
                "calibrated_model",
    "propagator": "Hamiltonian IntegratorStats PropagationOptions StateVector "
                  "Trajectory backpropagate_check hamiltonian_at "
                  "nominal_input propagate propagate_batch propagate_oracle "
                  "unit_state",
    "analysis": "AdiabaticityProfile SplitReport adiabaticity_margin "
                "dark_state eigensystem loss_corrected_transfer split_report",
    "spectral": "ScanEntry SpectralCurve SpectralSummary robustness_scan "
                "sweep_wavelength wavelength_grid",
    "farfield": "FarFieldPattern Fringe classify_fringe facet_emitters "
                "farfield_pattern",
    "design": "CandidateParams DesignCandidate ObjectiveConfig "
              "ObjectiveWeights Objectives ParameterBounds evaluate_candidate "
              "grid_search refine_local",
}
_HOME = {name: module for module, names in _PUBLIC.items()
         for name in names.split()}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    # never stored here, so a name is always what its module binds now
    if name in _HOME:
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _PUBLIC or name == "dop853":
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_PUBLIC, "dop853"})
