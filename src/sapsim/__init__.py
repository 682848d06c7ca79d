"""Coupled-mode simulator and design toolkit for spatial-adiabatic-passage
integrated beam splitters."""

from .errors import (CalibrationError, ConfigError, GeometryError,
                     IntegrationError, SapsimError)
from .geometry import (ArrayLayout, GeometrySpec, Kind, WaveguidePath,
                       build_fsap3, build_folded5, build_layout, build_sap3)
from .coupling import (CouplingModel, calibrate_decay, calibrate_strength,
                       calibrated_model)
from .propagator import (Hamiltonian, IntegratorStats, PropagationOptions,
                         StateVector, Trajectory, backpropagate_check,
                         hamiltonian_at, nominal_input, propagate,
                         propagate_batch, propagate_oracle, unit_state)
from .analysis import (AdiabaticityProfile, SplitReport,
                       adiabaticity_margin, dark_state, eigensystem,
                       loss_corrected_transfer, split_report)
from .spectral import (ScanEntry, SpectralCurve, SpectralSummary,
                       robustness_scan, sweep_wavelength, wavelength_grid)
from .farfield import (FarFieldPattern, Fringe, classify_fringe,
                       facet_emitters, farfield_pattern)
from .design import (CandidateParams, DesignCandidate, ObjectiveConfig,
                     ObjectiveWeights, Objectives, ParameterBounds,
                     evaluate_candidate, grid_search, refine_local)

__version__ = "0.1.0"
