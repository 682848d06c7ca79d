"""Shared fixtures: the reference splitter geometry and calibrated model.

The reference device: 2L = 1.5 cm, s = 22 um center-to-center, alpha =
0.03 deg, width 6 um, facet coupling ratio 0.15, operating coupling
kappa_ref = 0.7175 /mm at 1550 nm. Expensive artifacts are session-scoped.
"""

import math
import os
from pathlib import Path

import pytest

import sapsim
from sapsim import (PropagationOptions, build_folded5, build_fsap3, build_sap3,
                    calibrated_model, nominal_input, propagate)

HALF_LENGTH = 7500.0
SEPARATION = 22.0
ANGLE = 0.03
WIDTH = 6.0
TARGET_RATIO = 0.15
KAPPA_REF = 0.7175
LAM0 = 1550.0
BAND = (1500.0, 1630.0, 27)

# Documented upper bounds of the count keys: each at least 50x the largest
# value a shipped config, test or benchmark uses.
COUNT_BOUNDS = [
    ("propagation.samples", 100_000),
    ("sweep.n_points", 10_000),
    ("farfield.n_points", 1_000_000),
    ("design.steps_alpha", 1000),
    ("design.steps_separation", 1000),
    ("design.steps_half_length", 1000),
    ("design.steps_ratio", 1000),
    ("design.band_points", 1000),
    ("design.refine_iters", 10_000),
    ("design.budget", 100_000),
]

# Batched propagation (propagate_batch) and one propagate per system agree
# on final amplitudes to within this at the default tolerances. Measured
# max |da|: 7.8e-12 over the 27-point folded5 sweep, 9.8e-12 over the 45
# (design, wavelength) systems of the default design grid, 3.3e-11 over
# 60 randomly drawn sap3/fsap3/folded5 devices with detuning. It bounds
# fixed devices only: a rare drawn batch differs by 1.23e-10, so
# test_batch.py checks each route against an rtol 1e-13 solve instead.
BATCH_DA = 1e-10

# CLI subprocesses import the sapsim these tests import, installed or not
SUBPROCESS_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
    str(Path(sapsim.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}

TAN_ALPHA = math.tan(math.radians(ANGLE))
LATERAL_TRAVEL = 2 * HALF_LENGTH * TAN_ALPHA          # 7.854 um
D_NEAR = SEPARATION / 2 - HALF_LENGTH * TAN_ALPHA     # 7.073 um
D_FAR = SEPARATION / 2 + HALF_LENGTH * TAN_ALPHA      # 14.927 um
DELTA0 = LATERAL_TRAVEL / math.log(1.0 / TARGET_RATIO)  # 4.13995 um


@pytest.fixture(scope="session")
def sap3_ref():
    return build_sap3(HALF_LENGTH, SEPARATION, ANGLE, WIDTH)


@pytest.fixture(scope="session")
def fsap3_ref():
    return build_fsap3(HALF_LENGTH, SEPARATION, ANGLE, WIDTH, 1.0)


@pytest.fixture(scope="session")
def folded5_ref():
    return build_folded5(HALF_LENGTH, SEPARATION, ANGLE, WIDTH)


@pytest.fixture(scope="session")
def model_ref(folded5_ref):
    return calibrated_model(folded5_ref, TARGET_RATIO, KAPPA_REF, LAM0)


@pytest.fixture(scope="session")
def model_sap3(sap3_ref):
    return calibrated_model(sap3_ref, TARGET_RATIO, KAPPA_REF, LAM0)


@pytest.fixture(scope="session")
def final_ref(folded5_ref, model_ref):
    """Reference device output at 1550 nm."""
    traj = propagate(folded5_ref, model_ref, LAM0,
                     nominal_input(folded5_ref, LAM0))
    return traj.final


@pytest.fixture(scope="session")
def fast_opts():
    return PropagationOptions(rtol=1e-8, atol=1e-10)
