"""Every path that builds a record validates it, and the records keep the
equality and hashing their callers rely on."""

import math

import pytest

from sapsim import (ArrayLayout, CandidateParams, CouplingModel,
                    DesignCandidate, IntegrationError, ObjectiveWeights,
                    ParameterBounds, PropagationOptions, WaveguidePath,
                    nominal_input, propagate, robustness_scan, split_report)
from sapsim.errors import GeometryError

from conftest import LAM0


class TestValidation:
    def test_scaled_to_a_negative_strength_raises(self, model_ref):
        with pytest.raises(ValueError, match="kappa_ref must be non-negative"):
            model_ref.scaled(-1)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(kappa_ref=-1.0), "kappa_ref must be non-negative"),
        (dict(delta_decay=0.0), "delta_decay must be positive"),
        (dict(lambda0=-1.0), "lambda0 must be positive")])
    def test_constructor_rejects(self, kwargs, message):
        args = dict(kappa_ref=0.7, d_ref=7.0, delta_decay=4.0, lambda0=LAM0)
        with pytest.raises(ValueError, match=message):
            CouplingModel(**{**args, **kwargs})

    @pytest.mark.parametrize("field", ["kappa_ref", "d_ref", "delta_decay",
                                       "lambda0", "rho", "detuning"])
    def test_nan_field_raises_when_propagated(self, folded5_ref, model_ref,
                                              field):
        values = {name: getattr(model_ref, name) for name in
                  ("kappa_ref", "d_ref", "delta_decay", "lambda0", "rho",
                   "detuning")}
        model = CouplingModel(**{**values, field: math.nan})
        with pytest.raises(IntegrationError):
            propagate(folded5_ref, model, LAM0,
                      nominal_input(folded5_ref, LAM0))

    def test_scan_marks_a_negative_strength_invalid(self, folded5_ref,
                                                    model_ref):
        entries = robustness_scan(folded5_ref, model_ref, "kappa_ref",
                                  [-1.0, 0.7175], LAM0)
        assert [e.valid for e in entries] == [False, True]
        assert entries[0].report is None
        assert entries[0].note == "kappa_ref must be non-negative"
        assert entries[1].note == ""

    @pytest.mark.parametrize("kwargs", [dict(rtol=math.nan),
                                        dict(atol=math.nan)])
    def test_nan_tolerance_raises(self, kwargs):
        with pytest.raises(ValueError):
            PropagationOptions(**kwargs)

    def test_steep_path_raises(self):
        with pytest.raises(GeometryError, match="exceeds"):
            WaveguidePath(0.0, 0.1, 2)

    def test_rescale_by_zero_raises(self, folded5_ref):
        with pytest.raises(GeometryError):
            folded5_ref.spec.rescaled(0.0)

    @pytest.mark.parametrize("weights", [(-1.0, 1.0, 1.0, 1.0),
                                         (0.0, 0.0, 0.0, 0.0)])
    def test_bad_weights_raise(self, weights):
        with pytest.raises(ValueError):
            ObjectiveWeights(*weights)


def test_replace_validates(model_ref):
    # a record's _replace builds through its constructor, so it validates
    with pytest.raises(ValueError, match="kappa_ref must be non-negative"):
        model_ref._replace(kappa_ref=-1.0)
    with pytest.raises(ValueError):
        PropagationOptions()._replace(rtol=math.nan)
    with pytest.raises(GeometryError):
        WaveguidePath(0.0, 0.0, 1)._replace(slope=1.0)
    with pytest.raises(ValueError):
        ObjectiveWeights()._replace(crosstalk=-1.0)
    assert model_ref._replace(rho=0.5).rho == 0.5


def test_value_records_compare_and_hash_by_value(model_ref):
    twin = CouplingModel(model_ref.kappa_ref, model_ref.d_ref,
                         model_ref.delta_decay, model_ref.lambda0,
                         model_ref.rho, model_ref.detuning)
    assert twin == model_ref and hash(twin) == hash(model_ref)
    assert ParameterBounds() == ParameterBounds()
    assert PropagationOptions() == PropagationOptions(1e-10, 1e-12)


def test_layouts_compare_and_hash_by_identity(folded5_ref):
    twin = ArrayLayout(folded5_ref.paths, folded5_ref.z_end_um,
                       folded5_ref.width_um, folded5_ref.kind,
                       folded5_ref.spec)
    assert twin != folded5_ref and twin == twin
    assert hash(twin) != hash(folded5_ref)


def test_array_records_compare_by_identity(folded5_ref, model_ref):
    a = propagate(folded5_ref, model_ref, LAM0).final
    b = propagate(folded5_ref, model_ref, LAM0).final
    assert a == a and a != b     # no elementwise comparison of arrays


def test_candidates_compare_by_value():
    p = CandidateParams(0.03, 22.0, 7500.0, 0.15)
    assert DesignCandidate(p, None, math.inf, False, "x") \
        == DesignCandidate(CandidateParams(*p.as_tuple()), None, math.inf,
                           False, "x")


def test_records_show_their_fields(folded5_ref, model_ref):
    report = split_report(propagate(folded5_ref, model_ref, LAM0).final,
                          folded5_ref.kind)
    assert repr(report).startswith("SplitReport(fractions=array([")
    assert "crosstalk_db=" in repr(report)
    assert repr(folded5_ref).startswith(
        "ArrayLayout(paths=(WaveguidePath(x0=0.0, slope=0.0, label=1), ")
    assert "__dict__" not in repr(folded5_ref)
    assert repr(model_ref).startswith("CouplingModel(kappa_ref=0.7175, ")
