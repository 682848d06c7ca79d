import inspect
import json
import math
import re
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path

import pytest

from sapsim import (ConfigError, CouplingModel, Kind, ObjectiveConfig,
                    ObjectiveWeights, ParameterBounds, PropagationOptions,
                    calibrate_strength, facet_emitters, farfield_pattern,
                    grid_search)
from sapsim.config import (DEFAULT_KAPPA_REF, SECTIONS, RunConfig,
                           geometry_spec, layout_from, load_config, model_from,
                           objective_from, propagation_options)

from conftest import COUNT_BOUNDS

ROOT = Path(__file__).resolve().parent.parent

INI_SAMPLE = """
[geometry]
kind = fsap3
half_length = 7000
cut_fraction = 0.9

[coupling]
kappa_ref = auto
crosstalk_target_db = -18

[sweep]
n_points = 5
"""

JSON_SAMPLE = json.dumps({
    "geometry": {"kind": "fsap3", "half_length": 7000, "cut_fraction": 0.9},
    "coupling": {"kappa_ref": "auto", "crosstalk_target_db": -18},
    "sweep": {"n_points": 5},
})


class TestParsing:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg.geometry.kind == "folded5"
        assert cfg.geometry.half_length == 7500.0
        assert cfg.coupling.kappa_ref == DEFAULT_KAPPA_REF
        assert cfg.sweep.n_points == 27
        assert cfg.propagation.rtol == 1e-10

    def test_ini_and_json_equivalent(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(INI_SAMPLE)
        js = tmp_path / "run.json"
        js.write_text(JSON_SAMPLE)
        assert load_config(ini) == load_config(js)

    def test_ini_values_applied(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(INI_SAMPLE)
        cfg = load_config(path)
        assert cfg.geometry.kind == "fsap3"
        assert cfg.geometry.half_length == 7000.0
        assert cfg.geometry.cut_fraction == 0.9
        assert cfg.coupling.kappa_ref == "auto"
        assert cfg.sweep.n_points == 5

    def test_unknown_key_names_path(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[geometry]\nbogus = 1\n")
        with pytest.raises(ConfigError, match=r"geometry\.bogus: unknown key"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[laser]\npower = 1\n")
        with pytest.raises(ConfigError, match="laser"):
            load_config(path)

    def test_type_error_names_path(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[geometry]\nhalf_length = long\n")
        with pytest.raises(ConfigError, match=r"geometry\.half_length"):
            load_config(path)

    def test_integer_keys_reject_fractions(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"sweep": {"n_points": 5.5}}))
        with pytest.raises(ConfigError, match=r"sweep\.n_points"):
            load_config(path)

    @pytest.mark.parametrize("section,key,value", [
        ("sweep", "n_points", float("nan")),
        ("sweep", "n_points", float("inf")),
        ("geometry", "half_length", float("-inf")),
        ("coupling", "kappa_ref", float("nan")),
    ])
    def test_json_non_finite_numbers_rejected(self, tmp_path, section, key,
                                              value):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({section: {key: value}}))  # NaN, Infinity
        with pytest.raises(ConfigError,
                           match=rf"{section}\.{key}: must be a finite number"):
            load_config(path)

    @pytest.mark.parametrize("section,key,value", [
        ("farfield", "include_central_above", False),
    ] + [(section, key, True) for section, keys in SECTIONS.items()
         for key, (_, domain) in keys.items()
         if not isinstance(domain[0], str)])
    def test_json_booleans_are_not_numbers(self, tmp_path, section, key,
                                           value):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({section: {key: value}}))
        with pytest.raises(ConfigError,
                           match=rf"^{section}\.{key}: expected .*, got "
                                 rf"{value}$"):
            load_config(path)

    @pytest.mark.parametrize("text,message", [
        ('{"geometry": {"half_length": 5000, "half_length": 6000}}',
         "geometry.half_length: duplicate key"),
        ('{"geometry": {"kind": "sap3"}, "sweep": {}, "geometry": {}}',
         "geometry: duplicate section"),
    ], ids=["key", "section"])
    def test_json_duplicates_rejected(self, tmp_path, text, message):
        # json.loads would keep the last value; INI already rejects both
        path = tmp_path / "run.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=rf"^{re.escape(message)}$"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.ini")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{broken")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_shipped_example_configs_load(self):
        root = ROOT / "configs"
        folded = load_config(root / "folded5.ini")
        assert folded.geometry.kind == "folded5"
        assert folded.propagation.wavelength == 1540.0
        diced = load_config(root / "fsap3_diced.json")
        assert diced.geometry.kind == "fsap3"
        assert diced.geometry.cut_fraction == 0.9


def bounded_ends():
    """(key path, bound, the next value outside it, the bound's operator)
    for each bounded end of each numeric key of the schema."""
    for section, keys in SECTIONS.items():
        for name, (default, domain) in keys.items():
            if isinstance(domain[0], str):
                continue
            lo, hi, flags = domain
            for bound, side, op in (
                    (lo, -1, ">" if "open_lo" in flags else ">="),
                    (hi, 1, "<" if "open_hi" in flags else "<=")):
                if bound is None:
                    continue
                outside = bound + side if isinstance(default, int) \
                    else math.nextafter(bound, side * math.inf)
                yield f"{section}.{name}", bound, outside, op


BOUNDED_ENDS = list(bounded_ends())


class TestOverridesAndValidation:
    def test_override_applies(self):
        cfg = load_config(None, ["geometry.kind=sap3",
                                 "propagation.wavelength=1540"])
        assert cfg.geometry.kind == "sap3"
        assert cfg.propagation.wavelength == 1540.0

    def test_override_bad_syntax(self):
        with pytest.raises(ConfigError):
            load_config(None, ["geometry.kind"])
        with pytest.raises(ConfigError):
            load_config(None, ["kind=sap3"])

    @pytest.mark.parametrize("override,path", [
        ("geometry.kind=ring", "geometry.kind"),
        ("geometry.cut_fraction=2.5", "geometry.cut_fraction"),
        ("geometry.angle=10", "geometry.angle"),
        ("coupling.target_ratio=1.5", "coupling.target_ratio"),
        ("coupling.crosstalk_target_db=5", "coupling.crosstalk_target_db"),
        ("sweep.n_points=0", "sweep.n_points"),
        ("sweep.lambda_min=1700", "sweep.lambda_min"),
        ("farfield.waist=-1", "farfield.waist"),
        ("design.steps_alpha=0", "design.steps_alpha"),
        ("propagation.samples=1", "propagation.samples"),
        ("propagation.rtol=0", "propagation.rtol"),
        ("propagation.atol=-1e-12", "propagation.atol"),
        ("coupling.rho=200", "coupling.rho"),
        ("coupling.rho=-200", "coupling.rho"),
    ])
    def test_precondition_violations_name_key(self, override, path):
        with pytest.raises(ConfigError, match=path.replace(".", r"\.")):
            load_config(None, [override])

    @pytest.mark.parametrize("path,bound", COUNT_BOUNDS)
    def test_count_keys_are_bounded(self, path, bound):
        # loaded, never run
        section, name = path.split(".")
        cfg = load_config(None, [f"{path}={bound}"])
        assert getattr(getattr(cfg, section), name) == bound
        with pytest.raises(ConfigError,
                           match=rf"^{re.escape(path)}: .*<= {bound}"):
            load_config(None, [f"{path}={bound + 1}"])

    @pytest.mark.parametrize("path,bound,outside,op", BOUNDED_ENDS)
    def test_each_bounded_end(self, path, bound, outside, op):
        # an explicit decay length frees angle = 0 from the rule that a
        # straight layout has no facet ratio to calibrate from
        section, name = path.split(".")
        fixed = ["coupling.delta_decay=4"]
        rejected = rf"^{re.escape(path)}: must be .*{re.escape(op)} " \
                   rf"{re.escape(repr(bound))}\b"
        if "=" in op:
            cfg = load_config(None, fixed + [f"{path}={bound!r}"])
            assert getattr(getattr(cfg, section), name) == bound
        else:
            with pytest.raises(ConfigError, match=rejected):
                load_config(None, fixed + [f"{path}={bound!r}"])
        with pytest.raises(ConfigError, match=rejected):
            load_config(None, fixed + [f"{path}={outside!r}"])

    @pytest.mark.parametrize("wavelength_key", [
        "propagation.wavelength", "farfield.wavelength"])
    def test_decay_length_checked_at_each_used_wavelength(self,
                                                          wavelength_key):
        # rho = 2 keeps the 1500-1630 nm band positive, not 100 nm
        with pytest.raises(ConfigError,
                           match=rf"^coupling\.rho: .*{wavelength_key} = 100"):
            load_config(None, ["coupling.rho=2", f"{wavelength_key}=100"])
        load_config(None, ["coupling.rho=1", f"{wavelength_key}=100"])


class TestBuilders:
    def test_layout_from_defaults(self):
        layout = layout_from(load_config(None))
        assert layout.kind is Kind.FOLDED5
        assert layout.z_end_um == 15000.0

    def test_edge_convention_adds_width(self):
        cfg = load_config(None, ["geometry.separation_convention=edge"])
        spec = geometry_spec(cfg)
        assert spec.outer_separation_um == 28.0

    def test_model_from_fixed_kappa(self):
        cfg = load_config(None)
        layout = layout_from(cfg)
        model = model_from(cfg, layout)
        assert model.kappa_ref == DEFAULT_KAPPA_REF
        assert model.delta_decay == pytest.approx(4.13995, abs=1e-5)

    def test_model_from_auto_calibrates(self):
        cfg = load_config(None, [
            "coupling.kappa_ref=auto", "coupling.crosstalk_target_db=0",
            "coupling.kappa_min=0.3", "propagation.rtol=1e-8",
            "propagation.atol=1e-10", "propagation.samples=16",
        ])
        layout = layout_from(cfg)
        model = model_from(cfg, layout)
        assert model.kappa_ref == 0.3   # any coupling meets a 0 dB target

    def test_objective_from(self):
        cfg = load_config(None, ["coupling.kappa_ref=auto",
                                 "design.steps_ratio=2", "design.ratio_max=0.2",
                                 "propagation.rtol=1e-9"])
        bounds, steps, objective = objective_from(cfg)
        assert steps == (5, 5, 5, 2)
        assert bounds.target_ratio == (0.15, 0.2)
        assert objective.kappa_ref == DEFAULT_KAPPA_REF   # auto: shipped point
        assert objective.options == propagation_options(cfg)
        assert objective == ObjectiveConfig(options=objective.options)
        cfg = load_config(None, ["design.budget=249", "design.steps_ratio=2"])
        with pytest.raises(ConfigError, match="design.budget: grid of 250"):
            objective_from(cfg)

    def test_propagation_options(self):
        cfg = load_config(None, ["propagation.rtol=1e-9",
                                 "propagation.samples=64"])
        opts = propagation_options(cfg)
        assert (opts.rtol, opts.atol) == (1e-9, 1e-12)


def test_readme_spells_out_every_key():
    # the README's configuration bullets, one per section, name every key
    # of the schema in full
    text = (ROOT / "README.md").read_text()
    doc = text.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    bullets = dict(re.findall(r"^\* `\[(\w+)\]`(.*?)(?=^\* |^$|\Z)", doc,
                              flags=re.M | re.S))
    assert list(bullets) == list(SECTIONS)
    for section, keys in SECTIONS.items():
        for key in keys:
            assert f"`{key}`" in bullets[section], f"{section}.{key}"


def library_default(owner, name):
    """The default of dataclass field or keyword parameter ``name``."""
    if is_dataclass(owner):
        f = {f.name: f for f in fields(owner)}[name]
        return f.default_factory() if f.default is MISSING else f.default
    return inspect.signature(owner).parameters[name].default


# (config key, library owner, field or parameter, index into a tuple default)
MIRRORED_DEFAULTS = [
    ("propagation.rtol", PropagationOptions, "rtol", None),
    ("propagation.atol", PropagationOptions, "atol", None),
    ("farfield.waist", farfield_pattern, "mode_waist_um", None),
    ("farfield.theta_max", farfield_pattern, "theta_max_rad", None),
    ("farfield.n_points", farfield_pattern, "n_points", None),
    ("farfield.include_central_above", facet_emitters,
     "include_central_above", None),
    ("coupling.rho", CouplingModel, "rho", None),
    ("coupling.detuning", CouplingModel, "detuning", None),
    ("coupling.kappa_min", calibrate_strength, "kappa_min", None),
    ("coupling.kappa_max", calibrate_strength, "kappa_max", None),
    ("coupling.resolution", calibrate_strength, "resolution", None),
    ("design.w_crosstalk", ObjectiveWeights, "crosstalk", None),
    ("design.w_imbalance", ObjectiveWeights, "imbalance", None),
    ("design.w_length", ObjectiveWeights, "length", None),
    ("design.w_adiabaticity", ObjectiveWeights, "adiabaticity", None),
    ("design.alpha_min", ParameterBounds, "alpha_deg", 0),
    ("design.alpha_max", ParameterBounds, "alpha_deg", 1),
    ("design.separation_min", ParameterBounds, "separation_um", 0),
    ("design.separation_max", ParameterBounds, "separation_um", 1),
    ("design.half_length_min", ParameterBounds, "half_length_um", 0),
    ("design.half_length_max", ParameterBounds, "half_length_um", 1),
    ("design.ratio_min", ParameterBounds, "target_ratio", 0),
    ("design.ratio_max", ParameterBounds, "target_ratio", 1),
    ("design.band_points", ObjectiveConfig, "n_points", None),
    ("design.requirement_db", ObjectiveConfig, "crosstalk_requirement_db",
     None),
    ("design.budget", grid_search, "budget", None),
    # DEFAULT_KAPPA_REF, the shipped operating point
    ("coupling.kappa_ref", ObjectiveConfig, "kappa_ref", None),
]


@pytest.mark.parametrize("path,owner,name,index", MIRRORED_DEFAULTS)
def test_config_default_matches_library_default(path, owner, name, index):
    # the CLI and the library must not drift apart without notice
    section, key = path.split(".")
    expected = library_default(owner, name)
    if index is not None:
        expected = expected[index]
    assert getattr(getattr(RunConfig(), section), key) == expected
