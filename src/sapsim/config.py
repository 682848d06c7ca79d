"""Run configuration: strict sectioned key-value schema.

Configs are INI-style section files or an equivalent JSON object (detected
by content); all keys are optional and default to the reference device.
Unknown sections or keys are rejected with the offending key path. Units
are fixed by the schema: lengths um, wavelengths nm, angles degrees,
rates 1/mm, crosstalk dB.
"""

from __future__ import annotations

import configparser
import json
import math
from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .geometry import GeometrySpec, Kind, build_layout
from .propagator import PropagationOptions
from .coupling import (CouplingModel, calibrate_strength, calibrated_model,
                       facet_separations)

AUTO = "auto"

# Shipped operating point: band-robust working coupling of the reference
# splitter (see README); kappa_ref = auto switches to closed-loop search.
DEFAULT_KAPPA_REF = 0.7175


@dataclass(frozen=True)
class GeometrySection:
    kind: str = "folded5"
    half_length: float = 7500.0
    outer_separation: float = 22.0
    angle: float = 0.03
    width: float = 6.0
    cut_fraction: float = 1.0
    separation_convention: str = "center"   # center | edge


@dataclass(frozen=True)
class CouplingSection:
    target_ratio: float = 0.15
    kappa_ref: object = DEFAULT_KAPPA_REF   # float or "auto"
    delta_decay: object = AUTO              # um, or "auto" = from target_ratio
    rho: float = 1.0
    detuning: float = 0.0
    lambda0: float = 1550.0
    crosstalk_target_db: float = -20.0      # used when kappa_ref = auto
    kappa_min: float = 0.05
    kappa_max: float = 20.0
    resolution: float = 0.02


@dataclass(frozen=True)
class PropagationSection:
    rtol: float = 1e-10
    atol: float = 1e-12
    samples: int = 512
    wavelength: float = 1550.0


@dataclass(frozen=True)
class SweepSection:
    lambda_min: float = 1500.0
    lambda_max: float = 1630.0
    n_points: int = 27


@dataclass(frozen=True)
class FarfieldSection:
    wavelength: float = 1560.0
    theta_max: float = 0.15
    n_points: int = 2001
    waist: float = 3.0
    include_central_above: float = 0.05


@dataclass(frozen=True)
class DesignSection:
    alpha_min: float = 0.015
    alpha_max: float = 0.045
    separation_min: float = 11.0
    separation_max: float = 33.0
    half_length_min: float = 3750.0
    half_length_max: float = 11250.0
    ratio_min: float = 0.15
    ratio_max: float = 0.15
    steps_alpha: int = 5
    steps_separation: int = 5
    steps_half_length: int = 5
    steps_ratio: int = 1
    w_crosstalk: float = 1.0
    w_imbalance: float = 1.0
    w_length: float = 0.25
    w_adiabaticity: float = 0.5
    requirement_db: float = -15.0
    band_points: int = 9
    refine_iters: int = 0
    budget: int = 2000


@dataclass(frozen=True)
class RunConfig:
    geometry: GeometrySection = field(default_factory=GeometrySection)
    coupling: CouplingSection = field(default_factory=CouplingSection)
    propagation: PropagationSection = field(default_factory=PropagationSection)
    sweep: SweepSection = field(default_factory=SweepSection)
    farfield: FarfieldSection = field(default_factory=FarfieldSection)
    design: DesignSection = field(default_factory=DesignSection)


_SECTIONS = {
    "geometry": GeometrySection,
    "coupling": CouplingSection,
    "propagation": PropagationSection,
    "sweep": SweepSection,
    "farfield": FarfieldSection,
    "design": DesignSection,
}

_STRING_KEYS = {("geometry", "kind"), ("geometry", "separation_convention")}


def _finite(path: str, value: float) -> float:
    if not math.isfinite(value):
        raise ConfigError(f"{path}: must be a finite number, got {value!r}")
    return value


def _parse_value(section: str, key: str, raw, target_type):
    path = f"{section}.{key}"
    if (section, key) in (("coupling", "kappa_ref"), ("coupling", "delta_decay")):
        if isinstance(raw, str) and raw.strip().lower() == AUTO:
            return AUTO
        try:
            return _finite(path, float(raw))
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"{path}: expected a number or 'auto', got {raw!r}")
    if (section, key) in _STRING_KEYS:
        return str(raw).strip().lower()
    try:
        if target_type is int:
            value = int(str(raw).strip()) if isinstance(raw, str) else raw
            if value != int(_finite(path, value)):
                raise ValueError
            return int(value)
        return _finite(path, float(raw))
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{path}: expected {target_type.__name__}, got {raw!r}")


def _merge(raw: dict) -> RunConfig:
    kwargs = {}
    for section, data in raw.items():
        if section not in _SECTIONS:
            raise ConfigError(f"{section}: unknown section")
        cls = _SECTIONS[section]
        known = {f.name: f.type for f in fields(cls)}
        values = {}
        for key, value in data.items():
            if key not in known:
                raise ConfigError(f"{section}.{key}: unknown key")
            default = getattr(cls(), key)
            target = int if isinstance(default, int) and not isinstance(default, bool) \
                else float
            values[key] = _parse_value(section, key, value, target)
        kwargs[section] = cls(**values)
    return RunConfig(**kwargs)


def _read_raw(text: str) -> dict:
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}")
        if not isinstance(data, dict) or not all(
                isinstance(v, dict) for v in data.values()):
            raise ConfigError("JSON config must be an object of section objects")
        return data
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"invalid config: {exc}")
    return {s: dict(parser.items(s)) for s in parser.sections()}


def apply_overrides(raw: dict, overrides) -> dict:
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected section.key=value")
        path, value = item.split("=", 1)
        if "." not in path:
            raise ConfigError(f"override {item!r}: expected section.key=value")
        section, key = path.split(".", 1)
        raw.setdefault(section.strip(), {})[key.strip()] = value.strip()
    return raw


def load_config(path=None, overrides=None) -> RunConfig:
    """Parse, override and validate a run configuration."""
    raw = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = _read_raw(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
    cfg = _merge(apply_overrides(raw, overrides))
    validate(cfg)
    return cfg


def validate(cfg: RunConfig):
    g, c, p, s, f, d = (cfg.geometry, cfg.coupling, cfg.propagation, cfg.sweep,
                        cfg.farfield, cfg.design)
    def fail(path, msg):
        raise ConfigError(f"{path}: {msg}")

    if g.kind not in ("sap3", "fsap3", "folded5"):
        fail("geometry.kind", f"must be sap3, fsap3 or folded5, got {g.kind!r}")
    if g.separation_convention not in ("center", "edge"):
        fail("geometry.separation_convention", "must be center or edge")
    if g.half_length <= 0:
        fail("geometry.half_length", "must be positive")
    if g.outer_separation <= 0:
        fail("geometry.outer_separation", "must be positive")
    if not 0 <= g.angle <= 5:
        fail("geometry.angle", "must lie in [0, 5] degrees")
    if g.width <= 0:
        fail("geometry.width", "must be positive")
    if not 0 < g.cut_fraction <= 2:
        fail("geometry.cut_fraction", "must lie in (0, 2]")

    if not 0 < c.target_ratio < 1:
        fail("coupling.target_ratio", "must lie in (0, 1)")
    if c.kappa_ref != AUTO and c.kappa_ref < 0:
        fail("coupling.kappa_ref", "must be non-negative or 'auto'")
    if c.delta_decay != AUTO and c.delta_decay <= 0:
        fail("coupling.delta_decay", "must be positive or 'auto'")
    if c.delta_decay == AUTO and g.angle == 0:
        fail("coupling.delta_decay",
             "a straight-guide layout (angle = 0) has no facet ratio to "
             "calibrate from; set an explicit decay length")
    if c.lambda0 <= 0:
        fail("coupling.lambda0", "must be positive")
    if c.crosstalk_target_db > 0:
        fail("coupling.crosstalk_target_db", "must be <= 0 dB")
    if not 0 < c.kappa_min < c.kappa_max:
        fail("coupling.kappa_min", "need 0 < kappa_min < kappa_max")
    if not 0 < c.resolution <= 0.02:
        fail("coupling.resolution", "must lie in (0, 0.02]")

    if p.rtol <= 0:
        fail("propagation.rtol", "must be positive")
    if p.atol <= 0:
        fail("propagation.atol", "must be positive")
    if p.samples < 2:
        fail("propagation.samples", "must be at least 2")
    if p.wavelength <= 0:
        fail("propagation.wavelength", "must be positive")

    if s.n_points < 1:
        fail("sweep.n_points", "must be at least 1")
    if s.n_points > 1 and not s.lambda_min < s.lambda_max:
        fail("sweep.lambda_min", "need lambda_min < lambda_max")

    if f.wavelength <= 0:
        fail("farfield.wavelength", "must be positive")
    if f.theta_max <= 0 or f.theta_max > math.pi / 2:
        fail("farfield.theta_max", "must lie in (0, pi/2]")
    if f.n_points < 3:
        fail("farfield.n_points", "must be at least 3")
    if f.waist <= 0:
        fail("farfield.waist", "must be positive")
    if f.include_central_above < 0:
        fail("farfield.include_central_above", "must be non-negative")

    if d.alpha_min > d.alpha_max or d.alpha_min < 0:
        fail("design.alpha_min", "need 0 <= alpha_min <= alpha_max")
    if not 0 < d.separation_min <= d.separation_max:
        fail("design.separation_min", "need 0 < separation_min <= separation_max")
    if not 0 < d.half_length_min <= d.half_length_max:
        fail("design.half_length_min", "need 0 < half_length_min <= half_length_max")
    if not 0 < d.ratio_min <= d.ratio_max < 1:
        fail("design.ratio_min", "need 0 < ratio_min <= ratio_max < 1")
    for name in ("steps_alpha", "steps_separation", "steps_half_length",
                 "steps_ratio"):
        if getattr(d, name) < 1:
            fail(f"design.{name}", "must be at least 1")
    for name in ("w_crosstalk", "w_imbalance", "w_length", "w_adiabaticity"):
        if getattr(d, name) < 0:
            fail(f"design.{name}", "must be non-negative")
    if d.band_points < 1:
        fail("design.band_points", "must be at least 1")
    if d.refine_iters < 0:
        fail("design.refine_iters", "must be non-negative")
    if d.budget < 1:
        fail("design.budget", "must be at least 1")

    # delta(lam) = delta_decay * (1 + rho (lam - lambda0) / lambda0) is linear
    # in lam, so positive ends keep every wavelength in between positive
    for name, lam in (("sweep.lambda_min", s.lambda_min),
                      ("sweep.lambda_max", s.lambda_max),
                      ("propagation.wavelength", p.wavelength),
                      ("farfield.wavelength", f.wavelength)):
        if 1.0 + c.rho * (lam - c.lambda0) / c.lambda0 <= 0:
            fail("coupling.rho", f"decay length non-positive at {name} = "
                 f"{lam} nm (need 1 + rho (lam - lambda0) / lambda0 > 0)")


def geometry_spec(cfg: RunConfig) -> GeometrySpec:
    g = cfg.geometry
    separation = g.outer_separation
    if g.separation_convention == "edge":
        separation += g.width
    return GeometrySpec(Kind(g.kind), g.half_length, separation, g.angle,
                        g.width, g.cut_fraction)


def layout_from(cfg: RunConfig):
    return build_layout(geometry_spec(cfg))


def model_from(cfg: RunConfig, layout, opts: PropagationOptions = None):
    """Coupling model per config.

    delta_decay = auto calibrates the decay length from the facet coupling
    ratio; kappa_ref = auto runs the closed-loop strength search.
    """
    c = cfg.coupling

    def build(kappa_ref: float) -> CouplingModel:
        if c.delta_decay == AUTO:
            return calibrated_model(layout, c.target_ratio, kappa_ref,
                                    c.lambda0, c.rho, c.detuning)
        d_near, _ = facet_separations(layout)
        return CouplingModel(kappa_ref=kappa_ref, d_ref=d_near,
                             delta_decay=float(c.delta_decay),
                             lambda0=c.lambda0, rho=c.rho, detuning=c.detuning)

    kappa_ref = c.kappa_ref
    if kappa_ref == AUTO:
        kappa_ref = calibrate_strength(
            layout, build(1.0), c.lambda0, c.crosstalk_target_db,
            kappa_min=c.kappa_min, kappa_max=c.kappa_max,
            resolution=c.resolution, opts=opts or propagation_options(cfg))
    return build(float(kappa_ref))


def propagation_options(cfg: RunConfig) -> PropagationOptions:
    p = cfg.propagation
    return PropagationOptions(rtol=p.rtol, atol=p.atol, n_samples=p.samples)
