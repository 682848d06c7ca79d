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
from .design import ObjectiveConfig, ObjectiveWeights, ParameterBounds

AUTO = "auto"

# Shipped operating point: band-robust working coupling of the reference
# splitter (see README); kappa_ref = auto switches to closed-loop search.
DEFAULT_KAPPA_REF = 0.7175


@dataclass(frozen=True)
class Domain:
    """The values a config key accepts.

    Numbers must be finite and lie between ``lo`` and ``hi`` (None leaves a
    side unbounded; an open end excludes its bound). A key with ``choices``
    takes one of those strings; ``auto`` also admits the string 'auto'.
    """

    lo: float = None
    hi: float = None
    open_lo: bool = False
    open_hi: bool = False
    choices: tuple = ()
    auto: bool = False

    def describe(self) -> str:
        if self.choices:
            return "must be one of " + ", ".join(self.choices)
        bounds = []
        if self.lo is not None:
            bounds.append(f"{'>' if self.open_lo else '>='} {self.lo!r}")
        if self.hi is not None:
            bounds.append(f"{'<' if self.open_hi else '<='} {self.hi!r}")
        text = "must be " + " and ".join(bounds)
        return text + " or 'auto'" if self.auto else text

    def admits(self, value) -> bool:
        if self.choices:
            return value in self.choices
        below = self.lo is not None and (
            value <= self.lo if self.open_lo else value < self.lo)
        above = self.hi is not None and (
            value >= self.hi if self.open_hi else value > self.hi)
        return not (below or above)


def key(default, lo=None, hi=None, **domain):
    """A config key with its default and its Domain."""
    return field(default=default,
                 metadata={"domain": Domain(lo, hi, **domain)})


def positive(default):
    """A config key that must be > 0."""
    return key(default, 0, open_lo=True)


@dataclass(frozen=True)
class GeometrySection:
    kind: str = key("folded5", choices=tuple(k.value for k in Kind))
    half_length: float = positive(7500.0)
    outer_separation: float = positive(22.0)
    angle: float = key(0.03, 0, 5)
    width: float = positive(6.0)
    cut_fraction: float = key(1.0, 0, 2, open_lo=True)
    separation_convention: str = key("center", choices=("center", "edge"))


@dataclass(frozen=True)
class CouplingSection:
    target_ratio: float = key(0.15, 0, 1, open_lo=True, open_hi=True)
    kappa_ref: object = key(DEFAULT_KAPPA_REF, 0, auto=True)
    # um, or auto = calibrated from target_ratio
    delta_decay: object = key(AUTO, 0, open_lo=True, auto=True)
    rho: float = key(1.0)
    detuning: float = key(0.0)
    lambda0: float = positive(1550.0)
    crosstalk_target_db: float = key(-20.0, hi=0)   # used when kappa_ref = auto
    kappa_min: float = positive(0.05)
    kappa_max: float = key(20.0)
    resolution: float = key(0.02, 0, 0.02, open_lo=True)


@dataclass(frozen=True)
class PropagationSection:
    rtol: float = positive(1e-10)
    atol: float = positive(1e-12)
    samples: int = key(512, 2, 100_000)
    wavelength: float = positive(1550.0)


@dataclass(frozen=True)
class SweepSection:
    lambda_min: float = key(1500.0)
    lambda_max: float = key(1630.0)
    n_points: int = key(27, 1, 10_000)


@dataclass(frozen=True)
class FarfieldSection:
    wavelength: float = positive(1560.0)
    theta_max: float = key(0.15, 0, math.pi / 2, open_lo=True)
    n_points: int = key(2001, 3, 1_000_000)
    waist: float = positive(3.0)
    include_central_above: float = key(0.05, 0)


@dataclass(frozen=True)
class DesignSection:
    alpha_min: float = key(0.015, 0)
    alpha_max: float = key(0.045)
    separation_min: float = positive(11.0)
    separation_max: float = key(33.0)
    half_length_min: float = positive(3750.0)
    half_length_max: float = key(11250.0)
    ratio_min: float = positive(0.15)
    ratio_max: float = key(0.15, hi=1, open_hi=True)
    steps_alpha: int = key(5, 1, 1000)
    steps_separation: int = key(5, 1, 1000)
    steps_half_length: int = key(5, 1, 1000)
    steps_ratio: int = key(1, 1, 1000)
    w_crosstalk: float = key(1.0, 0)
    w_imbalance: float = key(1.0, 0)
    w_length: float = key(0.25, 0)
    w_adiabaticity: float = key(0.5, 0)
    requirement_db: float = key(-15.0)
    band_points: int = key(9, 1, 1000)
    refine_iters: int = key(0, 0, 10_000)
    budget: int = key(2000, 1, 100_000)


@dataclass(frozen=True)
class RunConfig:
    geometry: GeometrySection = field(default_factory=GeometrySection)
    coupling: CouplingSection = field(default_factory=CouplingSection)
    propagation: PropagationSection = field(default_factory=PropagationSection)
    sweep: SweepSection = field(default_factory=SweepSection)
    farfield: FarfieldSection = field(default_factory=FarfieldSection)
    design: DesignSection = field(default_factory=DesignSection)


# section name -> section dataclass; each field's metadata holds its Domain
SECTIONS = {f.name: f.default_factory for f in fields(RunConfig)}


def _finite(path: str, value: float) -> float:
    if not math.isfinite(value):
        raise ConfigError(f"{path}: must be a finite number, got {value!r}")
    return value


def _parse_value(path: str, raw, spec):
    """``raw`` as the type of config field ``spec``, checked against its
    Domain."""
    domain = spec.metadata["domain"]
    if domain.auto and isinstance(raw, str) and raw.strip().lower() == AUTO:
        return AUTO
    if domain.choices:
        value = str(raw).strip().lower()
    else:
        target = int if isinstance(spec.default, int) else float
        try:
            if isinstance(raw, bool):   # a JSON true/false is not a number
                raise TypeError
            if target is int:
                value = int(str(raw).strip()) if isinstance(raw, str) else raw
                if value != int(_finite(path, value)):
                    raise ValueError
                value = int(value)
            else:
                value = _finite(path, float(raw))
        except (TypeError, ValueError, OverflowError):
            expected = f"{target.__name__} or 'auto'" if domain.auto \
                else target.__name__
            raise ConfigError(f"{path}: expected {expected}, got {raw!r}")
    if not domain.admits(value):
        raise ConfigError(f"{path}: {domain.describe()}, got {value!r}")
    return value


def _merge(raw: dict) -> RunConfig:
    kwargs = {}
    for section, data in raw.items():
        if section not in SECTIONS:
            raise ConfigError(f"{section}: unknown section")
        cls = SECTIONS[section]
        specs = {f.name: f for f in fields(cls)}
        values = {}
        for name, value in data.items():
            if name not in specs:
                raise ConfigError(f"{section}.{name}: unknown key")
            values[name] = _parse_value(f"{section}.{name}", value,
                                        specs[name])
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
    """The rules that tie keys together; _merge checks each key alone."""
    g, c, p, s, f, d = (cfg.geometry, cfg.coupling, cfg.propagation, cfg.sweep,
                        cfg.farfield, cfg.design)
    def fail(path, msg):
        raise ConfigError(f"{path}: {msg}")

    if c.delta_decay == AUTO and g.angle == 0:
        fail("coupling.delta_decay",
             "a straight-guide layout (angle = 0) has no facet ratio to "
             "calibrate from; set an explicit decay length")
    if not c.kappa_min < c.kappa_max:
        fail("coupling.kappa_min", "need 0 < kappa_min < kappa_max")
    if s.n_points > 1 and not s.lambda_min < s.lambda_max:
        fail("sweep.lambda_min", "need lambda_min < lambda_max")
    for name in ("alpha", "separation", "half_length", "ratio"):
        if getattr(d, f"{name}_min") > getattr(d, f"{name}_max"):
            fail(f"design.{name}_min", f"need {name}_min <= {name}_max")
    if not any((d.w_crosstalk, d.w_imbalance, d.w_length, d.w_adiabaticity)):
        fail("design.w_crosstalk", "need a positive design.w_* weight")

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


def objective_from(cfg: RunConfig):
    """``(bounds, steps, objective)`` of the design search per config.

    kappa_ref = auto scores at DEFAULT_KAPPA_REF (the search holds the
    coupling strength fixed). Raises ConfigError when the grid exceeds
    design.budget.
    """
    d, c = cfg.design, cfg.coupling
    steps = (d.steps_alpha, d.steps_separation, d.steps_half_length,
             d.steps_ratio)
    if math.prod(steps) > d.budget:
        raise ConfigError(f"design.budget: grid of {math.prod(steps)} points "
                          f"exceeds budget {d.budget}")
    bounds = ParameterBounds(
        alpha_deg=(d.alpha_min, d.alpha_max),
        separation_um=(d.separation_min, d.separation_max),
        half_length_um=(d.half_length_min, d.half_length_max),
        target_ratio=(d.ratio_min, d.ratio_max),
    )
    objective = ObjectiveConfig(
        weights=ObjectiveWeights(d.w_crosstalk, d.w_imbalance, d.w_length,
                                 d.w_adiabaticity),
        lam_min=cfg.sweep.lambda_min, lam_max=cfg.sweep.lambda_max,
        n_points=d.band_points,
        crosstalk_requirement_db=d.requirement_db,
        width_um=cfg.geometry.width,
        kappa_ref=DEFAULT_KAPPA_REF if c.kappa_ref == AUTO else c.kappa_ref,
        lambda0=c.lambda0, rho=c.rho, detuning=c.detuning,
        options=propagation_options(cfg),
    )
    return bounds, steps, objective


def propagation_options(cfg: RunConfig) -> PropagationOptions:
    p = cfg.propagation
    return PropagationOptions(rtol=p.rtol, atol=p.atol)
