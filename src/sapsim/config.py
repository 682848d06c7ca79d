"""Run configuration: strict sectioned key-value schema.

Configs are INI-style section files or an equivalent JSON object (detected
by content); all keys are optional and default to the reference device.
Unknown sections or keys are rejected with the offending key path. Units
are fixed by the schema: lengths um, wavelengths nm, angles degrees,
rates 1/mm, crosstalk dB.
"""

from __future__ import annotations

import json
import math
from collections import Counter, namedtuple

from .errors import ConfigError, GeometryError
from .geometry import GeometrySpec, Kind, build_layout
from .propagator import PropagationOptions
from .coupling import (CouplingModel, calibrate_strength, calibrated_model,
                       facet_separations)

AUTO = "auto"

# Shipped operating point: band-robust working coupling of the reference
# splitter (see README); kappa_ref = auto switches to closed-loop search.
DEFAULT_KAPPA_REF = 0.7175


# section -> key -> (default, domain), the one declaration of the schema. A
# domain is a tuple of the strings a key takes, or (lo, hi, flags): a finite
# number between lo and hi (None leaves a side unbounded), where the flag
# 'open_lo' or 'open_hi' excludes that bound and 'auto' also admits 'auto'.
SECTIONS = {
    "geometry": {
        "kind": ("folded5", tuple(k.value for k in Kind)),
        "half_length": (7500.0, (0, None, "open_lo")),
        "outer_separation": (22.0, (0, None, "open_lo")),
        "angle": (0.03, (0, 5, "")),
        "width": (6.0, (0, None, "open_lo")),
        "cut_fraction": (1.0, (0, 2, "open_lo")),
        "separation_convention": ("center", ("center", "edge")),
    },
    "coupling": {
        "target_ratio": (0.15, (0, 1, "open_lo open_hi")),
        "kappa_ref": (DEFAULT_KAPPA_REF, (0, None, "auto")),
        # um, or auto = calibrated from target_ratio
        "delta_decay": (AUTO, (0, None, "open_lo auto")),
        "rho": (1.0, (None, None, "")),
        "detuning": (0.0, (None, None, "")),
        "lambda0": (1550.0, (0, None, "open_lo")),
        "crosstalk_target_db": (-20.0, (None, 0, "")),  # if kappa_ref = auto
        "kappa_min": (0.05, (0, None, "open_lo")),
        "kappa_max": (20.0, (None, None, "")),
        "resolution": (0.02, (0, 0.02, "open_lo")),
    },
    "propagation": {
        "rtol": (1e-10, (0, None, "open_lo")),
        "atol": (1e-12, (0, None, "open_lo")),
        "samples": (512, (2, 100_000, "")),
        "wavelength": (1550.0, (0, None, "open_lo")),
    },
    "sweep": {
        "lambda_min": (1500.0, (None, None, "")),
        "lambda_max": (1630.0, (None, None, "")),
        "n_points": (27, (1, 10_000, "")),
    },
    "farfield": {
        "wavelength": (1560.0, (0, None, "open_lo")),
        "theta_max": (0.15, (0, math.pi / 2, "open_lo")),
        "n_points": (2001, (3, 1_000_000, "")),
        "waist": (3.0, (0, None, "open_lo")),
        "include_central_above": (0.05, (0, None, "")),
    },
    "design": {
        "alpha_min": (0.015, (0, None, "")),
        "alpha_max": (0.045, (None, None, "")),
        "separation_min": (11.0, (0, None, "open_lo")),
        "separation_max": (33.0, (None, None, "")),
        "half_length_min": (3750.0, (0, None, "open_lo")),
        "half_length_max": (11250.0, (None, None, "")),
        "ratio_min": (0.15, (0, None, "open_lo")),
        "ratio_max": (0.15, (None, 1, "open_hi")),
        "steps_alpha": (5, (1, 1000, "")),
        "steps_separation": (5, (1, 1000, "")),
        "steps_half_length": (5, (1, 1000, "")),
        "steps_ratio": (1, (1, 1000, "")),
        "w_crosstalk": (1.0, (0, None, "")),
        "w_imbalance": (1.0, (0, None, "")),
        "w_length": (0.25, (0, None, "")),
        "w_adiabaticity": (0.5, (0, None, "")),
        "requirement_db": (-15.0, (None, None, "")),
        "band_points": (9, (1, 1000, "")),
        "refine_iters": (0, (0, 10_000, "")),
        "budget": (2000, (1, 100_000, "")),
    },
}

# One immutable record per section, its fields defaulting to the table's;
# a RunConfig holds one of each.
RunConfig = namedtuple("RunConfig", SECTIONS, defaults=[
    namedtuple(section, keys, defaults=[d for d, _ in keys.values()])()
    for section, keys in SECTIONS.items()])


def _finite(path: str, value: float) -> float:
    if not math.isfinite(value):
        raise ConfigError(f"{path}: must be a finite number, got {value!r}")
    return value


def _check(path: str, value, domain):
    """``value`` if ``domain`` admits it; else a ConfigError at ``path``."""
    if isinstance(domain[0], str):
        if value in domain:
            return value
        raise ConfigError(f"{path}: must be one of {', '.join(domain)}, "
                          f"got {value!r}")
    lo, hi, flags = domain
    open_lo, open_hi = "open_lo" in flags, "open_hi" in flags
    if not (lo is not None and (value <= lo if open_lo else value < lo) or
            hi is not None and (value >= hi if open_hi else value > hi)):
        return value
    bounds = []
    if lo is not None:
        bounds.append(f"{'>' if open_lo else '>='} {lo!r}")
    if hi is not None:
        bounds.append(f"{'<' if open_hi else '<='} {hi!r}")
    text = " and ".join(bounds) + (" or 'auto'" if "auto" in flags else "")
    raise ConfigError(f"{path}: must be {text}, got {value!r}")


def _parse_value(path: str, raw, default, domain):
    """``raw`` as the type of ``default``, checked against ``domain``."""
    if isinstance(domain[0], str):
        return _check(path, str(raw).strip().lower(), domain)
    auto = "auto" in domain[2]
    if auto and isinstance(raw, str) and raw.strip().lower() == AUTO:
        return AUTO
    target = int if isinstance(default, int) else float
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
        expected = target.__name__ + (" or 'auto'" if auto else "")
        raise ConfigError(f"{path}: expected {expected}, got {raw!r}")
    return _check(path, value, domain)


def _merge(raw: dict) -> RunConfig:
    cfg = RunConfig()
    sections = {}
    for section, data in raw.items():
        if section not in SECTIONS:
            raise ConfigError(f"{section}: unknown section")
        keys = SECTIONS[section]
        values = {}
        for name, value in data.items():
            if name not in keys:
                raise ConfigError(f"{section}.{name}: unknown key")
            values[name] = _parse_value(f"{section}.{name}", value,
                                        *keys[name])
        sections[section] = getattr(cfg, section)._replace(**values)
    return cfg._replace(**sections)


def _json_object(pairs):
    """A JSON object as a dict; one that repeats a key as the 1-tuple of the
    first key it repeats (JSON itself parses to no tuple)."""
    repeated = [k for k, n in Counter(k for k, _ in pairs).items() if n > 1]
    return (repeated[0],) if repeated else dict(pairs)


def _read_raw(text: str) -> dict:
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text, object_pairs_hook=_json_object)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}")
        if isinstance(data, tuple):
            raise ConfigError(f"{data[0]}: duplicate section")
        for section, keys in data.items():
            if isinstance(keys, tuple):
                raise ConfigError(f"{section}.{keys[0]}: duplicate key")
            if not isinstance(keys, dict):
                raise ConfigError(
                    "JSON config must be an object of section objects")
        return data
    import configparser
    # no default section: [DEFAULT] is an unknown section, not inherited keys
    parser = configparser.ConfigParser(interpolation=None, default_section="")
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
        except (OSError, UnicodeDecodeError) as exc:
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
    """The layout per config; a layout the geometry rejects is a config error
    of the geometry section."""
    try:
        return build_layout(geometry_spec(cfg))
    except GeometryError as exc:
        raise ConfigError(f"geometry: {exc}") from exc


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
    from .design import ObjectiveConfig, ObjectiveWeights, ParameterBounds
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
