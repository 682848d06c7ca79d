"""Command-line front end.

Subcommands: propagate, sweep, farfield, optimize, darkstate, calibrate.
Each reads an optional config (INI or JSON) plus repeatable
``--override section.key=value`` flags and writes CSV/JSON results into
``--out``. Outputs are deterministic: same config, byte-identical files.
JSON outputs write null for an undefined number. Exit codes: 0 success,
2 config error or an unusable ``--out``, 3 numerical failure, 4
calibration failure; the core raises each failure where it is detected,
and ``main`` maps its type onto the exit code.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .analysis import adiabaticity_margin, split_report
from .errors import CalibrationError, ConfigError, IntegrationError, SapsimError
from .propagator import propagate


def _fmt(x) -> str:
    # floats use the shortest round-tripping form so CSV columns reparse to
    # the exact values summarized in the JSON outputs
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _write_csv(path: Path, header, rows):
    # rows: a 2-D float array (written as _fmt writes floats) or rows for _fmt
    lines = [",".join(header)]
    if isinstance(rows, np.ndarray):
        lines += [",".join(map(repr, row)) for row in rows.tolist()]
    else:
        lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _null_non_finite(obj):
    """``obj`` with every NaN or infinite float replaced by None (null)."""
    if isinstance(obj, dict):
        return {k: _null_non_finite(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_null_non_finite(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write_json(path: Path, obj):
    text = json.dumps(_null_non_finite(obj), indent=2, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8", newline="\n")


def _report_dict(report) -> dict:
    return {
        "fractions": [float(v) for v in report.fractions],
        "pair_fractions": [float(v) for v in report.pair_fractions],
        "crosstalk_db": float(report.crosstalk_db),
        "phase_rel_rad": float(report.phase_rel_rad),
    }


def _load(cfg):
    """The layout, propagation options and coupling model of a run."""
    layout = cfgmod.layout_from(cfg)
    opts = cfgmod.propagation_options(cfg)
    return layout, opts, cfgmod.model_from(cfg, layout, opts)


def cmd_propagate(cfg, out: Path) -> None:
    layout, opts, model = _load(cfg)
    lam = cfg.propagation.wavelength
    traj = propagate(layout, model, lam, opts=opts,
                     n_samples=cfg.propagation.samples)

    n = layout.n_guides
    header = ["z_um"] + [f"I_{i}" for i in range(1, n + 1)] \
        + [f"phase_{i}" for i in range(1, n + 1)]
    a = traj.amplitudes
    _write_csv(out / "propagate.csv", header,
               np.column_stack([traj.z_um, np.abs(a) ** 2, np.angle(a)]))

    report = split_report(traj.final, layout.kind)
    _write_json(out / "propagate_summary.json", {
        "wavelength_nm": lam,
        "kind": layout.kind.value,
        "final": _report_dict(report),
        "integrator": {
            "n_steps": traj.stats.n_steps,
            "n_rhs_evals": traj.stats.n_rhs_evals,
            "max_norm_drift": traj.stats.max_norm_drift,
        },
    })


def cmd_sweep(cfg, out: Path) -> None:
    from .spectral import sweep_wavelength
    layout, opts, model = _load(cfg)
    sw = cfg.sweep
    curve = sweep_wavelength(layout, model, sw.lambda_min, sw.lambda_max,
                             sw.n_points, opts=opts)

    n = layout.n_guides
    header = ["lambda_nm"] + [f"frac_{i}" for i in range(1, n + 1)] \
        + ["crosstalk_db", "phase_rel_rad"]
    _write_csv(out / "sweep.csv", header, np.column_stack([
        curve.wavelengths_nm, [r.fractions for r in curve.reports],
        [[r.crosstalk_db, r.phase_rel_rad] for r in curve.reports]]))

    s = curve.summary
    _write_json(out / "sweep_summary.json", {
        "kind": layout.kind.value,
        "n_points": int(sw.n_points),
        "mean_fractions": [float(v) for v in s.mean_fractions],
        "std_fractions": [float(v) for v in s.std_fractions],
        "mean_pair_fractions": [float(v) for v in s.mean_pair_fractions],
        "worst_crosstalk_db": float(s.worst_crosstalk_db),
        "max_phase_dev_rad": float(s.max_phase_dev_rad),
    })


def cmd_farfield(cfg, out: Path) -> None:
    from .farfield import classify_fringe, facet_emitters, farfield_pattern
    layout, opts, model = _load(cfg)
    ff = cfg.farfield
    traj = propagate(layout, model, ff.wavelength, opts=opts)
    amps, pos = facet_emitters(traj.final, layout, ff.include_central_above)
    pattern = farfield_pattern(amps, pos, ff.wavelength, ff.waist,
                               ff.theta_max, ff.n_points)

    _write_csv(out / "farfield.csv", ["theta_rad", "intensity"],
               np.column_stack([pattern.angles_rad, pattern.intensity]))
    _write_json(out / "farfield_summary.json", {
        "wavelength_nm": ff.wavelength,
        "kind": layout.kind.value,
        "n_emitters": int(len(pos)),
        "emitter_positions_um": [float(v) for v in pos],
        "central_contrast": float(pattern.central_contrast),
        "fringe_spacing_rad": float(pattern.fringe_spacing_rad),
        "classification": classify_fringe(pattern).value,
    })


def cmd_darkstate(cfg, out: Path) -> None:
    layout, _, model = _load(cfg)
    profile = adiabaticity_margin(layout, model, cfg.propagation.wavelength,
                                  cfg.propagation.samples)

    n = layout.n_guides
    header = ["z_um"] + [f"ev_{i}" for i in range(1, n + 1)] \
        + [f"dark_{i}" for i in range(1, n + 1)] + ["adiabaticity"]
    _write_csv(out / "darkstate.csv", header, np.column_stack([
        profile.z_um, profile.eigenvalues, profile.dark_states,
        profile.values]))


def cmd_optimize(cfg, out: Path) -> None:
    from .design import CandidateParams, Objectives, grid_search, refine_local
    d = cfg.design
    bounds, steps, objective = cfgmod.objective_from(cfg)
    ranked = grid_search(bounds, steps, objective, budget=d.budget)
    best = ranked[0]
    refined = d.refine_iters > 0 and best.valid
    if refined:
        best = refine_local(best, objective, bounds, d.refine_iters)

    header = ["rank", *CandidateParams._fields, *Objectives._fields, "score",
              "valid"]
    undefined = [math.nan] * len(Objectives._fields)
    _write_csv(out / "optimize.csv", header, [
        [rank, *cand.params, *(cand.objectives if cand.valid else undefined),
         cand.score, int(cand.valid)]
        for rank, cand in enumerate(ranked, start=1)])

    _write_json(out / "optimize_best.json", {
        "params": best.params._asdict(),
        "objectives": best.objectives._asdict() if best.valid else None,
        "score": best.score,
        "refined": refined,
    })


def cmd_calibrate(cfg, out: Path) -> None:
    c = cfg.coupling._replace(kappa_ref=cfgmod.AUTO, delta_decay=cfgmod.AUTO)
    layout, opts, model = _load(cfg._replace(coupling=c))
    traj = propagate(layout, model, c.lambda0, opts=opts)
    report = split_report(traj.final, layout.kind)
    _write_json(out / "calibrate.json", {
        "delta_decay_um": float(model.delta_decay),
        "d_ref_um": float(model.d_ref),
        "kappa_ref": float(model.kappa_ref),
        "crosstalk_target_db": float(c.crosstalk_target_db),
        "achieved_crosstalk_db": float(report.crosstalk_db),
        "search": {
            "kappa_min": float(c.kappa_min),
            "kappa_max": float(c.kappa_max),
            "resolution": float(c.resolution),
        },
    })


_COMMANDS = {
    "propagate": cmd_propagate,
    "sweep": cmd_sweep,
    "farfield": cmd_farfield,
    "optimize": cmd_optimize,
    "darkstate": cmd_darkstate,
    "calibrate": cmd_calibrate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sapsim",
        description="Coupled-mode simulator and design toolkit for "
                    "adiabatic-passage integrated beam splitters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="INI or JSON config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--override", action="append", default=[],
                       metavar="SECTION.KEY=VALUE",
                       help="override one config value (repeatable)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = cfgmod.load_config(args.config, args.override)
        if args.command in ("darkstate", "optimize") \
                and cfg.coupling.kappa_ref == 0:
            raise ConfigError(f"coupling.kappa_ref: {args.command} needs a "
                              "coupling > 0 to define the dark state")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](cfg, out)
    except OSError as exc:      # creating --out or writing an output file
        print(f"error: --out {args.out}: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except IntegrationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except CalibrationError as exc:
        print(f"calibration failure: {exc}", file=sys.stderr)
        return 4
    except SapsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
