"""The benchmark's workloads: seeded inputs, the timed operation, an untimed
record of its outputs, and the correctness check of that record.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned. Inputs come from ``--seed`` and the
operation index only, and are drawn from the documented valid domain.

* design_grid: a two-candidate ``grid_search`` at the centre of the default
  design box. The valid candidate is a new geometry swept over 9
  wavelengths; the invalid one returns early.
* cli_cold: one fresh ``python -m sapsim`` process per operation, rotating
  through five commands. Import, config parsing and output writing dominate.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import reference as ref

BAND_NM = (1500.0, 1630.0)
CLI_TIMEOUT_S = 30.0
STDERR_TAIL = 600


def _rng(workload, seed, k, stream=""):
    return random.Random(f"{workload}:{seed}:{k}:{stream}")


def _amps(values):
    return [[float(v.real), float(v.imag)] for v in values]


def _complex(pairs):
    return np.array([complex(re, im) for re, im in pairs])


def _band(n_points):
    return np.linspace(BAND_NM[0], BAND_NM[1], n_points)


def run_child(argv, env, cwd, timeout, stderr_path):
    """Run a process to completion or kill it after ``timeout`` seconds.

    Returns (exit status or None on timeout, seconds, peak RSS in kB). The
    process is always reaped before this returns.
    """
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
    done = {}

    def reap():
        _, status, usage = os.wait4(proc.pid, 0)
        done["end"] = time.perf_counter()
        done["status"] = status
        done["rss_kb"] = usage.ru_maxrss

    waiter = threading.Thread(target=reap)
    waiter.start()
    waiter.join(timeout)
    timed_out = waiter.is_alive()
    if timed_out:
        proc.kill()
        waiter.join()
    proc.returncode = os.waitstatus_to_exitcode(done["status"])
    code = None if timed_out else proc.returncode
    return code, done["end"] - start, done["rss_kb"]


def stderr_tail(path):
    data = Path(path).read_bytes()[-STDERR_TAIL:]
    return data.decode("utf-8", "replace").strip()


class DesignGrid:
    name = "design_grid"
    rotation = 1
    n_checked = 1

    # One operation searches two separations at the centre of the default
    # design box (alpha 0.03 deg, half-length 7500 um): 16.5 um is an invalid
    # geometry that returns early, 27.5 um a valid one swept over the band.
    # Operations are kept near 0.1 s so that a run holds hundreds of them
    # and its fastest one is seldom slowed by other tenants of the host.
    centre = {"alpha_deg": 0.03, "half_length_um": 7500.0}
    separations_um = (16.5, 27.5)

    def __init__(self, root, seed, smoke=False):
        self.root, self.seed, self.smoke = Path(root), seed, smoke
        self.steps = (1, len(self.separations_um), 1, 1)

    def setup(self):
        from sapsim import config
        from sapsim.design import ObjectiveConfig
        cfg = config.load_config(None)
        extra = {"n_points": 3, "margin_samples": 21} if self.smoke else {}
        self.objective = ObjectiveConfig(
            options=config.propagation_options(cfg), **extra)

    def inputs(self, k):
        r = _rng(self.name, self.seed, k)
        # Independent shifts of at most 0.25% give every operation new
        # geometries without moving either candidate across the validity
        # boundary.
        def shift(v):
            return v * (1.0 + r.uniform(-0.0025, 0.0025))
        out = {name: (shift(v),) * 2 for name, v in self.centre.items()}
        out["separation_um"] = tuple(shift(v) for v in self.separations_um)
        return out

    def prepare(self, k):
        from sapsim.design import ParameterBounds
        return ParameterBounds(**self.inputs(k))

    def run(self, bounds):
        import sapsim
        return sapsim.grid_search(bounds, self.steps, self.objective)

    def _layout_model(self, params):
        from sapsim import build_layout, calibrated_model
        from sapsim.geometry import GeometrySpec, Kind
        o = self.objective
        layout = build_layout(GeometrySpec(Kind.FOLDED5, params[2], params[1],
                                           params[0], o.width_um))
        model = calibrated_model(layout, params[3], o.kappa_ref, o.lambda0,
                                 o.rho, o.detuning)
        return layout, model

    def record(self, k, bounds, ranked):
        import sapsim
        o = self.objective
        rows = [[*c.params.as_tuple(), c.valid, c.score,
                 *(() if c.objectives is None else (
                     c.objectives.worst_crosstalk_db, c.objectives.band_imbalance,
                     c.objectives.device_length_um, c.objectives.max_adiabaticity))]
                for c in ranked]
        r = _rng(self.name, self.seed, k, "check")
        valid = [i for i, c in enumerate(ranked) if c.valid]
        checked = []
        for i in sorted(r.sample(valid, min(self.n_checked, len(valid)))):
            params = ranked[i].params.as_tuple()
            lam = float(_band(o.n_points)[r.randrange(o.n_points)])
            layout, model = self._layout_model(params)
            final = sapsim.propagate(layout, model, lam,
                                     sapsim.nominal_input(layout, lam),
                                     o.options).final
            report = sapsim.split_report(final, layout.kind)
            checked.append({"rank": i, "lam": lam,
                            "amplitudes": _amps(final.amplitudes),
                            "fractions": [float(v) for v in report.fractions],
                            "phase": float(report.phase_rel_rad)})
        return {"points": len(ranked) * o.n_points, "candidates": rows,
                "checked": checked}

    def _score(self, xt, imbalance, length, adiabaticity):
        o = self.objective
        w = o.weights
        return (w.crosstalk * (xt - o.crosstalk_requirement_db) / 10.0
                + w.imbalance * imbalance + w.length * length / 1e4
                + w.adiabaticity * adiabaticity)

    def check(self, rec):
        k = rec["op"]
        rows = rec["candidates"]
        errors = []
        if len(rows) != math.prod(self.steps):
            errors.append(f"op {k}: {len(rows)} candidates ranked")
        scores = [row[5] for row in rows]
        if any(math.isnan(s) for s in scores) or scores != sorted(scores):
            errors.append(f"op {k}: candidates are not ranked by score")
        if [row[4] for row in rows] != [True, False]:
            errors.append(f"op {k}: expected one valid and one invalid candidate")
        for i, row in enumerate(rows):
            if row[4] and not math.isclose(self._score(*row[6:10]), row[5],
                                           rel_tol=1e-9, abs_tol=1e-12):
                errors.append(f"op {k} rank {i}: score does not match objectives")
        da = 0.0
        for c in rec["checked"]:
            row = rows[c["rank"]]
            layout, model = self._layout_model(row[:4])
            expected = ref.reference_final(layout, model, c["lam"])
            where = f"op {k} rank {c['rank']} at {c['lam']:.3f} nm"
            errors += ref.invariant_errors("folded5", c["fractions"], c["phase"],
                                           where)
            errors += ref.fraction_errors(c["fractions"], expected, where)
            point_da, amp_errors = ref.amplitude_errors(_complex(c["amplitudes"]),
                                                        expected, where)
            da = max(da, point_da)
            errors += amp_errors
            ef = np.abs(expected) ** 2
            if not 10.0 ** (row[6] / 10.0) >= ef[2] - ref.FRACTION_TOL:
                errors.append(f"{where}: band-worst crosstalk below this point's")
            if not row[7] >= abs(ef[0] - 0.5) - ref.FRACTION_TOL:
                errors.append(f"{where}: band imbalance below this point's")
            if row[8] != layout.z_end_um:
                errors.append(f"{where}: device length {row[8]} != {layout.z_end_um}")
        return da, errors


class CliCold:
    name = "cli_cold"
    commands = ("propagate", "sweep", "farfield", "darkstate", "calibrate")
    rotation = len(commands)
    n_checked_rows = 3

    def __init__(self, root, seed, smoke=False):
        self.root, self.seed, self.smoke = Path(root), seed, smoke
        self.env = None          # child environment, set by the runner
        self.out_dir = None      # where each operation writes its outputs
        self.trace_dir = None    # set for the traced run
        self.trace_tag = ""      # prefix of the traced operation ids

    def setup(self):
        from sapsim import config
        self.config = config
        cfg = config.load_config(str(self.root / "configs/folded5.ini"))
        layout = config.layout_from(cfg)
        config.model_from(cfg, layout, config.propagation_options(cfg))

    def inputs(self, k):
        r = _rng(self.name, self.seed, k)
        cmd = self.commands[k % self.rotation]
        config, overrides = None, []
        if cmd == "propagate":
            config = "configs/folded5.ini"
            overrides = [f"propagation.wavelength={r.uniform(*BAND_NM)!r}"]
        elif cmd == "sweep":
            # the 3-guide device, so that its pi output phase is checked too
            config = "configs/fsap3_diced.json"
            overrides = [f"sweep.lambda_min={r.uniform(1500.0, 1510.0)!r}",
                         f"sweep.lambda_max={r.uniform(1620.0, 1630.0)!r}"]
            if self.smoke:
                overrides.append("sweep.n_points=5")
        elif cmd == "farfield":
            config = "configs/fsap3_diced.json"
            overrides = [f"farfield.wavelength={r.uniform(*BAND_NM)!r}"]
            if self.smoke:
                overrides.append("farfield.n_points=201")
        elif cmd == "darkstate":
            overrides = [f"propagation.wavelength={r.uniform(*BAND_NM)!r}"]
            if self.smoke:
                overrides.append("propagation.samples=64")
        else:
            overrides = [f"coupling.lambda0={r.uniform(1530.0, 1570.0)!r}"]
        return {"cmd": cmd, "config": config, "overrides": overrides,
                "check": r.random()}

    def _cfg(self, x):
        path = None if x["config"] is None else str(self.root / x["config"])
        return self.config.load_config(path, x["overrides"])

    def prepare(self, k):
        x = self.inputs(k)
        out = self.out_dir / f"op{k}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        args = [x["cmd"], "--out", str(out)]
        if x["config"] is not None:
            args += ["--config", x["config"]]
        for item in x["overrides"]:
            args += ["--override", item]
        if self.trace_dir is None:
            argv = [sys.executable, "-m", "sapsim", *args]
        else:
            op = f"{self.trace_tag}{k}"
            argv = [sys.executable, str(Path(__file__).resolve().with_name("cli_entry.py")),
                    str(self.trace_dir / f"{op}.json"), op, *args]
        return argv, out

    def run(self, args):
        argv, out = args
        err = out.parent / f"{out.name}.stderr"
        code, _, rss_kb = run_child(argv, self.env, self.root, CLI_TIMEOUT_S, err)
        if code is None:
            raise RuntimeError(f"timed out after {CLI_TIMEOUT_S:g} s; stderr: "
                               f"{stderr_tail(err)!r}")
        if code != 0:
            raise RuntimeError(f"exit status {code}; stderr: {stderr_tail(err)!r}")
        return rss_kb

    @staticmethod
    def _rows(path):
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            return header, [[float(v) for v in row] for row in reader]

    def record(self, k, args, rss_kb):
        _, out = args
        x = self.inputs(k)
        cmd = x["cmd"]
        rec = {"rss_kb": rss_kb, "points": {"propagate": 1, "farfield": 1,
                                            "darkstate": 0}.get(cmd),
               "bytes_written": sum(p.stat().st_size for p in out.iterdir())}
        if cmd == "propagate":
            header, rows = self._rows(out / "propagate.csv")
            n = (len(header) - 1) // 2
            final = rows[-1]
            rec["amplitudes"] = _amps(np.sqrt(final[1:1 + n])
                                      * np.exp(1j * np.array(final[1 + n:])))
            rec["summary"] = json.loads((out / "propagate_summary.json").read_text())
        elif cmd == "sweep":
            _, rows = self._rows(out / "sweep.csv")
            rec["rows"] = rows
            rec["points"] = len(rows)
        elif cmd == "farfield":
            rec["summary"] = json.loads((out / "farfield_summary.json").read_text())
        elif cmd == "darkstate":
            _, rows = self._rows(out / "darkstate.csv")
            pick = random.Random(x["check"]).sample(range(len(rows)),
                                                    self.n_checked_rows)
            rec["rows"] = [rows[i] for i in sorted(pick)]
        else:
            rec["summary"] = json.loads((out / "calibrate.json").read_text())
            s = rec["summary"]["search"]
            steps = math.log(rec["summary"]["kappa_ref"] / s["kappa_min"]) \
                / math.log(1.0 + s["resolution"])
            rec["points"] = round(steps) + 2   # scanned grid plus the final run
        return rec

    def check(self, rec):
        k = rec["op"]
        x = self.inputs(k)
        cmd = x["cmd"]
        cfg = self._cfg(x)
        layout = self.config.layout_from(cfg)
        model = self.config.model_from(cfg, layout)
        kind = cfg.geometry.kind
        where = f"op {k} ({cmd})"
        errors, da = [], 0.0
        if cmd == "propagate":
            final = rec["summary"]["final"]
            errors += ref.invariant_errors(kind, final["fractions"],
                                           final["phase_rel_rad"], where)
            expected = ref.reference_final(layout, model,
                                           cfg.propagation.wavelength)
            da, amp_errors = ref.amplitude_errors(_complex(rec["amplitudes"]),
                                                  expected, where)
            errors += amp_errors
        elif cmd == "sweep":
            rows = rec["rows"]
            n = layout.n_guides
            for row in rows:
                errors += ref.invariant_errors(kind, row[1:1 + n], row[-1],
                                               f"{where} at {row[0]!r} nm")
            row = rows[int(x["check"] * len(rows))]
            expected = ref.reference_final(layout, model, row[0])
            errors += ref.fraction_errors(row[1:1 + n], expected,
                                          f"{where} at {row[0]!r} nm")
        elif cmd == "farfield":
            errors += self._check_farfield(rec["summary"], cfg, layout, model,
                                           where)
        elif cmd == "darkstate":
            errors += self._check_darkstate(rec["rows"], layout, model,
                                            cfg.propagation.wavelength, where)
        else:
            errors += self._check_calibrate(rec["summary"], cfg, layout, where)
        return da, errors

    @staticmethod
    def _check_farfield(summary, cfg, layout, model, where):
        ff = cfg.farfield
        a = ref.reference_final(layout, model, ff.wavelength)
        fractions = np.abs(a) ** 2 / np.sum(np.abs(a) ** 2)
        labels = list(layout.output_labels)
        if fractions[layout.central_label - 1] > ff.include_central_above:
            labels.append(layout.central_label)
        emit = a[[lab - 1 for lab in labels]]
        contrast = abs(emit.sum()) ** 2 / np.sum(np.abs(emit)) ** 2
        errors = []
        if summary["n_emitters"] != len(labels):
            errors.append(f"{where}: {summary['n_emitters']} emitters, "
                          f"reference has {len(labels)}")
        if not abs(summary["central_contrast"] - contrast) <= ref.FRACTION_TOL:
            errors.append(f"{where}: central contrast {summary['central_contrast']!r}"
                          f" differs from the reference {contrast!r}")
        expected = ("BRIGHT_CENTER" if contrast >= 0.9 else
                    "DARK_CENTER" if contrast <= 0.1 else "INTERMEDIATE")
        if summary["classification"] != expected:
            errors.append(f"{where}: classified {summary['classification']}, "
                          f"reference contrast gives {expected}")
        return errors

    @staticmethod
    def _check_darkstate(rows, layout, model, lam, where):
        from sapsim import hamiltonian_at
        n = layout.n_guides
        errors = []
        for row in rows:
            z = row[0]
            H = hamiltonian_at(layout, model, z, lam).matrix
            evs, dark = np.array(row[1:1 + n]), np.array(row[1 + n:1 + 2 * n])
            scale = np.max(np.abs(H))
            if not np.max(np.abs(evs - np.linalg.eigvalsh(H))) <= 1e-9 * scale:
                errors.append(f"{where} z={z!r}: eigenvalues differ")
            if not (abs(np.linalg.norm(dark) - 1.0) <= 1e-12
                    and np.max(np.abs(H @ dark)) <= 1e-12 * scale
                    and np.all(dark[[lab - 1 for lab in layout.inclined_labels]] == 0)):
                errors.append(f"{where} z={z!r}: dark state is not a unit null "
                              f"vector with zeros on the inclined guides")
        return errors

    def _check_calibrate(self, summary, cfg, layout, where):
        from sapsim import calibrated_model
        c = cfg.coupling
        kappa = summary["kappa_ref"]
        errors = []
        if not c.kappa_min <= kappa <= c.kappa_max:
            errors.append(f"{where}: kappa_ref {kappa!r} outside the search range")
        model = calibrated_model(layout, c.target_ratio, kappa, c.lambda0, c.rho,
                                 c.detuning)
        a = ref.reference_final(layout, model, c.lambda0)
        central = abs(a[layout.central_label - 1]) ** 2 / np.sum(np.abs(a) ** 2)
        reported = 10.0 ** (summary["achieved_crosstalk_db"] / 10.0)
        if not abs(central - reported) <= ref.FRACTION_TOL:
            errors.append(f"{where}: achieved crosstalk differs from the reference")
        if not central <= 10.0 ** (c.crosstalk_target_db / 10.0) + ref.FRACTION_TOL:
            errors.append(f"{where}: chosen kappa_ref misses the crosstalk target")
        return errors


WORKLOADS = {w.name: w for w in (DesignGrid, CliCold)}


def one_op(w, k, tracer=None, label=None):
    """Prepare, time and record operation ``k``; spans carry ``label``.

    A failing operation is recorded, not raised, so one failure does not
    end the run.
    """
    args = w.prepare(k)
    if tracer is not None:
        tracer.op = label
    start = time.perf_counter()
    try:
        out, error = w.run(args), None
    except Exception as exc:  # noqa: BLE001 - a failed op is a result
        out, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.op = None
    rec = {"op": k, "s": elapsed, "error": error}
    if error is None:
        try:
            rec.update(w.record(k, args, out))
        except Exception as exc:  # noqa: BLE001
            rec["error"] = f"unreadable output: {type(exc).__name__}: {exc}"
    return rec


def timed_ops(w, seconds, trace_on=None, trace_off=None, tracer=None):
    """Run operations back to back for about ``seconds``; return the records
    of the untraced and of the traced executions.

    Whole rotations run while the next one, taking as long as the last,
    would end within ``seconds``; at least one runs. With ``trace_on`` and
    ``trace_off``, each operation runs twice in a row, untraced and traced,
    in alternating order, so that drift in the machine's speed hits both
    alike and their ratio measures the tracing overhead.
    """
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    first = 0
    while True:
        rotation_start = time.perf_counter()
        for k in range(first, first + w.rotation):
            if trace_on is None:
                plain.append(one_op(w, k))
                continue
            for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
                if with_trace:
                    trace_on()
                    traced.append(one_op(w, k, tracer, str(k)))
                    trace_off()
                else:
                    plain.append(one_op(w, k))
        now = time.perf_counter()
        if 2 * now - rotation_start > deadline:
            return plain, traced
        first += w.rotation
