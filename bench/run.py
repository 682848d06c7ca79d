"""Benchmark of the sapsim package: end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it uses the package in src/ and
the shipped configs/, and writes only under .bench_out/. Workloads are
described in workloads.py: design_grid and cli_cold.

With --trace 0 it reports the end-to-end metrics, measured untraced:

  setup_s      median over several fresh processes of the time from before
               the interpreter starts to inputs ready (import sapsim, config
               load, layout, coupling model);
  op_s_min     wall time of the fastest operation of each kind (the
               command, for cli_cold), averaged over the kinds;
  points_per_s (geometry, wavelength) points asked for per second, over
               those fastest operations;
  peak_rss_mb  peak resident memory of the process doing the work (for
               cli_cold, the largest CLI child).

With --trace 1 it reports the per-layer metrics from a traced run (see
tracer.py), per operation, plus the tracing overhead against an untraced
pass over the same operations.

Every run checks the outputs against the benchmark's own reference
(reference.py); an operation fails if it raises, exits non-zero, times out
or fails a check. The last line of standard output is the JSON result; the
line before it holds details that are not gated metrics (the tail
percentile, the failed fraction, failure messages and the environment).
CPUs are not pinned and caches are not dropped: the machines this runs on
may forbid both. On a shared host an operation runs at one of two speeds,
depending on the load of other tenants, and which one prevails shifts
over minutes, so the median of a run swings by a third or
more from run to run. The fastest of many short operations swings far
less: it is the operation's cost with the neighbours quiet, the figure
timeit reports for the same reason. The median and the tail are on the details line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REQUIRED = ("src/sapsim/__init__.py", "configs/folded5.ini",
            "configs/fsap3_diced.json")
THREAD_VARS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0
CHECK_RESERVE_S = 20.0
TAIL_BEYOND = 10


def child_env(root):
    env = dict(os.environ, **THREAD_VARS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def code_hash(root):
    """Identity of the code under test: package sources, configs and bench."""
    h = hashlib.sha256()
    files = sorted([*root.glob("src/**/*.py"), *root.glob("configs/*"),
                    *HERE.glob("*.py")])
    for path in files:
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(root, seed):
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in root.glob("src/**/*.py"))
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": commit,
        "code_sha256": code_hash(root), "seed": seed, "src_lines": src_lines,
        "threads": "numpy single-threaded (" + ", ".join(
            f"{k}={v}" for k, v in THREAD_VARS.items()) + ")",
        "pinning": "CPUs not pinned and caches not dropped (not permitted on "
                   "shared machines); medians over many operations instead",
    }


def fastest(ops, rotation):
    """(op_s_min, points_per_s) from the fastest good operation of each kind;
    operation k is of kind k % rotation."""
    best = {}
    for r in ops:
        kind = r["op"] % rotation
        if not r["failed"] and (kind not in best or r["s"] < best[kind]["s"]):
            best[kind] = r
    if not best:
        return 0.0, 0.0
    seconds = sum(r["s"] for r in best.values())
    return seconds / len(best), sum(r["points"] for r in best.values()) / seconds


def tail(times):
    """Highest percentile with at least TAIL_BEYOND samples above it."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return None
    return {"value": sorted(times)[n - TAIL_BEYOND - 1],
            "percentile": 100.0 * (n - TAIL_BEYOND) / n, "samples": n}


class Run:
    def __init__(self, args, root):
        import workloads
        self.args, self.root = args, root
        self.start = time.monotonic()
        self.env = child_env(root)
        self.out = root / ".bench_out" / (
            f"{args.workload}-seed{args.seed}-trace{args.trace}"
            + ("-smoke" if args.smoke else ""))
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.workloads = workloads
        self.w = workloads.WORKLOADS[args.workload](root, args.seed, args.smoke)

    def remaining(self):
        return RUN_LIMIT_S - CHECK_RESERVE_S - (time.monotonic() - self.start)

    def worker(self, tag, extra):
        """Start worker.py and return its result; exits the run if it fails."""
        result = self.out / f"{tag}.json"
        argv = [sys.executable, str(HERE / "worker.py"), self.args.workload,
                str(self.args.seed), str(result), *extra]
        if self.args.smoke:
            argv.append("--smoke")
        spawned = time.monotonic()
        code, _, _ = self.workloads.run_child(
            argv, self.env, self.root, max(self.remaining(), 5.0),
            self.out / f"{tag}.stderr")
        if code != 0:
            raise SystemExit(
                f"bench: {tag} process "
                + ("timed out" if code is None else f"exited with status {code}")
                + f"; stderr: {self.workloads.stderr_tail(self.out / f'{tag}.stderr')}")
        data = json.loads(result.read_text(encoding="utf-8"))
        data["setup_s"] = data["ready"] - spawned
        return data

    def measure(self):
        a = self.args
        n_setup = SETUP_SAMPLES if a.workload == "cli_cold" else SETUP_SAMPLES - 1
        if a.smoke:
            n_setup = 2
        # Half the set-ups run before the operations and half after, so they
        # sample the machine's load over the whole run.
        self.setups = [self.worker(f"setup{i}", ["--setup-only"])
                       for i in range(n_setup // 2)]
        self.traced = self.repeat = []
        self.spans, self.counts = [], {}
        if a.workload == "cli_cold":
            self._measure_cli()
        else:
            extra = ["--seconds", repr(float(a.seconds))] + (["--trace"] if a.trace else [])
            data = self.worker("work", extra)
            self.setups.append(data)
            self.ops, self.rss_kb = data["ops"], data["rss_kb"]
            if a.trace:
                self.traced, self.repeat = data["traced"], data["repeat"]
                self.spans = [tuple(s) for s in data["spans"]]
                self.counts = data["counts"]
        self.setups += [self.worker(f"setup{i}", ["--setup-only"])
                        for i in range(n_setup // 2, n_setup)]

    def _measure_cli(self):
        import tracer
        w, a = self.w, self.args
        w.env, w.out_dir = self.env, self.out / "ops"
        if not a.trace:
            self.ops, _ = self.workloads.timed_ops(w, a.seconds)
        else:
            spans = self.out / "spans"
            spans.mkdir()
            self.ops, self.traced = self.workloads.timed_ops(
                w, a.seconds, lambda: setattr(w, "trace_dir", spans),
                lambda: setattr(w, "trace_dir", None))
            w.trace_dir, w.trace_tag = spans, "repeat"
            self.repeat = [self.workloads.one_op(w, self.ops[0]["op"])]
            self.spans, self.counts = tracer.merge(
                json.loads(path.read_text(encoding="utf-8"))
                for path in sorted(spans.glob("*.json")))
        ok = [r["rss_kb"] for r in self.ops if r["error"] is None]
        self.rss_kb = max(ok, default=0)

    def check(self):
        """Check every operation's outputs; return (max |da|, failures)."""
        sys.path.insert(0, str(self.root / "src"))
        self.w.setup()
        worst, failures = 0.0, []
        for rec in self.ops + self.traced + self.repeat:
            if rec["error"] is not None:
                failures.append(f"op {rec['op']}: {rec['error']}")
                rec["failed"] = True
                continue
            da, errors = self.w.check(rec)
            worst = max(worst, da)
            rec["failed"] = bool(errors)
            failures += errors
        return worst, failures

    def count_stability(self):
        """Messages for exact counters that did not repeat for this seed."""
        import tracer
        per_op = tracer.op_counters(self.spans, self.counts)
        for rec in self.traced:
            if "bytes_written" in rec:
                per_op[str(rec["op"])]["cli.bytes_written"] = rec["bytes_written"]
        for rec in self.repeat:
            if "bytes_written" in rec:
                per_op[f"repeat{rec['op']}"]["cli.bytes_written"] = rec["bytes_written"]
        exact = {op: {k: c.get(k, 0) for k in tracer.EXACT_COUNTERS}
                 for op, c in per_op.items()}
        problems = []
        for rec in self.repeat:
            first, again = exact.get(str(rec["op"])), exact.get(f"repeat{rec['op']}")
            if first != again:
                problems.append(f"op {rec['op']} run twice in this run: "
                                f"{first} then {again}")
        store = self.root / ".bench_out" / "counts.json"
        saved = json.loads(store.read_text()) if store.is_file() else {}
        code = code_hash(self.root)
        saved = {code: saved.get(code, {})}   # counts of older code are moot
        key = self.args.workload + ("-smoke" if self.args.smoke else "")
        seen = saved[code].setdefault(key, {}).setdefault(str(self.args.seed), {})
        for op, counters in exact.items():
            if op.startswith("repeat"):
                continue
            if op in seen and seen[op] != counters:
                problems.append(f"op {op} differs from an earlier run with this "
                                f"seed: {seen[op]} then {counters}")
            seen.setdefault(op, counters)
        store.write_text(json.dumps(saved))
        return problems, exact

    def per_layer(self, worst_da):
        import tracer
        keep = tracer.select(self.spans, lambda op: not str(op).startswith("repeat"))
        counts = {op: c for op, c in self.counts.items()
                  if not str(op).startswith("repeat")}
        n = len(self.traced)
        metrics = tracer.summarize(keep, counts, n)
        imports = [s["import_s"] for s in self.setups]
        metrics["import.s"] = statistics.median(imports)
        metrics["import.scipy_integrate_loaded"] = float(
            self.setups[0]["scipy_integrate_loaded"])
        written = [r.get("bytes_written", 0) for r in self.traced]
        metrics["cli.bytes_written"] = sum(written) / max(n, 1)
        metrics["propagator.max_abs_da"] = worst_da
        plain = {r["op"]: r["s"] for r in self.ops}
        metrics["trace.overhead_frac"] = statistics.median(
            r["s"] / plain[r["op"]] for r in self.traced) - 1.0
        return metrics


def load_spec():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("design_grid", "cli_cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny operations, for the benchmark's self-tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in REQUIRED if not (root / p).is_file()]
    if missing:
        print(f"bench: run from the root of a sapsim checkout; missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_VARS)
    sys.path.insert(0, str(HERE))

    run = Run(args, root)
    run.measure()
    worst_da, failures = run.check()
    stability, exact = run.count_stability() if args.trace else ([], {})
    ops = run.ops + run.traced + run.repeat
    failed = sum(1 for r in ops if r["failed"])
    correct = not failures and not stability

    times = [r["s"] for r in run.ops]
    end_to_end, per_layer = load_spec()
    if args.trace:
        values = run.per_layer(worst_da)
        units = per_layer
    else:
        op_s, points_per_s = fastest(run.ops, run.w.rotation)
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in run.setups),
            "op_s_min": op_s,
            "points_per_s": points_per_s,
            "peak_rss_mb": run.rss_kb / 1024.0,
        }
        units = end_to_end
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    details = {
        "workload": args.workload, "trace": args.trace, "ops": len(run.ops),
        "op_s_p50": statistics.median(times), "op_s_tail": tail(times),
        "failed_frac": failed / len(ops),
        "setup_samples_s": [s["setup_s"] for s in run.setups],
        "max_abs_da": worst_da, "failures": failures[:20],
        "count_stability": stability, "environment": environment(root, args.seed),
    }
    (run.out / "result.json").write_text(json.dumps(
        {"details": details, "metrics": metrics, "exact_counters": exact,
         "ops": [{k: r[k] for k in ("op", "s", "error", "failed")} for r in ops]},
        indent=1))
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(details))
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
