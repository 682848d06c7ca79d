"""One benchmark process: set up a workload, then run its operations.

    python bench/worker.py WORKLOAD SEED RESULT_FILE [--seconds S] [--trace]
                           [--setup-only] [--smoke]

Started by run.py with PYTHONPATH pointing at the package sources. It
reports, as JSON in RESULT_FILE, the monotonic time at which its inputs
were ready (so the parent can measure set-up from before the interpreter
started), how long ``import sapsim`` took, and, unless --setup-only, one
record per operation and its own peak resident memory.

With --trace each operation runs untraced and traced (see
workloads.timed_ops), then the first one runs traced once more so that its
exact counters can be compared.
"""

import argparse
import json
import resource
import sys
import time


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("result")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import sapsim
    import_s = time.perf_counter() - start
    scipy_integrate_loaded = "scipy.integrate" in sys.modules

    import workloads
    from pathlib import Path
    w = workloads.WORKLOADS[args.workload](Path.cwd(), args.seed, args.smoke)
    w.setup()
    out = {"ready": time.monotonic(), "import_s": import_s,
           "scipy_integrate_loaded": scipy_integrate_loaded}

    if not args.setup_only:
        # Untimed warm-up: first-call costs inside numpy and scipy are paid
        # once per process, not once per operation.
        layout = sapsim.build_folded5(7500.0, 22.0, 0.03, 6.0)
        model = sapsim.calibrated_model(layout, 0.15, 0.7175, 1550.0)
        sapsim.propagate(layout, model, 1550.0, sapsim.nominal_input(layout, 1550.0))

        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            plain, out["traced"] = workloads.timed_ops(
                w, args.seconds, tracer.install, tracer.uninstall, tracer)
            first = plain[0]["op"]
            tracer.install()
            out["repeat"] = [workloads.one_op(w, first, tracer, f"repeat{first}")]
            tracer.uninstall()
            out.update(tracer.snapshot())
        else:
            plain, _ = workloads.timed_ops(w, args.seconds)
        out["ops"] = plain
        out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
