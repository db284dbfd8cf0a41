"""Seeded benchmark of the promolab loop: generate, train, score, allocate, evaluate.

Run from the root of a checkout:

    python3 bench/run.py --workload train-wide --seed 1 --seconds 50 --trace 0

One run builds the workload's inputs from ``--seed``, runs closed-loop passes
(one after another in this process) for ``--seconds`` seconds, checks every
pass's outputs, and prints one JSON object as its last line of output:
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones named in ``BENCHMARK.json``; with ``--trace 1``
the run spends half its time untraced and half with a wrapper around every call
into promolab's layers, and reports the per-layer metrics. ``bench/README.md``
describes the workloads and the metrics.

The first pass of a run is a warm-up: it is checked, not timed. Every later
pass must produce byte-identical outputs. Run records and trace spans go to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# numpy, and so ``tracing`` and ``workloads``, load only after
# pin_blas_threads() has set the BLAS thread count, inside main()

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_TIMED_PASSES = 3
SETUP_REPEATS = 11
# a fresh interpreter: imports, then one matmul at the workload's width to warm BLAS
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); import numpy as np; import promolab; "
    "a = np.ones((256, int(sys.argv[2]))); float((a @ a.T).sum())"
)


def pin_blas_threads() -> int:
    """Pin BLAS to the CPUs this process may use; must run before numpy loads."""
    threads = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="toy sizes, for the smoke test")
    return p.parse_args(argv)


def measure_setup(width: int) -> list[float]:
    """Wall time of fresh interpreters that import promolab and warm BLAS up."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(width)],
            check=True, cwd=ROOT, stdin=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return times


def environment(args, threads: int, sizes: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "sizes": sizes,
    }


class Run:
    """The passes of one run, their checks and their per-pass metrics."""

    def __init__(self, workload, tracer, work_root: Path):
        self.workload = workload
        self.tracer = tracer
        self.work_root = work_root
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.passes: list[dict] = []
        self.reference_digests = None
        self.last_state = None

    def check(self, label: str, ok: bool):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(label)

    def phase(self, seconds: float, traced: bool, min_passes: int) -> bool:
        """Run passes for ``seconds`` (at least ``min_passes``); False once one raised."""
        import tracing
        import workloads

        start = time.perf_counter()
        done = 0
        while done < min_passes or time.perf_counter() - start < seconds:
            k = len(self.passes)
            work = self.work_root / f"pass{k}"
            work.mkdir()
            self.attempted += 1
            try:
                t0 = time.perf_counter()
                with self.tracer.recording(k):
                    state = self.workload.run(self.tracer, work)
                pass_s = time.perf_counter() - t0
                self.workload.finish(state, work)
            except Exception as exc:  # noqa: BLE001 - a raised call is a failed operation
                self.failed += 1
                self.failures.append(f"pass {k} raised {type(exc).__name__}: {exc}")
                return False
            finally:
                shutil.rmtree(work, ignore_errors=True)
            spans = tracing.PassSpans.of_pass(self.tracer, k)
            for label, ok in workloads.check_pass(state):
                self.check(label, ok)
            if traced:
                self.check("spans nest inside their parents", spans.nesting_ok())
            if self.reference_digests is None:
                self.reference_digests = state.digests
            else:
                same = state.digests == self.reference_digests
                self.check("rerun gives byte-identical outputs", same)
            record = {"pass": k, "traced": traced, "pass_s": pass_s, **tracing.stage_totals(spans)}
            if traced:
                record["layers"] = tracing.layer_metrics(spans)
            self.passes.append(record)
            self.last_state = state
            print(f"pass {k}: {pass_s:.3f}s{' traced' if traced else ''}", file=sys.stderr)
            done += 1
        return True


def median_of(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def end_to_end(run: Run, setup: list[float]) -> dict:
    import tracing

    timed = [r for r in run.passes if not r["traced"]][1:]  # pass 0 is the warm-up
    out = {"setup_s": statistics.median(setup), "pass_s": median_of(timed, "pass_s")}
    # work completed per second: work and time each summed over the timed passes
    for metric, (work, seconds) in tracing.THROUGHPUTS.items():
        out[metric] = sum(r[work] for r in timed) / sum(r[seconds] for r in timed)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def per_layer(run: Run) -> dict:
    import workloads

    untraced = [r for r in run.passes if not r["traced"]][1:]
    traced = [r["layers"] | {"pass_s": r["pass_s"]} for r in run.passes if r["traced"]]
    out = {key: median_of(traced, key) for key in traced[0] if key != "pass_s"}
    out["trace.overhead_frac"] = median_of(traced, "pass_s") / median_of(untraced, "pass_s") - 1.0
    out["model.best_val_loss"] = run.last_state.best_val_loss
    out["model.plan_true_lift_frac"] = workloads.plan_true_lift_frac(run.last_state)
    return out


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    threads = pin_blas_threads()
    if not (SRC / "promolab" / "__init__.py").is_file():
        print(f"error: promolab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import promolab

    if Path(promolab.__file__).resolve().parent != (SRC / "promolab").resolve():
        print(f"error: imported promolab from {promolab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sizes = (workloads.TOY_SIZES if args.toy else workloads.SIZES)[args.workload]
    workload = workloads.WORKLOADS[args.workload](args.seed, sizes, args.toy)
    env = environment(args, threads, workloads.describe(workload))
    print(json.dumps({"environment": env}, sort_keys=True))

    setup = [] if args.trace else measure_setup(workload.cfg.hidden_dims[0])
    OUT.mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    tracer = tracing.Tracer()
    run = Run(workload, tracer, work_root)
    try:
        tracer.install(tracing.STAGE_TARGETS)
        seconds = args.seconds / 2 if args.trace else args.seconds
        ok = run.phase(seconds, traced=False, min_passes=MIN_TIMED_PASSES + 1 - args.trace)
        if ok and args.trace:
            tracer.uninstall()
            tracer.install(tracing.TRACE_TARGETS)
            ok = run.phase(seconds, traced=True, min_passes=2)
    finally:
        tracer.uninstall()
        shutil.rmtree(work_root, ignore_errors=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.dump(OUT / f"{stem}-spans.jsonl")
    if not ok:
        print("error: " + "; ".join(run.failures), file=sys.stderr)
        return 1

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer(run) if args.trace else end_to_end(run, setup)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record = {
        "environment": env,
        "setup_s": setup,
        "passes": run.passes,
        "failures": run.failures,
        "best_val_loss": run.last_state.best_val_loss,
        "plan_true_lift_frac": workloads.plan_true_lift_frac(run.last_state),
        "result": result,
        "wall_s": time.perf_counter() - started,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for failure in run.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
