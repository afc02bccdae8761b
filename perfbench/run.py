"""fdstab benchmark: burst-robust pass times, set-up time, memory, gates.

    python3 perfbench/run.py --workload flows --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory, and the run fails when it is missing.

One run is one workload in this fresh interpreter.  Each input kind of the
workload gets one warm-up call on a short horizon; then, for ``--seconds``
seconds, the kinds run round-robin, each unit on a freshly drawn input,
timed, then checked against the pinned tolerances.  A kind's time is the
fastest of its passing units: the machine's slow bursts only add time, so
they move the other samples and not the statistic.  A slow period of a
shared host that covers the whole window (on a 2-core VM it has read up
to 1.4x for several minutes) moves every sample and is not corrected; the
burst probe on the meta line records it.

``--trace 0`` prints the end-to-end metrics:
  pass_s       sum over kinds of the kind's fastest passing unit seconds
  setup_s      fastest of short child interpreters' times from spawn to
               inputs ready (imports and input generation)
  peak_rss_mb  peak resident memory of this process
  pass_ratio   passing units / attempted units (fail_ratio = 1 - this)

``--trace 1`` repeats the untraced measurement, then runs one traced pass
(one unit per kind, on inputs drawn from their own seeded stream, so call
counts repeat exactly for a seed) and prints the per-layer metrics.
The last line of standard output is the result JSON; the line before it
holds the machine record and the burst probe.  Records and spans are also
written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 15
BURST_CHUNKS = 40
# wall-clock budgets that the verification battery enforces
SHOOT_BUDGET_S = 5.0
FLOW_PROPERTIES_BUDGET_S = 60.0


def _import_workloads():
    src = ROOT / "src"
    if not (src / "fdstab" / "__init__.py").is_file():
        sys.exit(f"no fdstab sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import fdstab
    if Path(fdstab.__file__).resolve().parent != src / "fdstab":
        sys.exit(f"fdstab imported from {fdstab.__file__}, not from {src}")
    import workloads
    return workloads


def _rng(seed: int, stream: int):
    import numpy as np
    return np.random.default_rng([seed, stream])


MEASURE, WARM, TRACED = 0, 1, 2   # independent seeded input streams


# -- machine record and burst probe -------------------------------------------

def _openblas_threads():
    import ctypes
    counts = {}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                counts[Path(lib).name] = fn()
                break
    return counts


def machine_record() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "openblas_threads": _openblas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def burst_probe() -> dict:
    """Time a fixed pure-Python loop in chunks; a chunk slower than 1.5x
    the fastest one is in the machine's slow mode."""
    times = []
    for _ in range(BURST_CHUNKS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        times.append(time.perf_counter() - t0)
    fast = min(times)
    return {"chunk_ms_median": 1e3 * statistics.median(times),
            "chunk_ms_min": 1e3 * fast,
            "slow_share": sum(t > 1.5 * fast for t in times) / len(times)}


# -- set-up ----------------------------------------------------------------------

def setup_child(workload: str, seed: int) -> None:
    """Import, build the workload and draw one pass of inputs, then print
    the clock; the parent subtracts its spawn time."""
    wl = _import_workloads()
    kinds = wl.WORKLOADS[workload]()
    rng = _rng(seed, MEASURE)
    for kind in kinds:
        kind.draw(rng)
    print(time.perf_counter())


def setup_probe(workload: str, seed: int) -> float:
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload",
                          workload, "--seed", str(seed), "--setup-child"],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1]) - t0


# -- units -----------------------------------------------------------------------

class Tally:
    def __init__(self, kinds):
        self.times = {k.name: [] for k in kinds}       # passing units
        self.failed_times = {k.name: [] for k in kinds}
        self.accuracy: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def unit(self, kind, x, tracer=None) -> float:
        """Time one call, gate its output, record it; returns seconds.
        With a tracer, only the timed call is traced, not the gate."""
        self.attempted += 1
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            try:
                out = kind.run(x)
            finally:
                dt = time.perf_counter() - t0
                if tracer is not None:
                    tracer.uninstall()
            acc = kind.check(x, out)
        except Exception as exc:  # a raising unit is a failed unit
            self.failed += 1
            self.failed_times[kind.name].append(dt)
            self.errors.append(f"{kind.name}: {type(exc).__name__}: {exc}")
            return dt
        self.times[kind.name].append(dt)
        for key, val in acc.items():
            # the tau margin is worst at its least, the other figures at their most
            worse = min if key == "tau_margin" else max
            self.accuracy[key] = worse(self.accuracy.get(key, val), float(val))
        return dt

    def per_kind(self, stat) -> dict[str, float]:
        # a kind with no passing unit falls back to its failed units' times,
        # so failing never reads as faster
        return {name: stat(ts or self.failed_times[name] or [0.0])
                for name, ts in self.times.items()}


def warm_up(kinds, seed: int, tally: Tally) -> None:
    rng = _rng(seed, WARM)
    for kind in kinds:
        try:
            kind.warm(kind.draw(rng))
        except Exception as exc:
            tally.attempted += 1
            tally.failed += 1
            tally.errors.append(f"{kind.name} warm-up: {type(exc).__name__}: {exc}")


def measure(kinds, workload: str, seed: int, seconds: float, tally: Tally,
            probes: int) -> list:
    """Whole round-robin passes over the kinds, so every kind has the same
    sample count; a pass starts only while it is expected to end within
    half a pass of ``seconds``.  ``probes`` set-up probes are spread over
    the window."""
    rng = _rng(seed, MEASURE)
    setups = []
    t_start = time.perf_counter()
    passes = 0
    while True:
        elapsed = time.perf_counter() - t_start
        if passes and elapsed + 0.5 * elapsed / passes >= seconds:
            break
        for kind in kinds:
            if len(setups) < probes and \
                    time.perf_counter() - t_start >= len(setups) * seconds / probes:
                setups.append(setup_probe(workload, seed))
            tally.unit(kind, kind.draw(rng))
        passes += 1
    while len(setups) < probes:
        setups.append(setup_probe(workload, seed))
    return setups


def tail(tally: Tally, medians: dict) -> tuple[float, float, int]:
    """Pooled unit time over its kind's median at the highest percentile
    with at least 10 samples beyond it; (0, 0, n) when n <= 10."""
    ratios = sorted(t / medians[name] for name, ts in tally.times.items() for t in ts)
    n = len(ratios)
    if n <= 10:
        return 0.0, 0.0, n
    return ratios[n - 11], 100.0 * (n - 10) / n, n


# -- main ------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_child:
        setup_child(args.workload, args.seed)
        return 0
    wl = _import_workloads()
    if args.workload not in wl.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; one of {sorted(wl.WORKLOADS)}")
    kinds = wl.WORKLOADS[args.workload]()
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "machine": machine_record(), "burst_before": burst_probe()}

    tally = Tally(kinds)
    warm_up(kinds, args.seed, tally)
    # setup_s is an end-to-end metric, so the traced run skips its probes
    setups = measure(kinds, args.workload, args.seed, args.seconds, tally,
                     0 if args.trace else SETUP_PROBES)
    meta["burst_after"] = burst_probe()
    medians = tally.per_kind(statistics.median)
    pass_s = sum(tally.per_kind(min).values())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    attempted, failed = tally.attempted, tally.failed
    if args.trace:
        metrics, traced = traced_metrics(wl, kinds, args.seed, tally, medians, pass_s,
                                         out_dir / f"{stem}-spans.json")
        attempted += traced.attempted
        failed += traced.failed
        metrics["fail_ratio"] = (failed / attempted, "ratio")
        meta.update(traced_unit_times_s=traced.times, traced_errors=traced.errors)
    else:
        metrics = {"pass_s": (pass_s, "s"),
                   "setup_s": (min(setups), "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB"),
                   "pass_ratio": (1.0 - tally.failed / tally.attempted, "ratio")}
    meta.update(setup_samples_s=setups, unit_times_s=tally.times,
                failed_unit_times_s=tally.failed_times, errors=tally.errors)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}
    (out_dir / f"{stem}.json").write_text(json.dumps({"meta": meta, "result": result},
                                                     indent=1))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


def traced_metrics(wl, kinds, seed, tally, medians, pass_s, spans_path):
    """Per-layer metrics from one traced pass, on its own tally, and from
    the untraced run's figures; returns them with the traced tally."""
    from spans import Tracer

    all_kinds = [k.name for ks in wl.WORKLOADS.values() for k in ks()]
    tracer, traced = Tracer(), Tally(kinds)
    rng = _rng(seed, TRACED)
    inputs = [(kind, kind.draw(rng)) for kind in kinds]
    traced_s = sum(traced.unit(kind, x, tracer) for kind, x in inputs)
    tracer.write(spans_path)

    metrics = {}
    for layer, tot in tracer.layer_totals().items():
        metrics[f"{layer}.calls"] = (tot["calls"], "count")
        metrics[f"{layer}.self_s"] = (tot["self_s"], "s")
    metrics["trace.overhead"] = (traced_s / pass_s - 1.0, "ratio")
    for name in all_kinds:   # kinds of other workloads read 0 with n = 0
        metrics[f"kind.{name}_s"] = (medians.get(name, 0.0), "s")
        metrics[f"kind.{name}_n"] = (len(tally.times.get(name, [])), "count")
    ratio, pct, n = tail(tally, medians)
    metrics["tail.ratio"] = (ratio, "ratio")
    metrics["tail.pct"] = (pct, "%")
    metrics["tail.n"] = (n, "count")
    for key, unit in (("moment_residual", "ratio"), ("mass_drift", "ratio"),
                      ("tau_margin", "1")):
        metrics[f"accuracy.{key}"] = (tally.accuracy.get(key, 0.0), unit)
    metrics["budget.shoot_s"] = (medians.get("shoot", 0.0), "s")
    metrics["budget.shoot_margin_s"] = (
        SHOOT_BUDGET_S - medians["shoot"] if "shoot" in medians else 0.0, "s")
    metrics["budget.flow_properties_s"] = (medians.get("fdr", 0.0), "s")
    metrics["budget.flow_properties_margin_s"] = (
        FLOW_PROPERTIES_BUDGET_S - medians["fdr"] if "fdr" in medians else 0.0, "s")
    return metrics, traced


if __name__ == "__main__":
    sys.exit(main())
