"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py [workload ...]

At the shortest run length (1 s) it checks, for each workload, that the
untraced run prints every end-to-end metric of BENCHMARK.json and the
traced run every per-layer metric, each with its declared unit, that all
units pass their gates, and that two traced runs with one seed give
identical ``.calls`` counts.  Exits 1 and names each mismatch otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, trace: int, seed: int = 7) -> dict:
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def compare(label: str, result: dict, declared: list[dict]) -> list[str]:
    problems = []
    if not result["correct"] or result["failed"]:
        problems.append(f"{label}: {result['failed']} of {result['attempted']} units failed")
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    for name in sorted(want.keys() - got.keys()):
        problems.append(f"{label}: metric {name} not printed")
    for name in sorted(got.keys() - want.keys()):
        problems.append(f"{label}: metric {name} printed but not declared")
    for name in sorted(want.keys() & got.keys()):
        if want[name] != got[name]:
            problems.append(f"{label}: {name} in {got[name]}, declared {want[name]}")
    return problems


def main(argv: list[str]) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = argv or [w["name"] for w in bench["workloads"]]
    problems = []
    for wl in names:
        problems += compare(f"{wl} trace=0", run(wl, 0), bench["end_to_end"])
        first, second = run(wl, 1), run(wl, 1)
        problems += compare(f"{wl} trace=1", first, bench["per_layer"])
        for name, m in first["metrics"].items():
            if name.endswith(".calls") and m["value"] != second["metrics"][name]["value"]:
                problems.append(f"{wl}: {name} {m['value']} then "
                                f"{second['metrics'][name]['value']} for one seed")
        print(f"{wl}: checked", flush=True)
    for p in problems:
        print(p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
