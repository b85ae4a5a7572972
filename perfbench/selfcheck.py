"""Checks the benchmark against itself.

    python3 perfbench/selfcheck.py [--seed 5]

For each workload it makes two traced runs of one instance with the same
seed and requires identical pivot counts, computed ``*_mb`` sizes and call
counts, run against run and traced operation against untraced one. It also
requires the metrics printed by a traced and an untraced run to be exactly
those BENCHMARK.json lists, with the same units. Exits 0 when all hold.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import OUT_DIR, ROOT, WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
# Fields of an operation record that must repeat exactly.
OP_FIELDS = ("instance", "traced", "ok", "pivots", "segments", "termination",
             "program_mb", "path_mb", "write_mb")
# Per-layer values that are counts or computed sizes, not times.
LAYER_SUFFIXES = ("_calls", "_mb", "_dim", "_degenerate", "_passes",
                  "pivots_primal", "pivots_dual")


def run(workload: str, seed: int, trace: int):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    printed = json.loads(proc.stdout.strip().splitlines()[-1])
    saved = json.loads(
        (OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return printed, saved["ops"]


def repeatable(op: dict) -> dict:
    out = {k: op.get(k) for k in OP_FIELDS}
    out.update({k: v for k, v in op.get("layers", {}).items()
                if k.endswith(LAYER_SUFFIXES)})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=5)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {t: {m["name"]: m["unit"] for m in spec[key]}
              for t, key in ((0, "end_to_end"), (1, "per_layer"))}
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        print(f"BENCHMARK.json workloads differ from {WORKLOADS}")
        return 1

    problems = []
    for w in WORKLOADS:
        before = len(problems)
        first, ops_a = run(w, args.seed, 1)
        _, ops_b = run(w, args.seed, 1)
        plain, _ = run(w, args.seed, 0)
        a = [repeatable(op) for op in ops_a]
        b = [repeatable(op) for op in ops_b]
        if a != b:
            problems.append(f"{w}: two runs with seed {args.seed} differ:\n  {a}\n  {b}")
        untraced, traced = sorted(ops_a, key=lambda op: op["traced"])
        for k in ("pivots", "segments", "termination", "path_mb", "write_mb"):
            if untraced.get(k) != traced.get(k):
                problems.append(f"{w}: tracing changed {k}: "
                                f"{untraced.get(k)} -> {traced.get(k)}")
        for t, res in ((1, first), (0, plain)):
            got = {m: v["unit"] for m, v in res["metrics"].items()}
            if got != listed[t]:
                problems.append(f"{w} --trace {t}: printed {got}, "
                                f"BENCHMARK.json lists {listed[t]}")
            if not res["correct"]:
                problems.append(f"{w} --trace {t}: outputs failed their checks")
        print(f"{w}: {'ok' if len(problems) == before else 'see below'}", flush=True)
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
