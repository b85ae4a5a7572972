"""Benchmark for parasimplex: estimator paths in a closed loop.

    python3 perfbench/run.py --workload dantzig-target --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One process runs one operation (one estimator path, see workloads.py) at a
time until ``--seconds`` have passed, checks every output outside the timed
region, and prints its end-to-end metrics (``--trace 0``) or per-layer
metrics (``--trace 1``). The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
metric names and units are those of ``BENCHMARK.json``.

The traced run takes each instance twice, once traced and once not, in
alternating order, so ``trace.overhead`` compares like with like. An
untraced run then reruns its first instances with RSS sampled (``rss.py``),
apart from the timed loop, for ``peak_rss_mb``. The program is imported from ``src/`` of the checkout this file sits in, with
BLAS pinned to one thread. Run metadata, per-operation records and the
spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("dantzig-target", "dantzig-fullpath", "diffnet-sparsity")
# Programs built before the loop, on top of one per operation, so setup_s
# is a median over several builds even when few operations fit.
SETUP_REPS = 15
# On 2 cores, 2 BLAS threads made dantzig-target 3x slower and noisier.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            total["correct"] = False
            continue
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, v in res["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = v
    print(json.dumps(total))
    return status


def expected_units(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def highest_percentile(samples) -> str:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(samples)
    for p, q in ((99.9, 1000), (99.0, 100), (90.0, 10)):
        if n * (1.0 - p / 100.0) >= 10:
            cut = statistics.quantiles(samples, n=q, method="inclusive")[-1]
            return f" p{p:g}={cut:.6g} s"
    return ""


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    for var in BLAS_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    try:
        import parasimplex
    except ImportError as exc:
        print(f"cannot import parasimplex from {SRC}: {exc}", file=sys.stderr)
        return 2
    if SRC not in Path(parasimplex.__file__).resolve().parents:
        print(f"parasimplex was imported from {parasimplex.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    units = expected_units(args.trace)

    import layers
    import meta
    import workloads
    from rss import RssSampler
    from tracer import Tracer

    OUT_DIR.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, OUT_DIR)
    tracer = Tracer() if args.trace else None
    missing = []  # attributes the traced run could not wrap

    # A process's first solve and builds pay one-off costs (first-touch
    # pages, a low malloc mmap threshold) that a library user pays once.
    first = wl.inputs(args.seed, 0)
    wl.warm_up(first)
    setup = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl.build(first)
        setup.append(time.perf_counter() - t0)

    records, kept = [], {}

    def operation(inputs, instance: int, traced: bool) -> dict:
        rec = {"op": len(records), "instance": instance, "traced": traced,
               "ok": False}
        records.append(rec)
        span = lambda name: nullcontext()
        if traced:
            tracer.op = rec["op"]
            missing.extend(layers.install(tracer))
            span = tracer.span
        rec["start"] = time.perf_counter()
        try:
            out = wl.run(inputs, span)
            rec["end"] = time.perf_counter()
        except Exception:  # an operation that raises counts as failed
            rec["detail"] = traceback.format_exc(limit=3)
            return rec
        finally:
            if traced:
                tracer.unwrap_all()
        try:
            verdict = wl.check(inputs, out)
        except Exception:
            rec["detail"] = traceback.format_exc(limit=3)
            return rec
        if "cross_check" not in kept:  # the first operation that completes
            kept["cross_check"] = (rec, wl.cross_check(inputs, out))
        rec.update(
            ok=verdict.ok, mismatch=verdict.mismatch, detail=verdict.detail,
            path_s=out.path_s, solve_s=out.solve_s, build_s=out.build_s,
            pivots=out.path.num_pivots, segments=len(out.path.segments),
            termination=out.path.termination.value,
            terminal_lambda=float(out.path.terminal_lambda),
            program_mb=out.program_mb, path_mb=workloads.path_mb(out.path),
            write_mb=out.write_mb, worst_violation=out.worst_violation,
        )
        return rec

    start = time.perf_counter()
    instance = 0
    while instance == 0 or time.perf_counter() - start < args.seconds:
        inputs = wl.inputs(args.seed, instance)
        if args.trace:
            for traced in ((False, True) if instance % 2 == 0 else (True, False)):
                operation(inputs, instance, traced)
        else:
            operation(inputs, instance, False)
        instance += 1
    measured = time.perf_counter() - start
    timed = len(records)

    # RSS is sampled in a pass of its own, over the first instances again:
    # the sampler process slowed timed operations by about 10% on 2 cores.
    if not args.trace:
        with RssSampler() as sampler:
            for k in range(wl.rss_ops):
                operation(wl.inputs(args.seed, k), k, False)
    max_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    rec, cross_check = kept.get("cross_check", (None, None))
    if cross_check is not None:
        bad = cross_check()
        if bad:
            rec.update(ok=False, detail="; ".join(
                d for d in (rec.get("detail"), f"cross-check: {bad}") if d))

    done = [r for r in records[:timed] if "path_s" in r]
    failed = sum(not r["ok"] for r in records)
    mismatched = sum(bool(r.get("mismatch")) for r in records)
    for r in records:
        if not r["ok"]:
            print(f"FAILED op {r['op']} (instance {r['instance']}): {r['detail']}",
                  file=sys.stderr)
    path_s = [r["path_s"] for r in done if not r["traced"]]
    traced = {r["instance"]: r for r in done if r["traced"]}
    ratios = [traced[r["instance"]]["path_s"] / r["path_s"]
              for r in done if not r["traced"] and r["instance"] in traced]
    if not path_s or (args.trace and not ratios):
        print("no operation completed", file=sys.stderr)
        return 1

    if args.trace:
        per_op = layers.per_op(tracer)
        for r in traced.values():
            r["layers"] = dict(per_op[r["op"]], **{
                "reductions.program_mb": r["program_mb"],
                "engine.path_mb": r["path_mb"],
                "io.write_mb": r["write_mb"]})
        values = layers.summarize([r["layers"] for r in traced.values()])
        values["trace.overhead"] = statistics.median(ratios) - 1.0
        values["engine.status_mismatch_frac"] = mismatched / len(records)
    else:
        for r in records[timed:]:
            r["rss_pass"] = True
            if "path_s" in r:
                r["peak_rss_mb"] = sampler.peak_mb(r["start"], r["end"])
        peaks = [r["peak_rss_mb"] for r in records[timed:]
                 if r.get("peak_rss_mb") is not None]
        if not peaks:
            print("no RSS sample fell inside an operation", file=sys.stderr)
            return 1
        solve_total = sum(r["solve_s"] for r in done)
        values = {
            "path_s": statistics.median(path_s),
            "solve_s": statistics.median(r["solve_s"] for r in done),
            "setup_s": statistics.median(setup + [r["build_s"] for r in done]),
            "pivots_per_s": sum(r["pivots"] for r in done) / solve_total,
            "peak_rss_mb": statistics.median(peaks),
        }
    if set(values) != set(units):
        print(f"metric names differ from BENCHMARK.json: computed "
              f"{sorted(values)}, listed {sorted(units)}", file=sys.stderr)
        return 3
    metrics = {m: {"value": values[m], "unit": u} for m, u in units.items()}
    result = {"correct": failed == 0, "attempted": len(records),
              "failed": failed, "metrics": metrics}

    info = meta.collect(ROOT, args.workload, args.seed)
    info.update(trace=args.trace, seconds=args.seconds, measured_s=measured,
                instances=instance, max_rss_mb=max_rss_mb)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        info["not_traced"] = sorted(set(missing))
        tracer.write_jsonl(OUT_DIR / f"{stem}-spans.jsonl")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        {"meta": info, "result": result, "setup_s": setup, "ops": records},
        indent=1))

    print("meta " + json.dumps(info))
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(records)} failed={failed} correct={'yes' if failed == 0 else 'no'}")
    print(f"path_s median={statistics.median(path_s):.6g} s n={len(path_s)}"
          + highest_percentile(path_s))
    print(f"failed_frac={failed / len(records):.6g} ({failed}/{len(records)})")
    print(f"status_mismatch_frac={mismatched / len(records):.6g} "
          f"({mismatched}/{len(records)})")
    worst = [r["worst_violation"] for r in done if r["worst_violation"] is not None]
    if worst:
        print(f"worst breakpoint violation={max(worst):.3e}")
    print(f"process high-water RSS={max_rss_mb:.6g} MB (ru_maxrss)")
    for m, v in metrics.items():
        print(f"{m}={v['value']:.6g} {v['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
