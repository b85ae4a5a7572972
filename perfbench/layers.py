"""The attributes a traced operation wraps, and the per-layer metrics its
spans give.

Metric names ending in ``_self_s`` are span time minus child spans; the
other ``_s`` metrics are whole span time. Each is the median over traced
operations of the per-operation sum, except ``engine.certificate_pass_ratio``
(passes over calls, all traced operations pooled) and
``linalg.lu_factor_dim`` (largest basis factored).
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List

import numpy as np

from parasimplex import engine, linalg

from tracer import Tracer


def mb(*arrays: np.ndarray) -> float:
    """Computed size of the arrays in MB (10^6 bytes)."""
    return sum(a.nbytes for a in arrays) / 1e6


def _std_form_info(args, result) -> Dict:
    p = result[0]
    return {"mb": mb(p.A, p.b, p.b_bar, p.c, p.c_bar)}


def install(tracer: Tracer) -> List[str]:
    """Wrap the calls ``solve_path`` makes; returns the ones not found."""
    targets = [
        (engine, "to_standard_form", "core.to_standard_form", _std_form_info),
        (engine, "initialize", "engine.initialize", None),
        (engine, "compute_lambda_star", "engine.pricing", None),
        (engine, "primal_pivot", "engine.pivot_primal", None),
        (engine, "dual_pivot", "engine.pivot_dual", None),
        (engine, "_post_pivot_ok", "engine.certificate",
         lambda args, ok: {"ok": bool(ok)}),
        (engine.DictionaryState, "refresh", "engine.refresh", None),
        (linalg, "lu_factor", "linalg.lu_factor",
         lambda args, lu: {"dim": int(np.shape(args[0])[0])}),
        (linalg.BasisFactorization, "solve", "linalg.ftran", None),
        (linalg.BasisFactorization, "solve_transpose", "linalg.btran", None),
        (linalg.BasisFactorization, "replace_column", "linalg.update", None),
    ]
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, name, info in targets
            if not tracer.wrap(owner, attr, name, info)]


# metric -> (span name, "total" | "self" | "calls")
_FROM_SPANS = {
    "reductions.build_s": ("reductions.build", "total"),
    "reductions.recover_s": ("reductions.recover", "total"),
    "experiments.violations_s": ("experiments.violations", "total"),
    "io.write_s": ("io.write", "total"),
    "core.to_standard_form_s": ("core.to_standard_form", "total"),
    "engine.certificate_s": ("engine.certificate", "total"),
    "engine.certificate_calls": ("engine.certificate", "calls"),
    "engine.pricing_s": ("engine.pricing", "total"),
    "engine.pricing_calls": ("engine.pricing", "calls"),
    "engine.pivots_primal": ("engine.pivot_primal", "calls"),
    "engine.pivots_dual": ("engine.pivot_dual", "calls"),
    "engine.refresh_self_s": ("engine.refresh", "self"),
    "engine.refresh_calls": ("engine.refresh", "calls"),
    "engine.initialize_self_s": ("engine.initialize", "self"),
    "engine.solve_self_s": ("engine.solve", "self"),
    "linalg.lu_factor_s": ("linalg.lu_factor", "total"),
    "linalg.lu_factor_calls": ("linalg.lu_factor", "calls"),
    "linalg.ftran_s": ("linalg.ftran", "total"),
    "linalg.ftran_calls": ("linalg.ftran", "calls"),
    "linalg.btran_s": ("linalg.btran", "total"),
    "linalg.btran_calls": ("linalg.btran", "calls"),
    "linalg.update_self_s": ("linalg.update", "self"),
    "linalg.update_calls": ("linalg.update", "calls"),
}


def per_op(tracer: Tracer) -> Dict[int, Dict[str, float]]:
    """Per traced operation: every span-derived metric, the computed
    standard-form size, and the certificate/update/LU facts."""
    sums: Dict[int, Dict] = defaultdict(
        lambda: defaultdict(lambda: {"total": 0.0, "self": 0.0, "calls": 0}))
    facts: Dict[int, Dict[str, float]] = defaultdict(
        lambda: {"engine.certificate_passes": 0, "linalg.update_degenerate": 0,
                 "linalg.lu_factor_dim": 0, "core.std_form_mb": 0.0})
    for span, own in zip(tracer.spans, tracer.self_times()):
        name, start, end, _, op, info = span
        s = sums[op][name]
        s["total"] += end - start
        s["self"] += own
        s["calls"] += 1
        info = info or {}
        f = facts[op]
        if name == "engine.certificate" and info.get("ok"):
            f["engine.certificate_passes"] += 1
        elif name == "linalg.update" and info.get("error") == "UpdateDegenerate":
            f["linalg.update_degenerate"] += 1
        elif name == "linalg.lu_factor" and "dim" in info:
            f["linalg.lu_factor_dim"] = max(f["linalg.lu_factor_dim"], info["dim"])
        elif name == "core.to_standard_form" and "mb" in info:
            f["core.std_form_mb"] = info["mb"]
    out = {}
    for op, by_name in sums.items():
        row = {m: by_name[span][kind] if span in by_name else 0
               for m, (span, kind) in _FROM_SPANS.items()}
        row["engine.pivot_self_s"] = sum(
            by_name[k]["self"] for k in ("engine.pivot_primal", "engine.pivot_dual")
            if k in by_name)
        row.update(facts[op])
        out[op] = row
    return out


def summarize(rows: List[Dict[str, float]]) -> Dict[str, float]:
    """Fold per-operation rows into one value per metric."""
    out = {m: statistics.median(r[m] for r in rows)
           for m in rows[0]
           if m not in ("engine.certificate_passes", "linalg.lu_factor_dim")}
    calls = sum(r["engine.certificate_calls"] for r in rows)
    passes = sum(r["engine.certificate_passes"] for r in rows)
    out["engine.certificate_pass_ratio"] = passes / calls if calls else 0.0
    out["linalg.lu_factor_dim"] = max(r["linalg.lu_factor_dim"] for r in rows)
    return out
