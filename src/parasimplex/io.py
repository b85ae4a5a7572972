"""File formats: matrices as CSV, programs as JSON or sparse text,
solution paths as JSON/CSV, benchmark results as CSV.

JSON cannot represent infinities, so unbounded interval ends are encoded as
the strings "inf" / "-inf" (and NaN as "nan"); loaders reverse this.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import (
    ParametricProgram,
    PathSegment,
    PivotEvent,
    PivotKind,
    SlackInfo,
    SolutionPath,
    Termination,
)
from .reductions import PathInOriginalCoords

PathLike = Union[str, Path]

BENCH_HEADER = [
    "id", "d", "n", "pivots", "seconds",
    "max_violation", "support_ok", "terminal_lambda", "termination",
]


def _enc_float(x: float) -> Union[float, str]:
    if np.isnan(x):
        return "nan"
    if np.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(x)


def load_matrix_csv(path: PathLike) -> np.ndarray:
    """Comma-separated numeric matrix; one optional header line tolerated."""
    try:
        out = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError:
        out = np.loadtxt(path, delimiter=",", ndmin=2, skiprows=1)
    return out


def load_vector_csv(path: PathLike) -> np.ndarray:
    return load_matrix_csv(path).reshape(-1)


def save_matrix_csv(path: PathLike, M: np.ndarray) -> None:
    np.savetxt(path, np.atleast_2d(M), delimiter=",", fmt="%.17g")


def save_program_json(path: PathLike, p: ParametricProgram) -> None:
    doc = {
        "m": p.m,
        "n": p.n,
        "kind": p.kind.value,
        "A": p.A.tolist(),
        "b": p.b.tolist(),
        "b_bar": p.b_bar.tolist(),
        "c": p.c.tolist(),
        "c_bar": p.c_bar.tolist(),
    }
    Path(path).write_text(json.dumps(doc, indent=1))


def load_program_json(path: PathLike) -> ParametricProgram:
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError("program JSON must be an object")
    missing = [k for k in ("A", "b", "b_bar", "c", "c_bar") if k not in doc]
    if missing:
        raise ValueError(f"program JSON has no {', '.join(missing)} key")
    p = ParametricProgram(
        A=np.asarray(doc["A"], dtype=float),
        b=np.asarray(doc["b"], dtype=float),
        b_bar=np.asarray(doc["b_bar"], dtype=float),
        c=np.asarray(doc["c"], dtype=float),
        c_bar=np.asarray(doc["c_bar"], dtype=float),
        kind=doc.get("kind", "equality"),
    )
    if "m" in doc and int(doc["m"]) != p.m:
        raise ValueError(f"declared m={doc['m']} but A has {p.m} rows")
    if "n" in doc and int(doc["n"]) != p.n:
        raise ValueError(f"declared n={doc['n']} but A has {p.n} columns")
    return p


_COO_HEADER = re.compile(r"^psm-coo\s+m=(\d+)\s+n=(\d+)\s+kind=(\S+)$")


def save_program_coo(path: PathLike, p: ParametricProgram) -> None:
    """Sparse text format: a header line, then one nonzero per line."""
    lines = [f"psm-coo m={p.m} n={p.n} kind={p.kind.value}"]
    for (i, j) in zip(*np.nonzero(p.A)):
        lines.append(f"A {i} {j} {float(p.A[i, j])!r}")
    for tag, vec in (("b", p.b), ("bbar", p.b_bar), ("c", p.c), ("cbar", p.c_bar)):
        for i in np.flatnonzero(vec):
            lines.append(f"{tag} {i} {float(vec[i])!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def _coo_index(rec: List[str], k: int, size: int) -> int:
    """Field k of a COO record as an index below ``size``; a negative one
    would otherwise wrap around to the end."""
    i = int(rec[k])
    if not 0 <= i < size:
        raise ValueError(f"index {i} out of range 0..{size - 1} in record: {rec}")
    return i


def load_program_coo(path: PathLike) -> ParametricProgram:
    header = None
    records: List[List[str]] = []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            mt = _COO_HEADER.match(line)
            if not mt:
                raise ValueError(f"bad header line: {line!r}")
            header = mt
            continue
        records.append(line.split())
    if header is None:
        raise ValueError("empty file")
    m, n, kind = int(header.group(1)), int(header.group(2)), header.group(3)
    A = np.zeros((m, n))
    b = np.zeros(m)
    b_bar = np.zeros(m)
    c = np.zeros(n)
    c_bar = np.zeros(n)
    vec = {"b": b, "bbar": b_bar, "c": c, "cbar": c_bar}
    for rec in records:
        tag = rec[0]
        if tag == "A":
            if len(rec) != 4:
                raise ValueError(f"bad A record: {rec}")
            A[_coo_index(rec, 1, m), _coo_index(rec, 2, n)] = float(rec[3])
        elif tag in vec:
            if len(rec) != 3:
                raise ValueError(f"bad {tag} record: {rec}")
            vec[tag][_coo_index(rec, 1, len(vec[tag]))] = float(rec[2])
        else:
            raise ValueError(f"unknown record tag {tag!r}")
    return ParametricProgram(A=A, b=b, b_bar=b_bar, c=c, c_bar=c_bar, kind=kind)


def _affine_doc(indices: np.ndarray, base: np.ndarray, slope: np.ndarray) -> Dict:
    return {"indices": indices.tolist(), "base": base.tolist(), "slope": slope.tolist()}


def _affine_arrays(doc: Dict) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (indices, base, slope) arrays of an ``_affine_doc``."""
    return (np.asarray(doc["indices"], dtype=np.intp),
            np.asarray(doc["base"], dtype=float),
            np.asarray(doc["slope"], dtype=float))


def _segment_doc(seg: PathSegment) -> Dict:
    return {
        "lambda_lo": _enc_float(seg.lambda_lo),
        "lambda_hi": _enc_float(seg.lambda_hi),
        "primal": _affine_doc(seg.primal_indices, seg.primal_base, seg.primal_slope),
        "dual": _affine_doc(seg.dual_indices, seg.dual_base, seg.dual_slope),
        "entering": seg.entering,
        "leaving": seg.leaving,
    }


def save_path_json(path: PathLike, sol: SolutionPath) -> None:
    doc = {
        "num_cols": sol.num_cols,
        "termination": sol.termination.value,
        "terminal_lambda": _enc_float(sol.terminal_lambda),
        "termination_detail": sol.termination_detail,
        "slack_info": (
            None if sol.slack_info is None else {
                "original_n": sol.slack_info.original_n,
                "num_rows": sol.slack_info.num_rows,
            }
        ),
        "segments": [_segment_doc(s) for s in sol.segments],
        "events": [
            {
                "kind": e.kind.value,
                "entering": e.entering,
                "leaving": e.leaving,
                "lambda_star": _enc_float(e.lambda_star),
                "t": _enc_float(e.t),
                "t_bar": _enc_float(e.t_bar),
                "s": _enc_float(e.s),
                "s_bar": _enc_float(e.s_bar),
            }
            for e in sol.events
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=1))


def load_path_json(path: PathLike) -> SolutionPath:
    doc = json.loads(Path(path).read_text())
    n_cols = int(doc["num_cols"])
    segments = [
        # PathSegment's fields in order: the interval, n_cols, primal, dual
        PathSegment(float(s["lambda_lo"]), float(s["lambda_hi"]), n_cols,
                    *_affine_arrays(s["primal"]), *_affine_arrays(s["dual"]),
                    entering=s.get("entering"), leaving=s.get("leaving"))
        for s in doc["segments"]
    ]
    events = [
        PivotEvent(
            kind=PivotKind(e["kind"]),
            entering=int(e["entering"]),
            leaving=int(e["leaving"]),
            lambda_star=float(e["lambda_star"]),
            t=float(e["t"]),
            t_bar=float(e["t_bar"]),
            s=float(e["s"]),
            s_bar=float(e["s_bar"]),
        )
        for e in doc.get("events", [])
    ]
    si = doc.get("slack_info")
    return SolutionPath(
        segments=segments,
        events=events,
        termination=Termination(doc["termination"]),
        terminal_lambda=float(doc["terminal_lambda"]),
        num_cols=n_cols,
        slack_info=None if si is None else SlackInfo(
            original_n=int(si["original_n"]), num_rows=int(si["num_rows"])
        ),
        termination_detail=doc.get("termination_detail", ""),
    )


def _write_path_rows(
    path: PathLike, pieces: Iterable, violations: Optional[Sequence[float]] = None
) -> None:
    """One CSV row per (segment, variable) from per-segment pieces
    ``(lambda_lo, lambda_hi, indices, base, slope)``. ``violations`` adds
    one extra column, constant per segment."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        header = ["segment_id", "lambda_lo", "lambda_hi",
                  "var_index", "base", "slope"]
        if violations is not None:
            header.append("violation_at_lo")
        w.writerow(header)
        for sid, (lo, hi, idx, base, slope) in enumerate(pieces):
            lo, hi = repr(float(lo)), repr(float(hi))
            tail = () if violations is None else (repr(float(violations[sid])),)
            # csv writes a Python float as its repr, like the strings above
            rows = zip(idx.tolist(), base.tolist(), slope.tolist())
            w.writerows((sid, lo, hi, j, b, s) + tail for j, b, s in rows)


def save_path_csv(path: PathLike, sol: SolutionPath) -> None:
    """Primal path rows: one line per (segment, basic variable)."""
    _write_path_rows(path, (
        (s.lambda_lo, s.lambda_hi, s.primal_indices, s.primal_base, s.primal_slope)
        for s in sol.segments
    ))


def save_original_path_csv(
    path: PathLike,
    orig: PathInOriginalCoords,
    violations: Optional[Sequence[float]] = None,
) -> None:
    """Recovered-coordinate path rows (matrix problems use column-major flat
    indices). ``violations`` adds one extra column, constant per segment."""

    def pieces():
        for seg in orig.segments:
            base = np.asarray(seg.base).flatten(order="F")
            slope = np.asarray(seg.slope).flatten(order="F")
            nz = np.flatnonzero((base != 0.0) | (slope != 0.0))
            yield seg.lambda_lo, seg.lambda_hi, nz, base[nz], slope[nz]

    _write_path_rows(path, pieces(), violations)


def save_bench_csv(path: PathLike, records: Sequence) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(BENCH_HEADER)
        for r in records:
            w.writerow([
                r.instance_id, r.d, r.n, r.pivot_count,
                repr(float(r.wall_time)), repr(float(r.max_feas_violation)),
                int(r.support_recovered), repr(float(r.terminal_lambda)),
                r.termination,
            ])


def save_summary_json(path: PathLike, summary: Dict[str, float]) -> None:
    Path(path).write_text(
        json.dumps({k: _enc_float(v) for k, v in summary.items()}, indent=1)
    )
