"""File formats: matrices as CSV, programs as JSON or sparse text,
solution paths as JSON/CSV, benchmark results as CSV.

JSON cannot represent infinities, so unbounded interval ends are encoded as
the strings "inf" / "-inf" (and NaN as "nan"); loaders reverse this.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import re
import warnings
from enum import Enum
from pathlib import Path
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union, get_type_hints,
)

import numpy as np

from .core import (
    ParametricProgram,
    PathSegment,
    PivotEvent,
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
    with warnings.catch_warnings():
        # an empty file is reported below, as an input error
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            out = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError:
            out = np.loadtxt(path, delimiter=",", ndmin=2, skiprows=1)
    if out.size == 0:
        raise ValueError(f"{path} has no numeric rows")
    return out


def load_vector_csv(path: PathLike) -> np.ndarray:
    return load_matrix_csv(path).reshape(-1)


def save_matrix_csv(path: PathLike, M: np.ndarray) -> None:
    np.savetxt(path, np.atleast_2d(M), delimiter=",", fmt="%.17g")


# A program's vectors, named as its fields and its JSON keys.
_VECTORS = ("b", "b_bar", "c", "c_bar")


def save_program_json(path: PathLike, p: ParametricProgram) -> None:
    doc = {"m": p.m, "n": p.n, "kind": p.kind.value, "A": p.A.to_dense().tolist(),
           **{k: getattr(p, k).tolist() for k in _VECTORS}}
    Path(path).write_text(json.dumps(doc, indent=1))


def load_program_json(path: PathLike) -> ParametricProgram:
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError("program JSON must be an object")
    missing = [k for k in ("A",) + _VECTORS if k not in doc]
    if missing:
        raise ValueError(f"program JSON has no {', '.join(missing)} key")
    # ParametricProgram converts each entry to a float array and checks it
    p = ParametricProgram(**{k: doc[k] for k in ("A",) + _VECTORS},
                          kind=doc.get("kind", "equality"))
    if "m" in doc and int(doc["m"]) != p.m:
        raise ValueError(f"declared m={doc['m']} but A has {p.m} rows")
    if "n" in doc and int(doc["n"]) != p.n:
        raise ValueError(f"declared n={doc['n']} but A has {p.n} columns")
    return p


_COO_HEADER = re.compile(r"^psm-coo\s+m=(\d+)\s+n=(\d+)\s+kind=(\S+)$")


def save_program_coo(path: PathLike, p: ParametricProgram) -> None:
    """Sparse text format: a header line, then one nonzero per line."""
    lines = [f"psm-coo m={p.m} n={p.n} kind={p.kind.value}"]
    A = p.A.to_dense()
    for (i, j) in zip(*np.nonzero(A)):
        lines.append(f"A {i} {j} {float(A[i, j])!r}")
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
    vec = {"b": np.zeros(m), "bbar": np.zeros(m), "c": np.zeros(n), "cbar": np.zeros(n)}
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
    return ParametricProgram(A, *vec.values(), kind=kind)  # vec is in field order


def _affine_doc(indices: np.ndarray, base: np.ndarray, slope: np.ndarray) -> Dict:
    return {"indices": indices.tolist(), "base": base.tolist(), "slope": slope.tolist()}


def _affine_arrays(doc: Dict, n_cols: int, where: str) -> Tuple[np.ndarray, ...]:
    """The (indices, base, slope) arrays of an ``_affine_doc``; ``where``
    names it in the ValueError for an index out of range or unequal lengths."""
    idx = np.asarray(doc["indices"], dtype=np.intp)
    base, slope = np.asarray(doc["base"], dtype=float), np.asarray(doc["slope"], dtype=float)
    if not len(idx) == len(base) == len(slope):
        raise ValueError(f"{where}: {len(idx)} indices, {len(base)} base and "
                         f"{len(slope)} slope entries")
    if idx.size and not 0 <= idx.min() <= idx.max() < n_cols:
        raise ValueError(f"{where}: index out of range 0..{n_cols - 1}")
    return idx, base, slope


def _segment_doc(seg: PathSegment) -> Dict:
    return {
        "lambda_lo": _enc_float(seg.lambda_lo),
        "lambda_hi": _enc_float(seg.lambda_hi),
        "primal": _affine_doc(seg.primal_indices, seg.primal_base, seg.primal_slope),
        "dual": _affine_doc(seg.dual_indices, seg.dual_base, seg.dual_slope),
    }


def _fields_doc(obj) -> Dict:
    """A dataclass's fields in declaration order: an Enum as its value, a
    float through ``_enc_float``."""
    doc = {}
    for f in dataclasses.fields(obj):
        v = getattr(obj, f.name)
        doc[f.name] = v.value if isinstance(v, Enum) else (
            _enc_float(v) if isinstance(v, float) else v)
    return doc


def _fields_reader(cls) -> Callable[[Dict], object]:
    """The inverse of ``_fields_doc`` for the dataclass cls: each field
    converted by its annotated type, resolved once."""
    hints = get_type_hints(cls)
    types = [(f.name, hints[f.name]) for f in dataclasses.fields(cls)]
    return lambda doc: cls(**{name: t(doc[name]) for name, t in types})


def save_path_json(path: PathLike, sol: SolutionPath) -> None:
    """One JSON object without whitespace, streamed a segment at a time: each
    segment's six arrays, a ``CompactSegment``'s as computed from its (x, y)."""
    head = {
        "num_cols": sol.num_cols,
        "termination": sol.termination.value,
        "terminal_lambda": _enc_float(sol.terminal_lambda),
        "termination_detail": sol.termination_detail,
        "slack_info": None if sol.slack_info is None else _fields_doc(sol.slack_info),
    }
    dumps = json.JSONEncoder(separators=(",", ":")).encode  # json.dumps's own encoder
    with open(path, "w") as f:
        f.write(dumps(head)[:-1] + ',"segments":[')  # the head, left open
        f.writelines(("," if k else "") + dumps(_segment_doc(s))
                     for k, s in enumerate(sol.segments))
        f.write('],"events":' + dumps([_fields_doc(e) for e in sol.events]) + "}")


def load_path_json(path: PathLike) -> SolutionPath:
    """Read a ``save_path_json`` file. Keys it does not read, such as those
    that older files wrote and this reader no longer knows, are ignored. A
    segment's index out of range or arrays of unequal lengths raise ValueError."""
    doc = json.loads(Path(path).read_text())
    n_cols = int(doc["num_cols"])
    segments = [
        # PathSegment's fields in order: the interval, n_cols, primal, dual
        PathSegment(float(s["lambda_lo"]), float(s["lambda_hi"]), n_cols,
                    *_affine_arrays(s["primal"], n_cols, f"segment {k} primal"),
                    *_affine_arrays(s["dual"], n_cols, f"segment {k} dual"))
        for k, s in enumerate(doc["segments"])
    ]
    si = doc.get("slack_info")
    return SolutionPath(
        segments=segments,
        events=list(map(_fields_reader(PivotEvent), doc.get("events", []))),
        termination=Termination(doc["termination"]),
        terminal_lambda=float(doc["terminal_lambda"]),
        num_cols=n_cols,
        slack_info=None if si is None else _fields_reader(SlackInfo)(si),
        termination_detail=doc.get("termination_detail", ""),
    )


def _write_path_rows(
    path: PathLike, pieces: Iterable, violations: Optional[Sequence[float]] = None
) -> None:
    """One CSV row per (segment, variable) from per-segment pieces
    ``(lambda_lo, lambda_hi, indices, base, slope)``. ``violations`` adds
    one extra column, constant per segment."""
    header = ["segment_id", "lambda_lo", "lambda_hi", "var_index", "base", "slope"]
    if violations is not None:
        header.append("violation_at_lo")
    # The bytes csv.writer would write: no field is ever quoted (each is a
    # header name, an int or a float repr), and rows end in "\r\n".
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\r\n")
        for sid, (lo, hi, idx, base, slope) in enumerate(pieces):
            head = f"{sid},{float(lo)!r},{float(hi)!r},"
            tail = "\r\n" if violations is None else f",{float(violations[sid])!r}\r\n"
            rows = zip(idx.tolist(), base.tolist(), slope.tolist())
            f.write("".join(f"{head}{j},{b!r},{s!r}{tail}" for j, b, s in rows))


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
    indices; a nonzero intercept, SVM's theta_0, is the last coordinate).
    ``violations`` adds one extra column, constant per segment."""

    def pieces():
        for seg in orig.segments:
            base = np.append(np.ravel(seg.base, order="F"), seg.intercept_base)
            slope = np.append(np.ravel(seg.slope, order="F"), seg.intercept_slope)
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
