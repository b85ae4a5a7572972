"""In-memory spans around the calls each layer of parasimplex makes.

A span is ``[name, start, end, parent, op, info]``: ``perf_counter``
seconds, the index of the enclosing span (None at the top), the operation
the span belongs to, and a small dict of facts about the call (or None).
Nothing is written until the run ends.

Layers inside ``solve_path`` are reached by swapping the module and class
attributes the engine calls through for timing wrappers (``wrap``) and
putting the originals back afterwards (``unwrap_all``). The program's own
files are not edited.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op = -1
        self._open: List[int] = []
        self._installed: List[tuple] = []

    def _begin(self, name: str) -> int:
        i = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, None])
        self._open.append(i)
        return i

    def _end(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        i = self._begin(name)
        try:
            yield
        finally:
            self._end(i)

    def wrap(self, owner, attr: str, name: str,
             info: Optional[Callable[[tuple, object], Dict]] = None) -> bool:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``info(args, result)`` may attach facts about a returning call; a
        raising call records the exception's type name. Returns False, and
        wraps nothing, when ``owner`` has no such attribute of its own.
        """
        orig = vars(owner).get(attr)
        if orig is None:
            return False
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            i = tracer._begin(name)
            try:
                result = orig(*args, **kwargs)
            except Exception as exc:
                tracer.spans[i][5] = {"error": type(exc).__name__}
                raise
            finally:
                tracer._end(i)
            if info is not None:
                tracer.spans[i][5] = info(args, result)
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, orig))
        return True

    def unwrap_all(self) -> None:
        while self._installed:
            owner, attr, orig = self._installed.pop()
            setattr(owner, attr, orig)

    def self_times(self) -> List[float]:
        """Each span's duration minus the part its child spans cover.

        The program is single-threaded, so the children of one span never
        overlap and their durations add up to the covered part.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [(s[2] - s[1]) - c for s, c in zip(self.spans, covered)]

    def write_jsonl(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "info")
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")
