"""Resident-set size of the benchmark process, sampled by a helper process.

``ru_maxrss`` is one high-water mark for the whole run, so a single
operation that refactorizes mid-path (holding two basis factorizations at
once) sets it for every run that happens to contain one. Sampling RSS from
outside the process gives each operation its own peak instead, without
sharing the interpreter lock with the operation. The sampler slows the
operations it watches (by about 10% on 2 cores), so run.py samples in a pass
of its own, apart from the timed loop.

The helper is this file run as a script, ``python3 rss.py <pid>``: it prints
``ready``, samples until a line arrives on its standard input, then prints
the samples as JSON and exits. It is a plain child process (not
``multiprocessing``, whose spawn start leaves a resource-tracker process
running), and the sampler always waits for it to end.
"""

from __future__ import annotations

import bisect
import json
import os
import select
import subprocess
import sys
import time
from typing import List, Optional, Tuple

INTERVAL_S = 0.001


def _sample(pid: int) -> None:
    page = os.sysconf("SC_PAGE_SIZE")
    samples: List[Tuple[float, int]] = []
    with open(f"/proc/{pid}/statm", "rb") as f:
        print("ready", flush=True)
        while not select.select([sys.stdin], [], [], 0)[0]:
            f.seek(0)
            samples.append((time.perf_counter(), int(f.read().split()[1]) * page))
            time.sleep(INTERVAL_S)
    print(json.dumps(samples), flush=True)


class RssSampler:
    """Context manager: samples this process's RSS while the block runs.

    ``perf_counter`` reads CLOCK_MONOTONIC, which both processes share, so
    sample times compare directly with the caller's own timestamps.
    """

    def __enter__(self) -> "RssSampler":
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(os.getpid())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self._proc.stdout.readline().strip() != "ready":
            self._stop()
            raise RuntimeError("RSS sampler did not start")
        self.samples: List[Tuple[float, int]] = []
        return self

    def __exit__(self, *exc) -> None:
        out = self._stop()
        self.samples = [tuple(s) for s in json.loads(out)] if out else []

    def _stop(self) -> str:
        """Tell the helper to stop, read what it printed, wait for it."""
        try:
            out, _ = self._proc.communicate("stop\n", timeout=60)
            return out
        finally:
            if self._proc.poll() is None:
                self._proc.kill()
            self._proc.wait()

    def peak_mb(self, start: float, end: float) -> Optional[float]:
        """Highest RSS sampled in [start, end], in MB; None if no sample."""
        lo = bisect.bisect_left(self.samples, start, key=lambda s: s[0])
        hi = bisect.bisect_right(self.samples, end, key=lambda s: s[0])
        return max(rss for _, rss in self.samples[lo:hi]) / 1e6 if hi > lo else None


if __name__ == "__main__":
    _sample(int(sys.argv[1]))
