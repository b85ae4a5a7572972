"""The benchmark's traced run finds every engine attribute it wraps, so no
per-layer metric silently reads 0 after a refactor."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_run_wraps_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import Tracer

    tracer = Tracer()
    try:
        assert layers.install(tracer) == []
    finally:
        tracer.unwrap_all()
