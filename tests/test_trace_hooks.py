"""The benchmark's per-layer trace patches svp functions by name. A rename
or a removed name would silently drop that layer from the trace; this test
makes it fail here instead."""

import importlib
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_every_traced_name_exists(monkeypatch, capsys):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    with tracing.instrument(tracing.Tracer()):
        pass
    assert "trace: not found" not in capsys.readouterr().err
