"""The benchmark's span tracer (``perfbench/tracing.py``) replaces library
functions at the module attributes named in its ``SPAN_SITES``, and
``regulate.plant.step``. Each name must exist, and uninstalling the tracer
must put back the original object."""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402

import regulate.plant  # noqa: E402


def test_install_and_uninstall_restore_every_traced_name():
    sites = [(importlib.import_module(module), attr) for _, module, attr in tracing.SPAN_SITES]
    originals = [getattr(module, attr) for module, attr in sites]
    step = regulate.plant.step
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(getattr(module, attr) is not original for (module, attr), original in zip(sites, originals))
        assert regulate.plant.step is not step
    finally:
        tracer.uninstall()
    for (module, attr), original in zip(sites, originals):
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
    assert regulate.plant.step is step
