import contextlib
import sys
import tracemalloc
from types import SimpleNamespace

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(fn)`` wraps ``fn`` wherever a dvcm module refers to it.

    Returns a one-element list holding the number of calls so far, so
    calls are counted whichever module makes them.
    """

    def install(fn):
        calls = [0]

        def wrapper(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if module is None or not (name == "dvcm" or name.startswith("dvcm.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)
        return calls

    return install


@pytest.fixture
def traced_peak():
    """``with traced_peak() as mem:`` traces the allocations of the block.

    On exit ``mem.peak`` is the largest traced size the block reached and
    ``mem.live`` what it left allocated, both in bytes above the traced
    size at entry.  Tracing stops afterwards unless it was already on.
    """

    @contextlib.contextmanager
    def trace():
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        mem = SimpleNamespace(peak=None, live=None)
        try:
            base = tracemalloc.get_traced_memory()[0]
            yield mem
            live, peak = tracemalloc.get_traced_memory()
            mem.peak, mem.live = peak - base, live - base
        finally:
            if started:
                tracemalloc.stop()

    return trace
