import concurrent.futures
import contextlib
import sys
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import settings

# the same examples on every run: drawn from a fixed seed, with no example
# database steering the draws; each test's max_examples and deadline stay its own
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


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


@pytest.fixture
def inline_pool(monkeypatch):
    """The simulation's process pool replaced by one that starts no process.

    A task runs in this process when it is submitted.  Returns the list of
    the ``max_workers`` of every pool made, one entry per construction.
    """
    sizes = []

    class InlinePool(concurrent.futures.Executor):
        def __init__(self, max_workers=None):
            sizes.append(max_workers)

        def submit(self, fn, /, *args, **kwargs):
            future = concurrent.futures.Future()
            try:
                future.set_result(fn(*args, **kwargs))
            except Exception as exc:
                future.set_exception(exc)
            return future

    from dvcm import simulation

    monkeypatch.setattr(simulation, "ProcessPoolExecutor", InlinePool)
    return sizes
