import sys

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
