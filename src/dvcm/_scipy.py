"""scipy's compiled extensions, loaded without running scipy's package
inits; :mod:`dvcm.estimators` says what that saves and when each loads."""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
import types


def extension(subpackage: str, module: str) -> types.ModuleType:
    """The extension ``scipy.<subpackage>.<module>``.

    When the extension or its package is imported already, it is taken
    from there.  Otherwise the extension is loaded from its file under a
    bare stand-in for the package, which its relative imports need in
    ``sys.modules`` and which is removed again once it has loaded.  The
    extension itself stays registered under its full name, so a later
    import of the package reuses it and exports the very same objects.
    scipy's directories come from ``importlib.util.find_spec``, which
    does not import scipy.  A missing file raises an ImportError that
    names the extension.
    """
    package = f"scipy.{subpackage}"
    name = f"{package}.{module}"
    if name in sys.modules or package in sys.modules:
        return importlib.import_module(name)
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    path = [os.path.join(root, subpackage) for root in spec.submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec(name, path)
    if spec is None:
        raise ImportError(f"cannot find the extension {name} in {path}", name=name)
    stand_in = types.ModuleType(package)
    stand_in.__path__ = path
    sys.modules[package] = stand_in
    try:
        ext = importlib.util.module_from_spec(spec)
        sys.modules[name] = ext
        spec.loader.exec_module(ext)
    except BaseException:
        sys.modules.pop(name, None)
        raise
    finally:
        del sys.modules[package]
    return ext


@functools.cache
def special_ufuncs() -> types.ModuleType:
    """``scipy.special._ufuncs``, loaded by :func:`extension` on the first
    call: the package's one way to scipy's special functions."""
    return extension("special", "_ufuncs")
