"""scipy's compiled extensions, loaded without running scipy's package inits.

The package takes two LAPACK routines, ``dpotrf`` and ``dpotrs``
(:mod:`dvcm.estimators`), from scipy's f2py extension
``scipy.linalg._flapack``, and four special functions from
``scipy.special._ufuncs``: ``expit`` for the logistic family, and
``erfc``, ``gammaincc`` and ``ndtri`` for the tail probabilities of
:mod:`dvcm.inference`.  :func:`special_ufuncs` is the one way to the
latter.  :func:`extension` loads each extension from its file in scipy's
directory, because importing them through ``scipy.linalg.lapack`` and
``scipy.special`` would first run scipy's package inits: the top-level
one loads ``subprocess`` and scipy's test utilities, and
``scipy.special``'s loads scipy's array-API layer, ``numpy.testing``,
``numpy.f2py`` and more that the package never uses.  ``_flapack``
loads at import, alone.  ``_ufuncs`` loads on first use, which only the
logistic link and the tail probabilities make, so a Gaussian simulation
never loads it; it brings its sibling extensions and scipy's callback
module ``scipy._lib._ccallback``, and no package init runs.  The routines
and ufuncs are the very objects the two scipy packages export, so every
result is bit for bit what they would give.
"""

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
    from there.  Otherwise the extension is loaded from its file, and
    each package the load passes through that is not imported yet
    (``scipy``, ``scipy._lib`` and ``scipy.<subpackage>``) is a bare
    stand-in in ``sys.modules`` for the length of the load: the
    extension's imports, relative or absolute, then find their modules
    without running a package init.  The stand-ins are removed again
    afterwards; the extension and what it imported stay registered under
    their full names, so a later import of the packages reuses them and
    exports the very same objects.  scipy's directories come from
    ``importlib.util.find_spec``, which does not import scipy.  A missing
    file raises an ImportError that names the extension.
    """
    package = f"scipy.{subpackage}"
    name = f"{package}.{module}"
    if name in sys.modules or package in sys.modules:
        return importlib.import_module(name)
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    roots = spec.submodule_search_locations
    path = [os.path.join(root, subpackage) for root in roots]
    spec = importlib.machinery.PathFinder.find_spec(name, path)
    if spec is None:
        raise ImportError(f"cannot find the extension {name} in {path}", name=name)
    stand_ins = [pkg for pkg in ("scipy", "scipy._lib", package) if pkg not in sys.modules]
    for pkg in stand_ins:
        sys.modules[pkg] = types.ModuleType(pkg)
        sys.modules[pkg].__path__ = [os.path.join(root, *pkg.split(".")[1:])
                                     for root in roots]
    try:
        ext = importlib.util.module_from_spec(spec)
        sys.modules[name] = ext
        spec.loader.exec_module(ext)
    except BaseException:
        sys.modules.pop(name, None)
        raise
    finally:
        for pkg in stand_ins:
            del sys.modules[pkg]
    return ext


@functools.cache
def special_ufuncs() -> types.ModuleType:
    """``scipy.special._ufuncs``, loaded by :func:`extension` on the first
    call: the package's one way to scipy's special functions."""
    return extension("special", "_ufuncs")
