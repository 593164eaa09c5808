"""scipy's compiled extensions, loaded without running scipy's package inits.

The package takes two LAPACK routines, ``dpotrf`` and ``dpotrs``
(:mod:`dvcm.estimators`), from scipy's f2py extension
``scipy.linalg._flapack``, and four special functions from
``scipy.special._ufuncs``: ``expit`` for the logistic family, and
``erfc``, ``gammaincc`` and ``ndtri`` for the tail probabilities of
:mod:`dvcm.inference`.  :func:`special_ufuncs` is the one way to the
latter.  :func:`extension` imports each extension through bare stand-ins
for its packages, because importing them through ``scipy.linalg.lapack``
and ``scipy.special`` would first run scipy's package inits: the top-level
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
import importlib.util
import os
import sys
import types


def extension(subpackage: str, module: str) -> types.ModuleType:
    """The extension ``scipy.<subpackage>.<module>``.

    When the extension or its package is imported already, it is taken
    from there.  Otherwise it is imported with each package on its way
    that is not imported yet (``scipy``, ``scipy._lib`` and
    ``scipy.<subpackage>``) a bare stand-in in ``sys.modules`` whose
    ``__path__`` is the package's directory: the import system finds the
    file there, and the extension's own imports, relative or absolute,
    find their modules without running a package init.  The stand-ins go
    afterwards; the extension and what it imported stay registered, so a
    later import of the packages exports the very same objects, and a
    failed import leaves no half-made module.  scipy's directories come
    from ``importlib.util.find_spec``, which does not import scipy.  A
    missing file raises a ModuleNotFoundError that names the extension.
    """
    package = f"scipy.{subpackage}"
    name = f"{package}.{module}"
    if name in sys.modules or package in sys.modules:
        return importlib.import_module(name)
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    stand_ins = [pkg for pkg in ("scipy", "scipy._lib", package) if pkg not in sys.modules]
    for pkg in stand_ins:
        sys.modules[pkg] = types.ModuleType(pkg)
        sys.modules[pkg].__path__ = [os.path.join(root, *pkg.split(".")[1:])
                                     for root in spec.submodule_search_locations]
    try:
        return importlib.import_module(name)
    finally:
        for pkg in stand_ins:
            del sys.modules[pkg]


@functools.cache
def special_ufuncs() -> types.ModuleType:
    """``scipy.special._ufuncs``, loaded by :func:`extension` on the first
    call: the package's one way to scipy's special functions."""
    return extension("special", "_ufuncs")
