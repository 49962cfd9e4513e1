"""scipy's `expit` and `betaln` without the scipy.special package.

Both are ufuncs of scipy's compiled module `scipy/special/_special_ufuncs`.
Importing the package costs about 0.23 s and 20 MB of RSS, mostly its
array-API layer, so this module loads that one extension file by itself.
It finds the file through `importlib.util.find_spec`, which imports no part
of scipy, and registers the module under its real name, so a later
`import scipy.special` reuses the same ufunc objects.

scipy releases without that file, or without those names in it, get the
package's own functions instead.  Callers import this module on first
use, so the load happens once.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

_NAME = "scipy.special._special_ufuncs"


def _load_ufuncs():
    """The extension module, or None when this scipy has no such file."""
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    for root in spec.submodule_search_locations:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "special", "_special_ufuncs" + suffix)
            if os.path.isfile(path):
                ext = importlib.util.spec_from_file_location(_NAME, path)
                module = importlib.util.module_from_spec(ext)
                sys.modules[_NAME] = module
                ext.loader.exec_module(module)
                return module
    return None


_ufuncs = _load_ufuncs()
if hasattr(_ufuncs, "expit") and hasattr(_ufuncs, "betaln"):
    expit, betaln = _ufuncs.expit, _ufuncs.betaln
else:  # no such file, or a release that keeps them elsewhere
    from scipy.special import betaln, expit
del _ufuncs
