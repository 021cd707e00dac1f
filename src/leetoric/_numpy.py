"""The package's one binding of NumPy, loaded on its first attribute read: the
exact paths (``toric``'s ``code_params`` and ``interleaved_params``,
``generator_matrix``, the ``params`` and ``tables`` commands) read none, so they
never run NumPy's import.  The package root imports this module and no other
(each submodule loads on the first read of one of its names), so ``import
leetoric`` still fails where NumPy is not installed."""

import importlib.util
import sys


def _lazy(name: str):
    """The module ``name``, as is if already imported, else one that loads on first use."""
    if sys.modules.get(name) is not None:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:  # not installed: fail on import, as an eager import would
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")
