"""Search for and verify partition identities of Rogers-Ramanujan type.

The package turns configurable sum-side conditions on partitions into exact
generating-function prefixes, factors those prefixes into Euler products,
flags periodic product shapes as candidate identities, and verifies the
shipped identities to high order via polynomial recursions.

Submodules run on first use: importing the package registers them in
``sys.modules`` unexecuted, and a public name resolves on first access.
Every value passed between modules (rules, condition sets, series, shapes,
specs, grids and reports) is a frozen record (``_record``), not a dataclass,
so a CLI process does not import inspect or exec methods.
"""

import importlib.util
import sys

_EXPORTS = {
    "partitions": (
        "ConditionSet", "CongruenceRule", "DiffDistRule", "SmallestPartRule",
        "count_sum_side", "enumerate_sum_side",
    ),
    "recursions": (
        "BUILTIN_IDENTITIES", "IdentitySpec", "VerificationReport", "capped_polynomial",
        "coefficient_digest", "initial_state", "verify_identity",
    ),
    "search": ("CandidateHit", "CandidateReport", "SearchGrid", "run_search"),
    "series": (
        "IntegralityError", "ProductShape", "TruncatedSeries", "describe", "detect_period",
        "euler_factorize", "expand_product",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def _lazy(module: str):
    """The submodule, registered in sys.modules; its code runs on first
    attribute access (the LazyLoader recipe of the importlib docs)."""
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


for _module in _EXPORTS:
    globals()[_module] = _lazy(_module)
del _module


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[_HOME[name]], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
