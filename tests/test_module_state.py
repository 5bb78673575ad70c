"""No process-global mutable state: every module-level name of the package
holds a module, a function, a class, a typing object or an immutable value."""

import __future__
import importlib
import inspect
import pkgutil
import types
from fractions import Fraction
from typing import Iterable, Union

import twdecomp
from twdecomp import Counters

IMMUTABLE = (type(None), bool, int, float, str, bytes, tuple, frozenset, range,
             Fraction)


def mutable_names(mod):
    found = []
    for attr, value in vars(mod).items():
        if attr.startswith("__") and attr.endswith("__"):
            continue
        if (inspect.ismodule(value) or inspect.isroutine(value)
                or inspect.isclass(value) or isinstance(value, IMMUTABLE)
                or isinstance(value, __future__._Feature)
                or type(value).__module__ == "typing"):
            continue
        found.append(f"{mod.__name__}.{attr}")
    return found


def test_no_module_level_mutable_state():
    # __main__ is left out: importing it runs the command line.
    names = ["twdecomp"] + [f"twdecomp.{info.name}"
                            for info in pkgutil.iter_modules(twdecomp.__path__)
                            if info.name != "__main__"]
    assert {"twdecomp.flow", "twdecomp.separators", "twdecomp.triangulate"} <= set(names)
    found = [n for name in names for n in mutable_names(importlib.import_module(name))]
    assert found == []


def test_scan_flags_mutable_instances():
    mod = types.ModuleType("probe")
    mod.LIMIT, mod.ALGOS, mod.ALPHA = 3, ("a", "b"), Fraction(4, 3)
    mod.Outcome, mod.Items = Union[int, str], Iterable[int]
    mod.annotations = __future__.annotations
    mod.TALLY, mod.SEEN, mod.CACHE = Counters(), [], {}
    assert mutable_names(mod) == ["probe.TALLY", "probe.SEEN", "probe.CACHE"]
