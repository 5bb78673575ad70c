"""No process-global mutable state: every module-level name of the package
holds a module, a function, a class, a typing object or an immutable value."""

import __future__
import importlib
import inspect
import pkgutil
import types
from fractions import Fraction
from typing import Iterable, Union

import pytest

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


PUBLIC = {
    "ALGORITHMS", "AlgoReport", "Counters", "Cut", "DecomposeResult", "DEFAULT_ALPHA",
    "Exceeded", "FlowWorkspace", "Graph", "NotChordal", "Part", "TreeDecomposition",
    "TreewidthExceeded", "TriangSuccess", "Triangulation", "Violation",
    "alpha_sum_sep", "approx_3way_vertex_cut", "check_tree_decomposition",
    "clique_number_chordal", "connected_components", "decompose", "exact_treewidth",
    "is_chordal", "min_degree_triang", "min_vertex_separator", "triang_2way_23",
    "triang_2way_half", "triang_3way", "try_split", "two_thirds_vtx_sep",
    "two_way_half_vtx_sep", "vset",
}
# Brute-force oracles of the test suite (tests/oracles.py), not library API.
ORACLES = ("brute_force_min_separator", "brute_force_min_multiway",
           "max_disjoint_paths", "permutation_treewidth")


def test_public_surface_is_pinned():
    assert len(twdecomp.__all__) == len(PUBLIC)
    assert set(twdecomp.__all__) == PUBLIC
    for name in twdecomp.__all__:
        assert getattr(twdecomp, name) is not None, name
    validate = importlib.import_module("twdecomp.validate")
    for name in ORACLES:
        for mod in (twdecomp, validate):
            assert not hasattr(mod, name), f"{mod.__name__}.{name}"
            with pytest.raises(ImportError):
                exec(f"from {mod.__name__} import {name}", {})
