"""Span tracing of geocrystal's public functions, installed from outside.

The tracer replaces each traced function in every ``geocrystal.*`` namespace
that binds it (``suites`` binds ``theta`` through ``from .maffei import theta``,
for example) and wraps ``RatMat.__mul__`` on the class.  Each call records one
span: name, start, end, parent span and whether it returned.  Spans live in
flat arrays in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# The public functions timed for each layer.  The per-layer metrics in
# BENCHMARK.json are derived from these spans.
TRACED: dict[str, tuple[str, ...]] = {
    "cartan": (
        "a_of_vw",
        "v_of_aw",
        "weight_of_vw",
        "pair_with_coroot",
        "hw_to_partition",
        "partition_to_hw",
        "jordan_type",
        "dominates",
        "comp_shift",
        "cartan_matrix",
    ),
    "linalg": (
        "rref",
        "kernel_basis",
        "canonicalize",
        "preimage",
        "intersect_and_sum",
    ),
    "flag": ("flag_membership", "flag_reduce", "epsilon_k_flag", "is_hecke_pair"),
    "quiver": (
        "sample_lambda_point",
        "in_Lambda",
        "is_stable",
        "is_nilpotent_B",
        "moment_map",
        "kashiwara_reduce",
        "quotient_by_invariant_subspace",
    ),
    "maffei": ("theta", "phi_k"),
    "crystal": (
        "highest_weight_crystal",
        "stembridge_verify",
        "strata_maps",
        "weight_multiplicity",
    ),
    "repalg": ("decompose_tensor", "kostka", "margin_matrix_count", "rsk"),
    "suites": ("check_theta_point", "suite_signs"),
    "cli": ("main",),
}

MATMUL = "linalg.matmul"


def span_names() -> list[str]:
    return [MATMUL] + [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]


class Tracer:
    """In-memory span store with per-span counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.ok = array("b")
        self._stack: list[int] = []
        # counter name -> total, filled by the count hooks of wrapped functions
        self.counts: dict[str, int] = {}
        # traced names the installed geocrystal does not define
        self.missing: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, count=None):
        """Return fn wrapped in a span; count(args, result) -> (key, amount)."""
        name_id = self._name_id(name)
        names, parents, starts, ends, oks = (
            self.name, self.parent, self.start, self.end, self.ok
        )
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(parents)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            oks.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            oks[idx] = 1
            if count is not None:
                key, amount = count(args, result)
                if key:
                    counts[key] = counts.get(key, 0) + amount
            return result

        return traced

    def __len__(self) -> int:
        return len(self.parent)

    def summary(self) -> dict:
        """Per span name: calls, returned calls and self seconds.

        Self time is a span's duration minus the time its child spans cover;
        children of one span never overlap, because the run has one thread.
        """
        child = [0.0] * len(self)
        for idx in range(len(self)):
            p = self.parent[idx]
            if p >= 0:
                child[p] += self.end[idx] - self.start[idx]
        out = {name: {"calls": 0, "returned": 0, "self_s": 0.0} for name in self.names}
        for idx in range(len(self)):
            rec = out[self.names[self.name[idx]]]
            rec["calls"] += 1
            rec["returned"] += self.ok[idx]
            rec["self_s"] += self.end[idx] - self.start[idx] - child[idx]
        return out

    def children_named(self, parent_name: str, child_name: str) -> int:
        """Number of child_name spans whose direct parent is a parent_name span."""
        pid, cid = self._name_ids.get(parent_name), self._name_ids.get(child_name)
        if pid is None or cid is None:
            return 0
        return sum(
            1
            for idx in range(len(self))
            if self.name[idx] == cid
            and self.parent[idx] >= 0
            and self.name[self.parent[idx]] == pid
        )

    def ancestors_with_descendant(self, ancestor_name: str, name: str) -> int:
        """Number of ancestor_name spans with at least one name span below them."""
        aid, nid = self._name_ids.get(ancestor_name), self._name_ids.get(name)
        if aid is None or nid is None:
            return 0
        hit: set[int] = set()
        for idx in range(len(self)):
            if self.name[idx] != nid:
                continue
            p = self.parent[idx]
            while p >= 0:
                if self.name[p] == aid:
                    hit.add(p)
                p = self.parent[p]
        return len(hit)

    def write(self, path: str) -> None:
        """Write every span as compressed columns (numpy .npz)."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            ok=np.frombuffer(self.ok, dtype=np.int8),
        )


def _matmul_count(args, result):
    a, b = args
    if hasattr(b, "cols") and hasattr(b, "rows"):
        return "linalg.matmul.entry_mults", a.rows * a.cols * b.cols
    return None, 0


def _crystal_count(args, result):
    return "crystal.vertices", len(result)


COUNT_HOOKS = {"crystal.highest_weight_crystal": _crystal_count}


class Patches:
    """The traced functions of every geocrystal namespace, wrapped once;
    apply() swaps the wrappers in and revert() swaps the originals back."""

    def __init__(self, tracer: Tracer):
        namespaces = [
            mod for name, mod in list(sys.modules.items())
            if name == "geocrystal" or name.startswith("geocrystal.")
        ]
        self.patches: list[tuple[object, str, object, object]] = []
        for layer, fnames in TRACED.items():
            module = importlib.import_module(f"geocrystal.{layer}")
            for fname in fnames:
                original = getattr(module, fname, None)
                if original is None:
                    tracer.missing.append(f"{layer}.{fname}")
                    continue
                span = f"{layer}.{fname}"
                wrapped = tracer.wrap(span, original, COUNT_HOOKS.get(span))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self.patches.append((ns, attr, original, wrapped))
        ratmat = importlib.import_module("geocrystal.linalg").RatMat
        original_mul = ratmat.__mul__
        wrapped_mul = tracer.wrap(MATMUL, original_mul, _matmul_count)
        self.patches.append((ratmat, "__mul__", original_mul, wrapped_mul))

    def apply(self) -> None:
        for target, attr, _, wrapped in self.patches:
            setattr(target, attr, wrapped)

    def revert(self) -> None:
        for target, attr, original, _ in self.patches:
            setattr(target, attr, original)
