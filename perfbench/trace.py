"""Per-layer tracing from the benchmark's side of the API.

``Tracer`` wraps the public functions listed in ``LAYERS`` with timing
wrappers.  A function is replaced in every loaded module namespace that
holds it, because ``classify`` and ``cli`` import with ``from .x import y``
and patching only the defining module would miss their calls.  Methods are
replaced on their class.  Each call records a span (function, start, end,
parent span) in flat in-memory arrays; self times are computed after the
run, the spans can be written out with ``dump``, and ``restore`` puts every
original function back.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from pathlib import Path

#: layer (module of ``darbouxlie``) -> traced public functions
LAYERS: dict[str, tuple[str, ...]] = {
    "exactmath": ("rref", "solve", "ideal_membership", "kernel_basis",
                  "RatMatrix.matvec"),
    "liealg": ("parse_algebra", "validate"),
    "grassmann": ("invariants", "schouten", "apply_linear"),
    "derivations": ("derivation_basis", "lift", "orbit_dim", "rank_at",
                    "vf_apply"),
    "yangbaxter": ("necessary_checks", "same_coboundary", "yb_system",
                   "is_mcybe_solution"),
    "darboux": ("flow_invariance", "verify_family_auto", "verify_branch",
                "certify_no_solutions", "find_bricks"),
    "centerext": ("solve_grading", "build_rep"),
    "classify": ("verify_orbit_table", "verify_family_bundle",
                 "verify_schouten_family", "loci_agree", "verify_tree",
                 "verify_coboundary_classes", "load_family", "expand_rows"),
    "cli": ("main",),
}

FUNCTIONS = [f"{mod}.{f}" for mod, fs in LAYERS.items() for f in fs]

#: derived per-layer metrics beyond calls / s / self_s, with their units
EXTRA_METRICS = {
    "exactmath.rref.cells": "count",
    "exactmath.rref.nonzero_ratio": "ratio",
    "exactmath.ideal_membership.found_ratio": "ratio",
    "darboux.certify_no_solutions.certified_ratio": "ratio",
    "darboux.family_cache.hit_ratio": "ratio",
    "classify.family_file.max_s": "s",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the tracer reports, with its unit."""
    out = {}
    for name in FUNCTIONS:
        out[f"{name}.calls"] = "count"
        out[f"{name}.s"] = "s"
        out[f"{name}.self_s"] = "s"
    out.update(EXTRA_METRICS)
    return out


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


def self_times(fids, starts, ends, parents, nested, nfuncs: int):
    """Per function: (calls, inclusive s, self s).

    A span's self time is its duration minus the durations of its direct
    children (spans nest, so children never overlap).  Inclusive time counts
    only the outermost span of a function that re-enters itself."""
    n = len(fids)
    child = [0.0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            child[p] += ends[i] - starts[i]
    calls = [0] * nfuncs
    incl = [0.0] * nfuncs
    own = [0.0] * nfuncs
    for i in range(n):
        f = fids[i]
        d = ends[i] - starts[i]
        calls[f] += 1
        own[f] += d - child[i]
        if not nested[i]:
            incl[f] += d
    return calls, incl, own


class Tracer:
    """Timing wrappers around ``FUNCTIONS``; use as a context manager."""

    def __init__(self):
        self.fids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.nested = array("b")
        self._stack: list[int] = []
        self._depth = [0] * len(FUNCTIONS)
        self._patches: list[tuple[object, str, object]] = []
        self.cells = 0
        self.nonzeros = 0
        self.found = 0
        self.certified = 0
        self.branches_with_equalities = 0
        self.family_file_s: dict[str, float] = {}

    # -- probes: counts taken at the layer boundary -------------------------
    def _before_rref(self, args, kwargs):
        m = _arg(args, kwargs, 0, "m")
        self.cells += m.rows * m.cols
        self.nonzeros += sum(1 for row in m.entries for x in row if x)

    def _after_ideal_membership(self, args, kwargs, result, span):
        self.found += result is not None

    def _after_certify(self, args, kwargs, result, span):
        self.certified += result is not None

    def _before_verify_branch(self, args, kwargs):
        branch = _arg(args, kwargs, 2, "branch")
        self.branches_with_equalities += bool(branch.equalities)

    def _after_family_stage(self, args, kwargs, result, span):
        stem = _arg(args, kwargs, 0, "stem")
        self.family_file_s[stem] = (self.family_file_s.get(stem, 0.0)
                                    + self.ends[span] - self.starts[span])

    def _hooks(self, name: str):
        return {
            "exactmath.rref": (self._before_rref, None),
            "exactmath.ideal_membership":
                (None, self._after_ideal_membership),
            "darboux.certify_no_solutions": (None, self._after_certify),
            "darboux.verify_branch": (self._before_verify_branch, None),
            "classify.verify_orbit_table": (None, self._after_family_stage),
            "classify.verify_family_bundle":
                (None, self._after_family_stage),
        }.get(name, (None, None))

    # -- wrappers ------------------------------------------------------------
    def _wrap(self, fid: int, f):
        fids, starts, ends = self.fids, self.starts, self.ends
        parents, nested = self.parents, self.nested
        stack, depth = self._stack, self._depth
        before, after = self._hooks(FUNCTIONS[fid])
        clock = time.perf_counter

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            nested.append(depth[fid] > 0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(span)
            depth[fid] += 1
            starts[span] = clock()
            try:
                result = f(*args, **kwargs)
            finally:
                ends[span] = clock()
                depth[fid] -= 1
                stack.pop()
            if after is not None:
                after(args, kwargs, result, span)
            return result

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    def install(self) -> None:
        """Replace every traced function in every module that holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for fid, name in enumerate(FUNCTIONS):
            mod, _, qual = name.partition(".")
            module = importlib.import_module(f"darbouxlie.{mod}")
            if "." in qual:
                cls_name, attr = qual.split(".")
                owner = getattr(module, cls_name)
                orig = owner.__dict__[attr]
                self._set(owner, attr, orig, self._wrap(fid, orig))
                continue
            orig = getattr(module, qual)
            wrapped = self._wrap(fid, orig)
            for m in list(sys.modules.values()):
                ns = getattr(m, "__dict__", None)
                if not ns:
                    continue
                for attr, val in list(ns.items()):
                    if val is orig:
                        self._set(m, attr, orig, wrapped)

    def _set(self, owner, attr, orig, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, orig))

    def restore(self) -> None:
        """Put every original function back."""
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- results -------------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of ``metric_units`` except the ones the
        caller measures itself (overhead, failures)."""
        calls, incl, own = self_times(self.fids, self.starts, self.ends,
                                      self.parents, self.nested,
                                      len(FUNCTIONS))
        out: dict[str, float] = {}
        for fid, name in enumerate(FUNCTIONS):
            out[f"{name}.calls"] = calls[fid]
            out[f"{name}.s"] = incl[fid]
            out[f"{name}.self_s"] = own[fid]
        idx = FUNCTIONS.index

        def ratio(a, b):
            return a / b if b else 0.0

        out["exactmath.rref.cells"] = self.cells
        out["exactmath.rref.nonzero_ratio"] = ratio(self.nonzeros, self.cells)
        out["exactmath.ideal_membership.found_ratio"] = ratio(
            self.found, calls[idx("exactmath.ideal_membership")])
        out["darboux.certify_no_solutions.certified_ratio"] = ratio(
            self.certified, calls[idx("darboux.certify_no_solutions")])
        out["darboux.family_cache.hit_ratio"] = (1.0 - ratio(
            calls[idx("darboux.verify_family_auto")],
            self.branches_with_equalities)
            if self.branches_with_equalities else 0.0)
        out["classify.family_file.max_s"] = max(self.family_file_s.values(),
                                                default=0.0)
        return out

    def dump(self, path: Path) -> None:
        """Write the spans: a JSON header line, then the raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            header = {"functions": FUNCTIONS, "spans": len(self.fids),
                      "arrays": ["fid:i", "start:d", "end:d", "parent:i",
                                 "nested:b"]}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.fids, self.starts, self.ends, self.parents,
                        self.nested):
                arr.tofile(fh)
