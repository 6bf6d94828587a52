"""Spans around the public functions of each ncadhm module.

The tracer rebinds module attributes (and two methods) to timing wrappers,
including the copies one ncadhm module imported from another, so internal
calls are seen too.  Spans are kept in memory as
``[name, start, end, parent, op_id, counts]`` and summarised at the end:
a span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict


def _multiply_counts(args, kwargs, result):
    a, b = args[0], args[1]
    return {"terms_in": len(a.terms) * len(b.terms),
            "terms_out": len(result.terms)}


def _rules_counts(args, kwargs, result):
    return {"rules_built": len(result.rules)}


# (module, attribute or "Class.method", counter)
TARGETS = (
    ("star_algebra", "multiply", _multiply_counts),
    ("star_algebra", "normal_form", None),
    ("star_algebra", "adjoint", None),
    ("hopf_twist", "twist_product", None),
    ("hopf_twist", "derive_relations", _rules_counts),
    # coordinate_smash_relations calls this through the module global
    ("hopf_twist", "smash_relations", _rules_counts),
    ("twistor", "verify_embeddings", None),
    ("twistor", "QuotientContext.reduce", None),
    ("monad", "build_monad", None),
    ("monad", "bosonise_monad", None),
    ("monad", "bosonise_j_map", None),
    ("monad", "monad_residual", None),
    ("monad", "PolyMatrix.matmul", None),
    ("adhm_solver", "solve", None),
    ("adhm_solver", "constraint_jacobian", None),
    ("adhm_solver", "residual_vector", None),
    ("adhm_solver", "moduli_dimension", None),
    ("instanton", "curvature_samples", None),
    ("instanton", "evaluate_projector", None),
    ("instanton", "symbolic_projector_checks", None),
    ("cli", "run", None),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op_id = -1
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result
        return traced

    def install(self):
        """Rebind every target in every loaded ncadhm module."""
        targets = [(importlib.import_module(f"ncadhm.{mod_name}"), mod_name, attr, counter)
                   for mod_name, attr, counter in TARGETS]
        modules = [m for n, m in sys.modules.items()
                   if n == "ncadhm" or n.startswith("ncadhm.")]
        for mod, mod_name, attr, counter in targets:
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig, counter))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(name, orig, counter)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, key, orig))
                        setattr(m, key, wrapped)

    def uninstall(self):
        for obj, key, orig in reversed(self._patches):
            setattr(obj, key, orig)
        self._patches.clear()


def summarise(spans, op_ids) -> dict:
    """Per-name ``calls``, ``self_s`` and summed counts over the spans whose
    operation id is in ``op_ids``."""
    child = defaultdict(float)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, _, op, counts) in enumerate(spans):
        if op not in op_ids:
            continue
        stats = out[name]
        stats["calls"] += 1
        stats["self_s"] += end - start - child[i]
        for key, val in (counts or {}).items():
            stats[key] += val
    return out
