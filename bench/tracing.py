"""Traced runs: spans and counters recorded around the calls into each of
superbc's modules, installed from outside the package.

A span records its name, start, end, the span it ran inside and the item it
belongs to.  Spans stay in memory and are written out when the child exits;
self time is a span's duration minus the part of it its children cover.
The wrappers rebind every name that refers to a wrapped function, in every
superbc module that imported it, so no layer can silently read 0.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict


class Tracer:
    """In-memory span and counter store for one child process."""

    def __init__(self) -> None:
        self.names: list = []
        # [name index, start ns, end ns, parent span index or -1, item index]
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.maxima: dict = defaultdict(int)
        self.item = -1
        self.enabled = True
        self._stack = [-1]

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] += n

    def maximum(self, key: str, n: int) -> None:
        if n > self.maxima[key]:
            self.maxima[key] = n

    def wrap(self, name: str, fn, probe=None):
        """Wrapper recording one span per call of fn.  A probe runs outside
        the span: probe(tracer, fn, args, kwargs) may return done(result,
        error), called after the span closes."""
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            done = probe(tracer, fn, args, kwargs) if probe else None
            record = [index, clock(), 0, stack[-1], tracer.item]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                record[2] = clock()
                stack.pop()
                if done:
                    done(None, err)
                raise
            record[2] = clock()
            stack.pop()
            if done:
                done(result, None)
            return result

        return traced

    def summary(self) -> dict:
        """Per-span-name calls, self and total time, plus the counters:
        the raw figures a parent merges across children."""
        per_name: dict = {}
        selfs = self_times(self.spans)
        for (index, start, end, _, _), own in zip(self.spans, selfs):
            row = per_name.setdefault(self.names[index], [0, 0, 0])
            row[0] += 1
            row[1] += own
            row[2] += end - start
        counts = dict(self.counts)
        if SOLVE in self.names and INTERP in self.names:
            solve, interp = self.names.index(SOLVE), self.names.index(INTERP)
            counts["interpbc.J_solves"] = sum(
                1 for s in self.spans
                if s[0] == solve and s[3] >= 0 and self.spans[s[3]][0] == interp
            )
        return {"spans": per_name, "counts": counts, "maxima": dict(self.maxima)}

    def write(self, path, items) -> None:
        """Write every span, with the name and item tables they index."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "items": items, "spans": self.spans}, fh,
                      separators=(",", ":"))


@contextlib.contextmanager
def paused(tracer):
    """Record nothing inside the block; a no-op when tracer is None."""
    if tracer is None:
        yield
        return
    tracer.enabled = False
    try:
        yield
    finally:
        tracer.enabled = True


def self_times(spans) -> list:
    """Self time of each span: its duration minus the measure of the union
    of its children's intervals, each clipped to the span's own interval."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


# ---------------------------------------------------------------------------
# what is wrapped


def _probe_evaluate(tracer, fn, args, kwargs):
    tracer.count("exactalg.evaluate.terms", len(args[0].terms))


def _probe_solve(tracer, fn, args, kwargs):
    matrix, rhs = args[0], args[1]
    rows = len(matrix)
    cols = len(matrix[0]) if rows else (args[2] if len(args) > 2 else kwargs.get("ncols") or 0)
    tracer.count("exactalg.solve.cells", rows * (cols + 1))
    tracer.maximum("exactalg.solve.max_rows", rows)
    seen = set()
    for row, b in zip(matrix, rhs):
        key = (tuple(row), b)
        if key in seen:
            tracer.count("exactalg.solve.duplicate_rows")
        seen.add(key)

    def done(result, error):
        if error is None and result.tag == "unique":
            tracer.count("exactalg.solve.unique")

    return done


def _probe_jack_m(tracer, fn, args, kwargs):
    # jack_m_coeffs caches every partition it orthogonalizes, so the cache
    # grows exactly when a call runs Gram-Schmidt.
    cache = sys.modules["superbc.symmfunc"]._jack_cache
    before = len(cache)

    def done(result, error):
        if len(cache) > before:
            tracer.count("symmfunc.jack.misses")

    return done


def _probe_interpolation_J(tracer, fn, args, kwargs):
    degenerate = sys.modules["superbc.interpbc"].DegenerateNormalization
    misses = fn.cache_info().misses

    def done(result, error):
        if isinstance(error, degenerate):
            tracer.count("interpbc.degenerate_fallbacks")
        elif error is None and fn.cache_info().misses > misses and result.extended_grid_used:
            tracer.count("interpbc.extended_windows")

    return done


SOLVE = "exactalg.solve:solve_exact"
INTERP = "interpbc.interpolation_J:interpolation_J"

# (span name "<group>:<attribute>", module, attribute, probe)
TARGETS = (
    ("partitions:enumerate_hooks", "superbc.partitions", "enumerate_hooks", None),
    ("partitions:partitions_of", "superbc.partitions", "partitions_of", None),
    ("partitions:lambda_natural", "superbc.partitions", "lambda_natural", None),
    ("partitions:Partition.transpose", "superbc.partitions", "Partition.transpose", None),
    ("partitions:Partition.contains", "superbc.partitions", "Partition.contains", None),
    ("exactalg.evaluate:SparsePoly.evaluate", "superbc.exactalg", "SparsePoly.evaluate", _probe_evaluate),
    (SOLVE, "superbc.exactalg", "solve_exact", _probe_solve),
    ("exactalg.substitute:SparsePoly.substitute", "superbc.exactalg", "SparsePoly.substitute", None),
    ("exactalg.polymul:SparsePoly.__mul__", "superbc.exactalg", "SparsePoly.__mul__", None),
    ("exactalg.polymul:SparsePoly.__rmul__", "superbc.exactalg", "SparsePoly.__rmul__", None),
    ("exactalg.polymul:SparsePoly.__pow__", "superbc.exactalg", "SparsePoly.__pow__", None),
) + tuple(
    (f"exactalg.ratfunc:RatFunc.{op}", "superbc.exactalg", f"RatFunc.{op}", None)
    for op in ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__pow__")
) + (
    ("symmfunc.jack:jack_P", "superbc.symmfunc", "jack_P", None),
    ("symmfunc.jack:jack_m_coeffs", "superbc.symmfunc", "jack_m_coeffs", _probe_jack_m),
    ("symmfunc.basis_convert:SymFun.from_m", "superbc.symmfunc", "SymFun.from_m", None),
    ("symmfunc.basis_convert:SymFun.to_m", "superbc.symmfunc", "SymFun.to_m", None),
    ("symmfunc.basis_convert:basis_convert", "superbc.symmfunc", "basis_convert", None),
    ("superpoly.super_jack:super_jack", "superbc.superpoly", "super_jack", None),
    ("superpoly.phi_theta:phi_theta", "superbc.superpoly", "phi_theta", None),
    ("superpoly.squared_substitution:squared_substitution", "superbc.superpoly",
     "squared_substitution", None),
    ("superpoly.even_symmetry:is_even_supersymmetric", "superbc.superpoly",
     "is_even_supersymmetric", None),
    ("superpoly.res_map:res_map", "superbc.superpoly", "res_map", None),
    (INTERP, "superbc.interpbc", "interpolation_J", _probe_interpolation_J),
    ("interpbc.expansion_identity:expansion_identity", "superbc.interpbc", "expansion_identity", None),
    ("interpbc.verify.vanishing:_verify_vanishing", "superbc.interpbc", "_verify_vanishing", None),
    ("interpbc.verify.normalization:_verify_normalization", "superbc.interpbc",
     "_verify_normalization", None),
    ("interpbc.verify.even-symmetry:_verify_even_symmetry", "superbc.interpbc",
     "_verify_even_symmetry", None),
    ("interpbc.verify.expansion:_verify_expansion", "superbc.interpbc", "_verify_expansion", None),
    ("interpbc.verify.res-eval:_verify_res_eval", "superbc.interpbc", "_verify_res_eval", None),
    ("cli.run:run", "superbc.cli", "run", None),
    ("cli.cache_load:load_jack_cache", "superbc.symmfunc", "load_jack_cache", None),
    ("cli.cache_save:save_jack_cache", "superbc.symmfunc", "save_jack_cache", None),
)

# lru_cached functions whose hit ratios come from cache_info()
CACHED = {
    "interpbc.interpolation_J": ("superbc.interpbc", "interpolation_J"),
    "superpoly.super_jack": ("superbc.superpoly", "super_jack"),
}


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "superbc" or name.startswith("superbc."))]


class Installation:
    """The wrappers installed into the loaded superbc modules."""

    def __init__(self) -> None:
        self.originals: dict = {}  # span name -> original function
        self.wrappers: dict = {}  # span name -> wrapper
        self.methods: list = []  # (class, attribute, span name)
        self.cached: dict = {}  # CACHED key -> original lru_cache function
        self.rebound: list = []  # (module or class, attribute, original value)

    def uninstall(self) -> None:
        """Put every original back where install found it."""
        for owner, attr, original in reversed(self.rebound):
            setattr(owner, attr, original)
        self.rebound.clear()

    def unwrapped_bindings(self) -> list:
        """Names in any superbc module, or methods on a wrapped class, that
        still refer to an original function instead of its wrapper."""
        originals = {id(fn) for fn in self.originals.values()}
        stale = []
        for module in _package_modules():
            for attr, value in vars(module).items():
                if id(value) in originals:
                    stale.append(f"{module.__name__}.{attr}")
        for cls, attr, name in self.methods:
            if cls.__dict__.get(attr) is not self.wrappers[name]:
                stale.append(f"{cls.__module__}.{cls.__name__}.{attr}")
        return stale


def install(tracer: Tracer) -> Installation:
    """Wrap every target and rebind it wherever superbc bound it; raise if a
    target is missing or any binding was left unwrapped."""
    inst = Installation()
    for _, module_name, _, _ in TARGETS:
        importlib.import_module(module_name)
    for key, (module_name, attr) in CACHED.items():
        inst.cached[key] = getattr(sys.modules[module_name], attr)
    try:
        _wrap_targets(tracer, inst, _package_modules())
    except BaseException:
        inst.uninstall()
        raise
    return inst


def _wrap_targets(tracer: Tracer, inst: Installation, modules: list) -> None:
    for name, module_name, attr, probe in TARGETS:
        module = sys.modules[module_name]
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            cls = getattr(module, owner_name)
            if method not in cls.__dict__:
                raise LookupError(f"trace target {module_name}.{attr} not found")
            original = cls.__dict__[method]
            if isinstance(original, classmethod):
                wrapper = classmethod(tracer.wrap(name, original.__func__, probe))
            else:
                wrapper = tracer.wrap(name, original, probe)
            inst.rebound.append((cls, method, original))
            setattr(cls, method, wrapper)
            inst.methods.append((cls, method, name))
        else:
            if not hasattr(module, attr):
                raise LookupError(f"trace target {module_name}.{attr} not found")
            original = getattr(module, attr)
            wrapper = tracer.wrap(name, original, probe)
            for mod in modules:
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        inst.rebound.append((mod, bound, original))
                        setattr(mod, bound, wrapper)
        inst.originals[name] = original
        inst.wrappers[name] = wrapper
    stale = inst.unwrapped_bindings()
    if stale:
        raise RuntimeError(f"trace wrappers not installed at: {', '.join(stale)}")


def cache_counts(inst: Installation) -> dict:
    counts = {}
    for key, fn in inst.cached.items():
        info = fn.cache_info()
        counts[f"{key}.hits"] = info.hits
        counts[f"{key}.misses"] = info.misses
    return counts


# ---------------------------------------------------------------------------
# per-layer metrics from the merged raw figures of one traced repetition


def merge(raws) -> dict:
    """Sum span rows and counters over children; take maxima of maxima."""
    out = {"spans": defaultdict(lambda: [0, 0, 0]), "counts": defaultdict(int),
           "maxima": defaultdict(int)}
    for raw in raws:
        for name, row in raw["spans"].items():
            acc = out["spans"][name]
            for k in range(3):
                acc[k] += row[k]
        for key, n in raw["counts"].items():
            out["counts"][key] += n
        for key, n in raw["maxima"].items():
            out["maxima"][key] = max(out["maxima"][key], n)
    return out


def _group_rows(raw, group):
    return [row for name, row in raw["spans"].items() if name.split(":", 1)[0] == group]


def _calls(raw, name):
    return raw["spans"].get(name, [0, 0, 0])[0]


def _self_s(raw, group):
    return sum(row[1] for row in _group_rows(raw, group)) / 1e9


def _total_s(raw, group):
    return sum(row[2] for row in _group_rows(raw, group)) / 1e9


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(raw, output_bytes: int, cache_bytes: int, overhead_ratio: float) -> dict:
    """Every per-layer metric by name, as (value, unit)."""
    c, m = raw["counts"], raw["maxima"]
    interp_misses = c.get("interpbc.interpolation_J.misses", 0)
    sj_hits, sj_misses = c.get("superpoly.super_jack.hits", 0), c.get("superpoly.super_jack.misses", 0)
    j_hits = c.get("interpbc.interpolation_J.hits", 0)
    out = {
        "partitions.enumerate_hooks.calls": (_calls(raw, "partitions:enumerate_hooks"), "count"),
        "partitions.self_s": (_self_s(raw, "partitions"), "s"),
        "exactalg.evaluate.calls": (_calls(raw, "exactalg.evaluate:SparsePoly.evaluate"), "count"),
        "exactalg.evaluate.terms": (c.get("exactalg.evaluate.terms", 0), "count"),
        "exactalg.evaluate.self_s": (_self_s(raw, "exactalg.evaluate"), "s"),
        "exactalg.solve.calls": (_calls(raw, SOLVE), "count"),
        "exactalg.solve.cells": (c.get("exactalg.solve.cells", 0), "count"),
        "exactalg.solve.max_rows": (m.get("exactalg.solve.max_rows", 0), "count"),
        "exactalg.solve.duplicate_rows": (c.get("exactalg.solve.duplicate_rows", 0), "count"),
        "exactalg.solve.unique_ratio": (_ratio(c.get("exactalg.solve.unique", 0), _calls(raw, SOLVE)), "ratio"),
        "exactalg.solve.self_s": (_self_s(raw, "exactalg.solve"), "s"),
        "exactalg.substitute.self_s": (_self_s(raw, "exactalg.substitute"), "s"),
        "exactalg.polymul.self_s": (_self_s(raw, "exactalg.polymul"), "s"),
        "exactalg.ratfunc.ops": (sum(row[0] for row in _group_rows(raw, "exactalg.ratfunc")), "count"),
        "exactalg.ratfunc.self_s": (_self_s(raw, "exactalg.ratfunc"), "s"),
        "symmfunc.jack.calls": (_calls(raw, "symmfunc.jack:jack_P"), "count"),
        "symmfunc.jack.misses": (c.get("symmfunc.jack.misses", 0), "count"),
        "symmfunc.jack.self_s": (_self_s(raw, "symmfunc.jack"), "s"),
        "symmfunc.basis_convert.self_s": (_self_s(raw, "symmfunc.basis_convert"), "s"),
        "superpoly.super_jack.calls": (_calls(raw, "superpoly.super_jack:super_jack"), "count"),
        "superpoly.super_jack.hit_ratio": (_ratio(sj_hits, sj_hits + sj_misses), "ratio"),
        "superpoly.super_jack.self_s": (_self_s(raw, "superpoly.super_jack"), "s"),
        "superpoly.phi_theta.self_s": (_self_s(raw, "superpoly.phi_theta"), "s"),
        "superpoly.squared_substitution.self_s": (_self_s(raw, "superpoly.squared_substitution"), "s"),
        "superpoly.even_symmetry.calls": (
            _calls(raw, "superpoly.even_symmetry:is_even_supersymmetric"), "count"),
        "superpoly.even_symmetry.self_s": (_self_s(raw, "superpoly.even_symmetry"), "s"),
        "superpoly.res_map.self_s": (_self_s(raw, "superpoly.res_map"), "s"),
        "interpbc.interpolation_J.calls": (_calls(raw, INTERP), "count"),
        "interpbc.interpolation_J.hit_ratio": (_ratio(j_hits, j_hits + interp_misses), "ratio"),
        "interpbc.interpolation_J.self_s": (_self_s(raw, "interpbc.interpolation_J"), "s"),
        "interpbc.solves_per_J": (_ratio(c.get("interpbc.J_solves", 0), interp_misses), "ratio"),
        "interpbc.extended_windows": (c.get("interpbc.extended_windows", 0), "count"),
        "interpbc.degenerate_fallbacks": (c.get("interpbc.degenerate_fallbacks", 0), "count"),
        "interpbc.expansion_identity.calls": (
            _calls(raw, "interpbc.expansion_identity:expansion_identity"), "count"),
    }
    for prop in ("vanishing", "normalization", "even-symmetry", "expansion", "res-eval"):
        out[f"interpbc.verify.{prop}.self_s"] = (_self_s(raw, f"interpbc.verify.{prop}"), "s")
    out.update({
        "cli.run.self_s": (_self_s(raw, "cli.run"), "s"),
        "cli.output_bytes": (output_bytes, "bytes"),
        "cli.cache_load_s": (_total_s(raw, "cli.cache_load"), "s"),
        "cli.cache_save_s": (_total_s(raw, "cli.cache_save"), "s"),
        "cli.cache_bytes": (cache_bytes, "bytes"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
        "trace.spans": (sum(row[0] for row in raw["spans"].values()), "count"),
    })
    return out
