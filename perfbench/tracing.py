"""Span tracing of the engine's layers from outside the program.

:class:`Recorder` replaces the public entry points of each module with
wrappers that record one span per call: name, start, end, parent span and
request id (the update index; -1 during indexing).  Functions are patched
where callers look them up (``repro.core.tric.hash_join`` as well as
``repro.relational.relation.hash_join``), methods on their classes so that
recursive calls such as ``TricEngine._descend`` are seen.  Spans are kept in
flat arrays in memory and written out once, after the run.

A layer's self time is the duration of its spans minus the duration of their
direct child spans; :func:`layer_metrics` folds spans into the per-layer
metrics the benchmark reports.
"""
from __future__ import annotations

import gc
import importlib
import time
from array import array

_MARK = "__perfbench_span__"

#: (module, class or None, attribute, span name)
TARGETS = [
    # indexing phase
    ("repro.core.tric", "TricEngine", "add_query", "tric.add_query"),
    ("repro.core.tric", None, "covering_paths", "covering.covering_paths"),
    ("repro.core.trie", "TrieForest", "insert_path", "trie.insert_path"),
    ("repro.engine.assembler", "QueryAssembler", "__init__", "assembler.init"),
    # answering phase
    ("repro.core.tric", "TricEngine", "process_update", "tric.process_update"),
    ("repro.core.tric", None, "update_sigs", "route.update_sigs"),
    ("repro.core.trie", "TrieForest", "affected_roots", "route.affected_roots"),
    ("repro.core.tric", "TricEngine", "_descend", "tric.descend"),
    ("repro.relational.relation", "View", "add", "view.add"),
    ("repro.relational.relation", "View", "add_all", "view.add_all"),
    ("repro.core.tric", None, "hash_join", "join.hash_join@tric"),
    ("repro.engine.assembler", None, "hash_join", "join.hash_join@assembler"),
    ("repro.relational.relation", None, "hash_join", "join.hash_join"),
    ("repro.relational.relation", None, "probe_join", "join.probe_join"),
    ("repro.relational.relation", None, "_build", "join.build"),
    ("repro.engine.assembler", "QueryAssembler", "on_path_delta", "assembler.on_path_delta"),
    ("repro.engine.assembler", "QueryAssembler", "finish_update", "assembler.finish_update"),
]

#: per-layer self-time metric -> span names it sums
SELF_TIMES = {
    "graph.covering.s": ["covering.covering_paths"],
    "core.trie.insert_s": ["trie.insert_path"],
    "engine.assembler.init_s": ["assembler.init"],
    "core.trie.route_s": ["route.update_sigs", "route.affected_roots"],
    "core.tric.update_self_s": ["tric.process_update"],
    "core.tric.descend_self_s": ["tric.descend"],
    "relational.view_add_s": ["view.add", "view.add_all"],
    "relational.join_s": [
        "join.hash_join@tric", "join.hash_join@assembler", "join.hash_join",
        "join.probe_join",
    ],
    "relational.build_s": ["join.build"],
    "engine.assembler.self_s": ["assembler.on_path_delta", "assembler.finish_update"],
}

#: span name -> (tally key, function of (args, result) giving the increment)
_TALLIES = {
    "route.affected_roots": ("roots", lambda a, r: len(r)),
    "tric.descend": ("descend_useful", lambda a, r: 1 if a[2] else 0),
    "view.add": ("rows_new", lambda a, r: 1 if r else 0),
    "assembler.finish_update": ("fires", lambda a, r: 1 if r else 0),
}


def _owner(module: str, cls: str | None):
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


def active_wrappers() -> list[str]:
    """Targets that currently hold a tracing wrapper (empty when clean)."""
    out = []
    for module, cls, attr, _ in TARGETS:
        owner = _owner(module, cls)
        fn = owner.__dict__.get(attr) if cls else getattr(owner, attr)
        if getattr(fn, _MARK, None) is not None:
            out.append(f"{module}.{cls + '.' if cls else ''}{attr}")
    return out


def assert_clean() -> None:
    left = active_wrappers()
    if left:
        raise RuntimeError(f"tracing wrappers still active: {left}")


class Recorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_req = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.tallies = {key: 0 for key, _ in _TALLIES.values()}
        self.req = -1
        self._next_update = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------
    def install(self) -> None:
        for module, cls, attr, name in TARGETS:
            owner = _owner(module, cls)
            original = owner.__dict__[attr] if cls else getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        assert_clean()

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        names, parents, reqs = self.span_name, self.span_parent, self.span_req
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter_ns
        tally = _TALLIES.get(name)
        tallies = self.tallies
        rec = self
        is_update = name == "tric.process_update"

        def wrapper(*args, **kwargs):
            if is_update:
                rec.req = rec._next_update
                rec._next_update += 1
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            reqs.append(rec.req)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if tally is not None:
                    tallies[tally[0]] += tally[1](args, result)
                return result
            finally:
                ends[sid] = clock()
                stack.pop()
                if is_update:
                    rec.req = -1

        setattr(wrapper, _MARK, name)
        return wrapper

    # -- output ---------------------------------------------------------
    def arrays(self) -> dict:
        import numpy as np

        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32),
            "req": np.frombuffer(self.span_req, dtype=np.int32),
            "start_ns": np.frombuffer(self.span_start, dtype=np.int64),
            "end_ns": np.frombuffer(self.span_end, dtype=np.int64),
        }

    def save(self, path) -> None:
        import numpy as np

        np.savez(path, names=np.array(self.names), **self.arrays())


def layer_metrics(rec: Recorder, run_stream_s: float, engine_s: float,
                  answer_from: int) -> dict[str, float]:
    """Per-layer self times and counts from the recorded spans.

    ``run_stream_s`` is the wall time of the traced ``run_stream`` call,
    ``engine_s`` the engine time ``run_stream`` measured itself, and
    ``answer_from`` the index of the first span recorded during it.  The
    answering layers' self times plus ``engine.runner.overhead_s`` add up to
    ``run_stream_s`` by construction; what is checked against an independent
    clock is that ``process_update`` spans, summed, match ``engine_s``
    (``trace.update_span_s``) and that no answering-phase span lies outside
    one (``trace.stray_spans``)."""
    import numpy as np

    a = rec.arrays()
    dur = (a["end_ns"] - a["start_ns"]).astype(np.float64) * 1e-9
    parent = a["parent"]
    has_parent = parent >= 0
    child = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=len(dur)
    )
    self_s = dur - child
    n_names = len(rec.names)
    by_name_self = np.bincount(a["name"], weights=self_s, minlength=n_names)
    by_name_calls = np.bincount(a["name"], minlength=n_names)
    nid = {n: i for i, n in enumerate(rec.names)}

    def self_of(names):
        return float(sum(by_name_self[nid[n]] for n in names))

    def calls(*names):
        return int(sum(by_name_calls[nid[n]] for n in names))

    out = {m: self_of(names) for m, names in SELF_TIMES.items()}
    is_update = a["name"] == nid["tric.process_update"]
    update_s = float(dur[is_update].sum())
    top = parent[answer_from:] < 0
    out["engine.runner.overhead_s"] = run_stream_s - update_s
    out["trace.answer_s"] = run_stream_s
    out["trace.update_span_s"] = update_s
    out["trace.engine_s"] = engine_s
    out["trace.stray_spans"] = int((top & ~is_update[answer_from:]).sum())
    out["trace.updates"] = calls("tric.process_update")
    out["core.trie.roots"] = rec.tallies["roots"]
    out["core.tric.descend_calls"] = calls("tric.descend")
    out["core.tric.descend_useful"] = rec.tallies["descend_useful"]
    out["relational.rows_offered"] = calls("view.add")
    out["relational.rows_new"] = rec.tallies["rows_new"]
    out["relational.join_calls"] = calls(
        "join.hash_join@tric", "join.hash_join@assembler", "join.hash_join"
    )
    out["engine.assembler.calls"] = calls(
        "assembler.on_path_delta", "assembler.finish_update"
    )
    out["engine.assembler.finish_calls"] = calls("assembler.finish_update")
    out["engine.assembler.fires"] = rec.tallies["fires"]
    return out


class GcClock:
    """Times CPython's cyclic collector through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.total_s = 0.0
        self.max_s = 0.0
        self.gen2 = 0
        self._t0 = 0.0

    def _cb(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
            return
        d = time.perf_counter() - self._t0
        self.total_s += d
        self.max_s = max(self.max_s, d)
        if info.get("generation") == 2:
            self.gen2 += 1

    def __enter__(self) -> "GcClock":
        gc.callbacks.append(self._cb)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._cb)
