"""In-memory span tracer that times aeslab's layers from outside.

The tracer never edits the package. For a traced operation it replaces the
public functions that ``aeslab.cli`` and ``aeslab.cipher`` look up at call
time with wrappers that record one span per call, and puts the originals
back when the operation ends. Each span has a name, start and end
(``perf_counter`` seconds), the id of the span that was open when it
started, the operation id, and the CPU used by this process and by reaped
child processes while it was open. Counts (blocks, nodes, bytes) are taken
at the same boundaries, from the arguments and results the wrappers kept,
but only when the caller asks for them with ``count`` after the
operation's timed window, so counting adds nothing to the operation's time.
"""

from __future__ import annotations

import os
import resource
import tempfile
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

# (module, function) pairs wrapped for a traced operation. cli.run_pipeline is
# left alone: it calls the cipher-level generate/assign/encrypt functions,
# which are wrapped.
WRAPPED: Tuple[Tuple[str, str], ...] = (
    ("aeslab.cipher", "generate_blocks"),
    ("aeslab.cipher", "assign_anomalies"),
    ("aeslab.cipher", "encrypt_blocks"),
    ("aeslab.cli", "build_dataset"),
    ("aeslab.cli", "split_train_test"),
    ("aeslab.cli", "fit_forest"),
    ("aeslab.cli", "predict_all"),
    ("aeslab.cli", "load_model"),
    ("aeslab.cli", "fit_threshold"),
    ("aeslab.cli", "classify_threshold"),
    ("aeslab.cli", "score"),
    ("aeslab.cli", "export_csv"),
    ("aeslab.cli", "read_blocks_csv"),
    ("aeslab.cli", "rows_to_vectors"),
)

OP_SPAN = "op"

# per-layer metric -> unit; trace.overhead_frac is added by run.py
LAYER_METRICS = {
    "workload.generate_s": "s", "workload.assign_s": "s",
    "cipher.encrypt_s": "s", "cipher.us_per_block": "us", "cipher.parent_cpu_s": "s",
    "cipher.worker_cpu_s": "s", "cipher.pool_busy_ratio": "ratio",
    "detect_forest.fit_s": "s", "detect_forest.fit_us_per_node": "us",
    "detect_forest.nodes": "count", "detect_forest.max_depth": "count",
    "detect_forest.predict_s": "s", "detect_forest.predict_ns_per_block_tree": "ns",
    "detect_forest.load_s": "s", "detect_forest.model_bytes": "bytes",
    "detect_forest.features_s": "s", "detect_forest.split_s": "s",
    "detect_threshold.fit_s": "s", "detect_threshold.classify_s": "s",
    "metrics_report.export_s": "s", "metrics_report.export_bytes": "bytes",
    "metrics_report.score_s": "s", "metrics_report.read_csv_s": "s",
    "metrics_report.rows_to_vectors_s": "s",
    "cli.self_s": "s",
}
TIME_UNITS = ("s", "us", "ns")


def _cpu() -> Tuple[float, float]:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


class Tracer:
    """Collects spans for the operations it is asked to trace."""

    def __init__(self, modules: Dict[str, object]) -> None:
        self.modules = modules
        self.spans: List[dict] = []
        self.errors: List[str] = []
        self._stack: List[int] = []
        self._op: Optional[int] = None
        self._kept: Dict[int, tuple] = {}
        self.missing = [f"{m}.{f}" for m, f in WRAPPED if not hasattr(modules[m], f)]

    def _open(self, name: str) -> dict:
        parent = self._stack[-1] if self._stack else None
        span = {"id": len(self.spans), "name": name, "op": self._op, "parent": parent,
                "counts": {}}
        self.spans.append(span)
        self._stack.append(span["id"])
        span["cpu0"] = _cpu()
        span["start"] = time.perf_counter()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self_cpu, kids_cpu = _cpu()
        span["counts"]["self_cpu_s"] = self_cpu - span["cpu0"][0]
        span["counts"]["children_cpu_s"] = kids_cpu - span.pop("cpu0")[1]
        self._stack.pop()

    def _wrap(self, name: str, original: Callable) -> Callable:
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            self._kept[span["id"]] = (args, kwargs, result)
            return result
        return traced

    @contextmanager
    def operation(self, op_id: int):
        """Trace one operation: install wrappers, open its root span, restore."""
        originals = []
        for mod_name, fn in WRAPPED:
            mod = self.modules[mod_name]
            if hasattr(mod, fn):
                original = getattr(mod, fn)
                originals.append((mod, fn, original))
                setattr(mod, fn, self._wrap(fn, original))
        self._op = op_id
        root = self._open(OP_SPAN)
        try:
            yield root
        finally:
            self._close(root)
            for mod, fn, original in originals:
                setattr(mod, fn, original)
            self._op = None

    def count(self, op_id: int) -> None:
        """Fill span counts from the kept arguments and results, then drop them.

        Call it after the operation's timed window: it saves and parses
        model dumps and reads file sizes.
        """
        for span in self.spans:
            if span["op"] != op_id or span["id"] not in self._kept:
                continue
            args, kwargs, result = self._kept.pop(span["id"])
            counter = _COUNTERS.get(span["name"])
            if counter is None:
                continue
            try:
                span["counts"].update(counter(args, kwargs, result))
            except Exception as exc:  # a changed return type must not abort the run
                self.errors.append(f"{span['name']}: {type(exc).__name__}: {exc}")

    def op_metrics(self, op_id: int, slowdown: float) -> Dict[str, float]:
        """Per-layer metrics of one traced operation, times at reference speed."""
        spans = [s for s in self.spans if s["op"] == op_id]
        by_name: Dict[str, List[dict]] = {}
        for s in spans:
            by_name.setdefault(s["name"], []).append(s)

        def dur(name: str) -> float:
            return sum(s["end"] - s["start"] for s in by_name.get(name, []))

        def count(name: str, key: str) -> float:
            return sum(s["counts"].get(key, 0) for s in by_name.get(name, []))

        enc_s = dur("encrypt_blocks")
        enc_blocks = count("encrypt_blocks", "blocks")
        busy_s = count("encrypt_blocks", "busy_us") / 1e6
        workers = max((s["counts"].get("workers", 1) for s in by_name.get("encrypt_blocks", [])),
                      default=1)
        fit_s = dur("fit_forest")
        fit_nodes = count("fit_forest", "nodes")
        predict_s = dur("predict_all")
        predict_work = count("predict_all", "block_trees")
        models = by_name.get("fit_forest", []) + by_name.get("load_model", [])
        root = by_name[OP_SPAN][0]
        raw = {
            "workload.generate_s": dur("generate_blocks"),
            "workload.assign_s": dur("assign_anomalies"),
            "cipher.encrypt_s": enc_s,
            "cipher.us_per_block": enc_s / enc_blocks * 1e6 if enc_blocks else 0.0,
            "cipher.parent_cpu_s": count("encrypt_blocks", "self_cpu_s"),
            "cipher.worker_cpu_s": count("encrypt_blocks", "children_cpu_s"),
            "cipher.pool_busy_ratio": busy_s / (workers * enc_s) if enc_s else 0.0,
            "detect_forest.fit_s": fit_s,
            "detect_forest.fit_us_per_node": fit_s / fit_nodes * 1e6 if fit_nodes else 0.0,
            "detect_forest.nodes": sum(s["counts"].get("nodes", 0) for s in models),
            "detect_forest.max_depth": max((s["counts"].get("max_depth", 0) for s in models),
                                           default=0),
            "detect_forest.predict_s": predict_s,
            "detect_forest.predict_ns_per_block_tree":
                predict_s / predict_work * 1e9 if predict_work else 0.0,
            "detect_forest.load_s": dur("load_model"),
            "detect_forest.model_bytes": count("load_model", "bytes"),
            "detect_forest.features_s": dur("build_dataset"),
            "detect_forest.split_s": dur("split_train_test"),
            "detect_threshold.fit_s": dur("fit_threshold"),
            "detect_threshold.classify_s": dur("classify_threshold"),
            "metrics_report.export_s": dur("export_csv"),
            "metrics_report.export_bytes": count("export_csv", "bytes"),
            "metrics_report.score_s": dur("score"),
            "metrics_report.read_csv_s": dur("read_blocks_csv"),
            "metrics_report.rows_to_vectors_s": dur("rows_to_vectors"),
            "cli.self_s": self_time(root, spans),
        }
        return {k: float(v) / slowdown if LAYER_METRICS[k] in TIME_UNITS else float(v)
                for k, v in raw.items()}

    def dump(self, t0: float) -> List[dict]:
        """Spans with times relative to t0, ready for JSON."""
        out = []
        for s in self.spans:
            out.append({"id": s["id"], "name": s["name"], "op": s["op"], "parent": s["parent"],
                        "start": s["start"] - t0, "end": s["end"] - t0, "counts": s["counts"]})
        return out


def self_time(span: dict, spans: List[dict]) -> float:
    """Span duration minus the part of its interval that its child spans cover."""
    covered = 0.0
    cursor = span["start"]
    for child in sorted((s for s in spans if s["parent"] == span["id"]), key=lambda s: s["start"]):
        lo, hi = max(child["start"], cursor), min(child["end"], span["end"])
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (span["end"] - span["start"]) - covered


def forest_shape(model) -> Tuple[int, int]:
    """(node count, max depth) of a forest, read from its save_model dump.

    The dump format (pre-order, one ``i``/``l`` line per node) is the
    package's stable on-disk interface, so this works whatever the in-memory
    tree layout is.
    """
    from aeslab.detect_forest import save_model

    fd, path = tempfile.mkstemp(suffix=".forest")
    os.close(fd)
    try:
        save_model(model, path)
        return _shape_of_dump(path)
    finally:
        os.unlink(path)


def _shape_of_dump(path: str) -> Tuple[int, int]:
    nodes = 0
    max_depth = 0
    pending: List[int] = []  # depths of subtrees still to be read, pre-order
    with open(path, encoding="ascii") as handle:
        for line in handle:
            kind = line[:2]
            if line.startswith("tree "):
                pending = [0]
            elif kind in ("i ", "l "):
                depth = pending.pop()
                nodes += 1
                max_depth = max(max_depth, depth)
                if kind == "i ":
                    pending += [depth + 1, depth + 1]
    return nodes, max_depth


def _encrypt_counts(args, kwargs, records):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    counts = {"blocks": len(records), "workers": cfg.workers}
    if cfg.mode.value == "real":
        counts["busy_us"] = sum(r.time_us for r in records)
    return counts


def _fit_counts(args, kwargs, model):
    nodes, depth = forest_shape(model)
    return {"nodes": nodes, "max_depth": depth}


def _load_counts(args, kwargs, model):
    path = args[0] if args else kwargs["path"]
    nodes, depth = forest_shape(model)
    return {"bytes": os.path.getsize(path), "nodes": nodes, "max_depth": depth}


def _predict_counts(args, kwargs, preds):
    model = args[0] if args else kwargs["model"]
    return {"blocks": len(preds), "block_trees": len(preds) * len(model.trees)}


def _export_counts(args, kwargs, paths):
    return {"bytes": sum(os.path.getsize(p) for p in paths)}


_COUNTERS: Dict[str, Callable] = {
    "generate_blocks": lambda a, k, r: {"blocks": len(r)},
    "assign_anomalies": lambda a, k, r: {"blocks": len(r)},
    "encrypt_blocks": _encrypt_counts,
    "fit_forest": _fit_counts,
    "load_model": _load_counts,
    "predict_all": _predict_counts,
    "export_csv": _export_counts,
    "read_blocks_csv": lambda a, k, r: {"blocks": len(r)},
    "rows_to_vectors": lambda a, k, r: {"blocks": len(r[0])},
}
