"""Span tracing of depegwatch from outside the package.

``Tracer.installed()`` replaces every public function of each depegwatch
module with a recording wrapper, under every name it is bound to, so calls
between modules (``simulator`` calling ``apply_swap``, ``estimate_pin``
calling ``pin_likelihood``, ``get_dy`` calling ``compute_d``) are seen
too. On exit the originals are restored, so passes run outside the block
are untraced.

A span is (name, parent span, start, end). Spans live in flat arrays
while a pass runs; ``summarize`` turns them into the per-layer metrics of
that pass, and ``write`` dumps the spans of one pass as gzipped TSV.
"""

from __future__ import annotations

import gzip
import inspect
import os
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("core", "stableswap", "metrics", "bocd", "evaluation", "simulator",
          "pipeline", "cli", "bench")
CLI_COMMANDS = ("simulate", "metrics", "label", "detect", "score", "report",
                "verify")
# Pipeline writers whose outermost calls make up ``pipeline.write_s``.
WRITERS = ("pipeline.write_csv", "pipeline.write_metric_series",
           "pipeline.write_scenario", "pipeline.append_score_row")
MANIFEST = ("pipeline.write_manifest", "pipeline.verify_manifest")
# Pipeline readers whose input files count toward ``pipeline.rows_in``.
READERS = ("pipeline.read_metric_series", "pipeline.read_labels",
           "pipeline.read_changepoints", "pipeline.read_score_rows",
           "pipeline.read_price_samples")
INGEST_FILES = ("trades.csv", "liquidity.csv", "reserves.csv", "prices.csv")

# Per-layer metrics of a traced pass: name -> unit. A layer time is the
# seconds spent in that layer's spans (``<layer>.self_s``: minus the time
# of their child spans), so a layer that does no work on a workload reads 0.
TIMES = (
    "bocd.step", "bocd.state_roundtrip", "evaluation.tune",
    "metrics.rolling_pin", "metrics.markout", "metrics.classify_sharks",
    "simulator.run_scenario", "pipeline.ingest", "pipeline.write",
    "pipeline.manifest", "core.aggregate",
    *(f"cli.{c}" for c in CLI_COMMANDS),
    *(f"{layer}.self" for layer in LAYERS),
)
COUNTS = (
    "bocd.step_calls", "bocd.live_hypotheses_mean",
    "bocd.live_hypotheses_peak", "evaluation.detect_calls_per_tune",
    "metrics.pin_windows", "metrics.pin_likelihood_calls",
    "metrics.trades_skipped", "simulator.trades", "simulator.truncated",
    "stableswap.compute_d_calls", "stableswap.get_dy_calls",
    "stableswap.marginal_price_calls", "pipeline.rows_in",
    "pipeline.rows_out", "core.price_lookups", "trace.spans",
)
PER_LAYER = {
    **{f"{name}_s": "s" for name in TIMES},
    **{name: "count" for name in COUNTS},
    "bocd.state_bytes": "B",
    "pipeline.bytes_out": "B",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
}


def _targets(modules):
    """(qualified name, owner, attribute) of every function to wrap."""
    out = []
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[-1]
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_") and attr != "main"):
                out.append((f"{layer}.{attr}", mod, attr))
    core = next(m for m in modules if m.__name__.endswith(".core"))
    for attr in ("lookup", "series"):
        out.append((f"core.PriceTable.{attr}", core.PriceTable, attr))
    return out


class Tracer:
    """Records spans of wrapped depegwatch calls, one pass at a time."""

    def __init__(self, package, modules):
        self._package = package
        self._modules = modules
        self._targets = _targets(modules)
        self.names: list[str] = ["bench.pass"]
        self._ids = {"bench.pass": 0}
        self.reset()

    def reset(self) -> None:
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.hypotheses = array("i")
        self.trades = 0
        self.truncated = 0
        self.trades_skipped = 0
        self.read_paths: list[str] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1])
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts[idx] = perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _observe(self, name: str, args, result) -> None:
        if name == "bocd.step":
            self.hypotheses.append(int(result[0].runs.size))
        elif name == "simulator.run_scenario":
            self.trades += len(result.stream.trades)
            self.truncated += int(result.truncated)
        elif name == "metrics.pool_markout_series":
            self.trades_skipped += int(result[1])
        elif name == "pipeline.ingest":
            self.read_paths += [os.path.join(args[0], f) for f in INGEST_FILES]
        elif name in READERS:
            self.read_paths.append(args[0])

    def _wrap(self, name: str, fn):
        name_id = self.name_id(name)
        observed = name in READERS or name in (
            "bocd.step", "simulator.run_scenario",
            "metrics.pool_markout_series", "pipeline.ingest")
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observed:
                tracer._observe(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Patch every binding of the target functions; restore on exit."""
        originals = {id(getattr(owner, attr)): (name, getattr(owner, attr))
                     for name, owner, attr in self._targets}
        wrappers = {key: self._wrap(name, fn)
                    for key, (name, fn) in originals.items()}
        patched = []
        owners = {id(o): o for o in (self._package, *self._modules,
                                     *(o for _, o, _ in self._targets))}
        for owner in owners.values():
            for attr, obj in list(vars(owner).items()):
                if id(obj) in wrappers and originals[id(obj)][1] is obj:
                    patched.append((owner, attr, obj))
                    setattr(owner, attr, wrappers[id(obj)])
        try:
            yield
        finally:
            for owner, attr, obj in patched:
                setattr(owner, attr, obj)

    def summarize(self, out_dir: str | None) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        names = np.array(self.names, dtype=object)
        ids = np.frombuffer(self.name_ids, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        durs = (np.frombuffer(self.ends, dtype=np.float64)
                - np.frombuffer(self.starts, dtype=np.float64))
        child = np.zeros_like(durs)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], durs[has_parent])
        self_time = durs - child
        span_names = names[ids]
        parent_names = np.where(has_parent, names[ids[np.maximum(parents, 0)]],
                                "")

        def is_(*wanted):
            return np.isin(span_names, wanted)

        def total(*wanted, outermost=False):
            mask = is_(*wanted)
            if outermost:
                mask &= ~np.isin(parent_names, wanted)
            return float(durs[mask].sum())

        def count(*wanted):
            return int(is_(*wanted).sum())

        layer_of = np.array([n.split(".", 1)[0] for n in self.names],
                            dtype=object)[ids]
        hyp = np.frombuffer(self.hypotheses, dtype=np.int32)
        tunes = count("evaluation.tune")
        detects_in_tune = int((is_("bocd.detect_series")
                               & (parent_names == "evaluation.tune")).sum())
        rows_out, bytes_out = _output_size(out_dir)
        seconds = {
            "bocd.step": total("bocd.step"),
            "evaluation.tune": total("evaluation.tune"),
            "metrics.rolling_pin": total("metrics.rolling_pin"),
            "metrics.markout": total("metrics.pool_markout_series"),
            "metrics.classify_sharks": total("metrics.classify_sharks"),
            "simulator.run_scenario": total("simulator.run_scenario"),
            "pipeline.ingest": total("pipeline.ingest"),
            "pipeline.write": total(*WRITERS, outermost=True),
            "pipeline.manifest": total(*MANIFEST),
            "core.aggregate": total("core.aggregate"),
            **{f"cli.{c}": total(f"cli.{c}") for c in CLI_COMMANDS},
            **{f"{layer}.self": float(self_time[layer_of == layer].sum())
               for layer in LAYERS},
        }
        out = {f"{name}_s": value for name, value in seconds.items()}
        out.update({
            "bocd.step_calls": count("bocd.step"),
            "bocd.live_hypotheses_mean": float(hyp.mean()) if hyp.size else 0.0,
            "bocd.live_hypotheses_peak": int(hyp.max()) if hyp.size else 0,
            "evaluation.detect_calls_per_tune":
                detects_in_tune / tunes if tunes else 0.0,
            "metrics.pin_windows": count("metrics.estimate_pin"),
            "metrics.pin_likelihood_calls": count("metrics.pin_likelihood"),
            "metrics.trades_skipped": self.trades_skipped,
            "simulator.trades": self.trades,
            "simulator.truncated": self.truncated,
            "stableswap.compute_d_calls": count("stableswap.compute_d"),
            "stableswap.get_dy_calls": count("stableswap.get_dy"),
            "stableswap.marginal_price_calls":
                count("stableswap.marginal_price"),
            "pipeline.rows_in": sum(_data_rows(p) for p in self.read_paths),
            "pipeline.rows_out": rows_out,
            "pipeline.bytes_out": bytes_out,
            "core.price_lookups": count("core.PriceTable.lookup"),
            "trace.spans": int(durs.size),
            "trace.pass_s": float(durs[0]),
        })
        return out

    def write(self, path: str, header: str) -> None:
        """Dump the current spans as TSV: id, parent, name, start_us, end_us."""
        origin = self.starts[0] if len(self.starts) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(f"# {header}\nid\tparent\tname\tstart_us\tend_us\n")
            for idx in range(len(self.starts)):
                fh.write(f"{idx}\t{self.parents[idx]}\t"
                         f"{self.names[self.name_ids[idx]]}\t"
                         f"{(self.starts[idx] - origin) * 1e6:.3f}\t"
                         f"{(self.ends[idx] - origin) * 1e6:.3f}\n")


def _data_rows(path: str) -> int:
    if not os.path.exists(path):
        return 0
    with open(path, "rb") as fh:
        return max(sum(1 for _ in fh) - 1, 0)


def _output_size(out_dir: str | None) -> tuple[int, int]:
    """(CSV data rows, bytes) of every file under ``out_dir``."""
    rows = size = 0
    if out_dir is None:
        return rows, size
    for base, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(base, name)
            size += os.path.getsize(path)
            if name.endswith(".csv"):
                rows += _data_rows(path)
    return rows, size
