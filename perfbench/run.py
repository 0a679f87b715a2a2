"""depegwatch benchmark: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload tune_grid --seed 1 --seconds 24 --trace 0

Run from the repository root. The package is imported from ``./src``.
``setup_s`` is the median time to import the package in a fresh process
plus the median set-up (input generation plus warm-up); both are repeated
several times. Then whole workload passes repeat until
``--seconds`` have elapsed; every pass's outputs are checked against
``perfbench/refs.json`` (or, for ``detect_stream``, against one uninterrupted
detection). ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics of the traced ones (see ``tracing.py``).

Every metric is printed as ``metric <name> <value> <unit>``; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Results and the environment also go to
``perfbench/out/<workload>-trace<0|1>.json``.

``--record-refs`` recomputes ``refs.json`` from the current code.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
REFS = BENCH / "refs.json"

DAY = 86400
HOUR = 3600
PP = "posterior_predictive"
SETUP_REPEATS = 3
IMPORT_SAMPLES = 3
# Imports the package in a fresh process and prints how long that took.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import depegwatch; "
    "from depegwatch import (bocd, cli, core, evaluation, metrics, pipeline, "
    "simulator, stableswap); print(time.perf_counter() - t)")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def load_package():
    """Import depegwatch from ./src; returns (package, modules)."""
    src = ROOT / "src"
    if not (src / "depegwatch" / "__init__.py").is_file():
        raise BenchError(f"no depegwatch package under {src}")
    sys.path.insert(0, str(src))
    import depegwatch
    from depegwatch import (bocd, cli, core, evaluation, metrics, pipeline,
                            simulator, stableswap)
    if Path(depegwatch.__file__).resolve().parent != src / "depegwatch":
        raise BenchError(f"imported depegwatch from {depegwatch.__file__}")
    modules = (core, stableswap, metrics, bocd, evaluation, simulator,
               pipeline, cli)
    return depegwatch, modules


def fresh_import_s(samples: int) -> list[float]:
    """Seconds to import depegwatch in each of ``samples`` fresh processes."""
    return [float(subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")], cwd=ROOT,
        capture_output=True, text=True, check=True, timeout=60).stdout)
        for _ in range(samples)]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Clock:
    """Times a pass's measured region; opens spans when tracing."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds = 0.0

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    @contextlib.contextmanager
    def timed(self):
        with self.span("bench.pass"):
            started = perf_counter()
            try:
                yield
            finally:
                self.seconds += perf_counter() - started


# ---------------------------------------------------------------------------
# Workloads. Each has setup(), run_pass(i, out_dir, clock) -> dict of
# results and stage times, observe(i, out_dir, result) -> {op: value} and
# expected(i) -> {op: value}. An op fails when its value differs.


class Workload:
    def __init__(self, dw, seed: int, scale: str, refs: dict):
        self.dw = dw
        self.seed = seed
        self.smoke = scale == "smoke"
        self.refs = refs.get(scale, {}).get(self.name, {})

    def expected(self, i: int) -> dict:
        return self.refs

    def stages(self, results: list[dict]) -> dict[str, tuple[float, str]]:
        return {}


def acceptance_scenario(dw, seed: int, depeg_day: int, days: int = 14):
    """The two-token depeg market of acceptance criterion 6."""
    usdx, usdy = dw.core.TokenId("USDX"), dw.core.TokenId("USDY")
    return dw.simulator.ScenarioConfig(
        seed=seed, duration=days * DAY, step=300, tokens=(usdx, usdy),
        pool=dw.stableswap.PoolState((5e6, 5e6), amp=50.0, fee=0.0004,
                                     lp_supply=1e7),
        peg_prices={usdx: 1.0, usdy: 1.0},
        depeg_events=(dw.simulator.DepegEvent(
            usdx, start=depeg_day * DAY, target_price=0.85, ramp=DAY),),
        noise_vol=2e-4, arb_threshold=0.002, n_noise_traders=2,
        n_informed=2, informed_lead=6 * HOUR, informed_fraction=0.005,
        lp_event_prob=0.02)


class TuneGrid(Workload):
    """evaluation.tune over a 3x3x3 cube of the 1000-prior grid for three
    acceptance metrics, then frozen detection and scoring on the test
    market. Pass i uses cube (seed + i) mod 7 along the grid diagonal."""

    name = "tune_grid"
    metrics = {"netSwapFlow": "none", "shannonsEntropy": "log_diff",
               "300.Markout": "none"}
    cube_los = range(-5, 2)  # lo = 2 (priors up to 1e4) costs ~10% more

    def setup(self) -> None:
        dw = self.dw
        started = perf_counter()
        train = dw.simulator.run_scenario(acceptance_scenario(dw, 777, 8))
        test = dw.simulator.run_scenario(acceptance_scenario(dw, 1234, 9))
        self.simulate_s = (perf_counter() - started) / 2
        self.series = {}
        labels = []
        for out in (train, test):
            prices = dw.core.PriceTable(out.prices)
            entry = dw.pipeline.PoolRegistryEntry(
                "scenario", "s", "0" * 40, out.config.tokens, 50.0, 0.0004)
            sp, vp = dw.pipeline.share_price_series(out.stream, prices, entry,
                                                    HOUR)
            labels.append([l.ts for l in dw.evaluation.label_depegs(sp, vp)])
            for metric, transform in self.metrics.items():
                raw = self._raw_metric(out, metric, prices)
                self.series.setdefault(metric, []).append(
                    dw.pipeline.transform_series(raw, transform))
        self.train_labels, self.test_labels = labels
        for metric, (tr, te) in self.series.items():
            mean, std = dw.core.fit_stats(tr)
            self.series[metric] = (dw.core.standardize(tr, mean, std),
                                   dw.core.standardize(te, mean, std))
        self.scoring = dw.evaluation.ScoringConfig(margin_m=48 * HOUR)
        self.base = dw.bocd.DetectorConfig(predictive_scale=PP)
        tr, _ = self.series["netSwapFlow"]
        dw.evaluation.tune(tr, self.train_labels,
                           dw.evaluation.GridSpace((0, 0)), self.scoring,
                           self.base)

    def _raw_metric(self, out, metric, prices):
        dw = self.dw
        stream = out.stream
        if metric == "netSwapFlow":
            return dw.metrics.net_swap_flow(stream.trades, out.config.tokens[0],
                                            HOUR, pool_id="scenario")
        if metric == "shannonsEntropy":
            points = [(s.ts, dw.metrics.shannon_entropy(s.balances))
                      for s in stream.snapshots]
            return dw.core.aggregate(points, HOUR, "last",
                                     metric_name=metric, pool_id="scenario")
        series, _ = dw.metrics.pool_markout_series(
            stream.trades, prices, 300, HOUR, pool_id="scenario")
        return series

    def cube(self, i: int) -> tuple[int, int]:
        lo = self.cube_los[(self.seed + i) % len(self.cube_los)]
        return (lo, lo) if self.smoke else (lo, lo + 2)

    def run_pass(self, i, out_dir, clock):
        dw = self.dw
        space = dw.evaluation.GridSpace(self.cube(i))
        tune_s = detect_s = 0.0
        result = {}
        with clock.timed():
            for metric, (train, test) in self.series.items():
                t0 = perf_counter()
                prior, report = dw.evaluation.tune(
                    train, self.train_labels, space, self.scoring, self.base)
                t1 = perf_counter()
                cfg = dw.bocd.DetectorConfig(prior=prior, predictive_scale=PP)
                changepoints, _, _ = dw.bocd.detect_series(test, cfg)
                held_out = dw.evaluation.lf_score(
                    self.test_labels, [cp.ts for cp in changepoints],
                    self.scoring)
                t2 = perf_counter()
                tune_s += t1 - t0
                detect_s += t2 - t1
                result[metric] = (prior, report, held_out)
        priors = len(dw.evaluation.grid_configs(space)) * len(self.series)
        return {"priors": priors, "tune_s": tune_s, "result": result,
                "detect_s": detect_s / len(self.series)}

    def observe(self, i, out_dir, result):
        lo = self.cube(i)[0]
        return {f"{metric}@{lo}": {
            "prior": [prior.alpha, prior.beta, prior.kappa],
            "train": [rep.lf_score, rep.precision, rep.weighted_recall],
            "test": [held.lf_score, held.precision, held.weighted_recall]}
            for metric, (prior, rep, held) in result["result"].items()}

    def expected(self, i):
        lo = self.cube(i)[0]
        return {f"{m}@{lo}": self.refs.get(f"{m}@{lo}") for m in self.metrics}

    def stages(self, results):
        tune_ms = statistics.median(1e3 * r["tune_s"] / r["priors"]
                                    for r in results)
        return {"simulate_14d_s": (self.simulate_s, "s"),
                "tune_per_prior_ms": (tune_ms, "ms"),
                # ms per prior times 1000 priors, in seconds
                "tune_1000_priors_s": (tune_ms, "s"),
                "frozen_detect_ms": (statistics.median(
                    1e3 * r["detect_s"] for r in results), "ms")}


class PinMetrics(Workload):
    """The ``metrics`` stage on a written 7-day acceptance-style bundle:
    ingest, compute_pool_metrics (rolling PIN over one 7-bucket window per
    token), and one CSV per metric series."""

    name = "pin_metrics"

    def setup(self) -> None:
        dw = self.dw
        cfg = acceptance_scenario(dw, 777, depeg_day=4, days=7)
        self.bundle = fresh_dir(OUT / f"work-{self.name}" / "bundle")
        dw.pipeline.write_scenario(str(self.bundle),
                                   dw.simulator.run_scenario(cfg))
        registry = dw.pipeline.load_pool_registry(
            str(self.bundle / "registry.json"))
        dw.pipeline.ingest(str(self.bundle), registry, HOUR)

    def run_pass(self, i, out_dir, clock):
        dw = self.dw
        cfg = dw.metrics.MetricConfig(window=HOUR, markout_horizon=300,
                                      price_tolerance=HOUR)
        with clock.timed():
            t0 = perf_counter()
            registry = dw.pipeline.load_pool_registry(
                str(self.bundle / "registry.json"))
            streams, prices = dw.pipeline.ingest(str(self.bundle), registry,
                                                 HOUR)
            t1 = perf_counter()
            computed = []
            for pool_id, stream in sorted(streams.items()):
                computed += [(pool_id, *m) for m in
                             dw.pipeline.compute_pool_metrics(
                                 stream, prices, registry[pool_id], cfg, HOUR)]
            t2 = perf_counter()
            for pool_id, name, token, series in computed:
                path = out_dir / dw.pipeline.metric_filename(pool_id, name,
                                                             token)
                dw.pipeline.write_metric_series(str(path), series)
            t3 = perf_counter()
        return {"ingest_s": t1 - t0, "compute_pool_metrics_s": t2 - t1,
                "write_s": t3 - t2}

    def observe(self, i, out_dir, result):
        return {p.name: sha256(p) for p in sorted(out_dir.iterdir())}

    def stages(self, results):
        return {k: (statistics.median(r[k] for r in results), "s")
                for k in ("ingest_s", "compute_pool_metrics_s", "write_s")}


class CliMarket(Workload):
    """The README's CLI chain in-process through cli.main on a 3-token,
    high-noise market shorter than pin_window, with a fixed published
    prior (the swap-flow row of acceptance criterion 8)."""

    name = "cli_market"

    def setup(self) -> None:
        days = 1 if self.smoke else 6
        symbols = ("USDX", "USDY", "USDZ")
        scenario = {
            "seed": 4242, "duration": days * DAY, "step": 300,
            "tokens": [{"symbol": s} for s in symbols],
            "pool": {"balances": [4e6] * 3, "amp": 50.0, "fee": 0.0004,
                     "lp_supply": 1.2e7},
            "peg_prices": {s: 1.0 for s in symbols},
            "depeg_events": [{"token": "USDX", "start": days * DAY // 2,
                              "target_price": 0.85, "ramp": DAY // 2}],
            "noise_vol": 1e-3, "n_noise_traders": 8, "n_informed": 2,
            "informed_lead": 6 * HOUR, "lp_event_prob": 0.05,
        }
        params = {"transform": "none", "mu": 0.0, "alpha": 0.01,
                  "beta": 1000.0, "kappa": 1.0, "hazard_lambda": 100.0,
                  "predictive_scale": PP}
        self.inputs = fresh_dir(OUT / f"work-{self.name}" / "inputs")
        for name, doc in (("scenario.json", scenario), ("params.json", params)):
            (self.inputs / name).write_text(json.dumps(doc, indent=2) + "\n")
        self._call(["verify", "--help"])

    def _call(self, argv: list[str]) -> tuple[int, str]:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = self.dw.cli.main(argv)
        return code, sink.getvalue()

    def commands(self, d: Path) -> list[tuple[str, list[str]]]:
        inp = self.inputs
        market, cps = d / "market", d / "detect" / "changepoints.csv"
        chain = [
            ("simulate", ["--config", inp / "scenario.json",
                          "--out-dir", market]),
            ("metrics", ["--data-dir", market, "--out-dir", d / "metrics"]),
            ("label", ["--data-dir", market, "--pool-id", "scenario",
                       "--out", d / "labels.csv"]),
            ("detect", ["--metric-file",
                        d / "metrics" / "scenario__netSwapFlow__USDX.csv",
                        "--params", inp / "params.json",
                        "--out-dir", d / "detect"]),
            ("score", ["--labels", d / "labels.csv", "--changepoints", cps,
                       "--pool", "scenario", "--metric", "netSwapFlow",
                       "--params", inp / "params.json",
                       "--out", d / "scores.csv"]),
            ("report", ["--scores", d / "scores.csv",
                        "--prices", market / "prices.csv", "--token", "USDX",
                        "--level", "0.99", "--changepoints", cps,
                        "--out-dir", d / "report"]),
        ] + [("verify", ["--manifest", d / sub / "manifest.json"])
             for sub in ("market", "metrics", "detect", "report")]
        return [(cmd, [cmd, *map(str, rest)]) for cmd, rest in chain]

    def run_pass(self, i, out_dir, clock):
        codes, seconds = [], {}
        with clock.timed():
            for cmd, argv in self.commands(out_dir):
                with clock.span(f"cli.{cmd}"):
                    started = perf_counter()
                    code, text = self._call(argv)
                    seconds[cmd] = seconds.get(cmd, 0.0) + perf_counter() - started
                if code != 0:
                    print(f"{cmd} exited {code}: {text.strip()}",
                          file=sys.stderr)
                codes.append(code)
        return {"codes": codes, "commands": seconds}

    def observe(self, i, out_dir, result):
        files = {"label": ["labels.csv"], "score": ["scores.csv"]}
        dirs = {"simulate": "market", "metrics": "metrics", "detect": "detect",
                "report": "report"}
        out = {}
        for k, ((cmd, _), code) in enumerate(
                zip(self.commands(out_dir), result["codes"])):
            value = {"rc": code}
            if cmd in dirs:
                manifest = out_dir / dirs[cmd] / "manifest.json"
                if manifest.exists():
                    doc = json.loads(manifest.read_text())
                    value["inputs"] = doc["inputs"]
                    value["outputs"] = doc["outputs"]
            for name in files.get(cmd, []):
                if (out_dir / name).exists():
                    value[name] = sha256(out_dir / name)
            out[f"{k}:{cmd}"] = value
        return out

    def stages(self, results):
        return {f"cli_{cmd}_s": (statistics.median(
                    r["commands"][cmd] for r in results), "s")
                for cmd in results[0]["commands"]}


class DetectStream(Workload):
    """Online monitoring: every observation of a year of hourly points goes
    through bocd.step; at fixed chunk boundaries the state round-trips
    through state_to_dict -> JSON -> state_from_dict."""

    name = "detect_stream"

    def setup(self) -> None:
        import numpy as np
        dw = self.dw
        n, self.chunk = (600, 100) if self.smoke else (8760, 720)
        rng = np.random.default_rng(self.seed)
        # quiet, shift, quiet, shift: hypotheses build up to ~0.54 n
        bounds = [0, int(0.537 * n), int(0.696 * n), int(0.845 * n), n]
        parts = []
        for k in range(4):
            size = bounds[k + 1] - bounds[k]
            if k % 2:
                mean = rng.choice([-1.0, 1.0]) * rng.uniform(2.0, 3.0)
                parts.append(rng.normal(mean, rng.uniform(1.5, 2.0), size))
            else:
                parts.append(rng.normal(0.0, 1.0, size))
        self.values = [float(x) for x in np.concatenate(parts)]
        self.timestamps = [HOUR * (k + 1) for k in range(n)]
        self.cfg = dw.bocd.DetectorConfig(
            prior=dw.bocd.NGParams(0.0, 1.0, 1.0, 1.0), predictive_scale=PP)
        state = dw.bocd.init_state(self.cfg)
        for x in self.values[:200]:
            state, _ = dw.bocd.step(state, x, self.cfg)
        self._expected = None

    def run_pass(self, i, out_dir, clock):
        import numpy as np
        bocd = self.dw.bocd
        latencies, chunks = [], []
        roundtrip_s, state_bytes = 0.0, 0
        values, stamps = self.values, self.timestamps
        with clock.timed():
            cfg = self.cfg
            state = bocd.init_state(cfg)
            for start in range(0, len(values), self.chunk):
                if start:
                    t0 = perf_counter()
                    doc = json.dumps(bocd.state_to_dict(state, cfg))
                    state, cfg = bocd.state_from_dict(json.loads(doc))
                    roundtrip_s += perf_counter() - t0
                    state_bytes += len(doc)
                cps, trace = [], []
                for k in range(start, min(start + self.chunk, len(values))):
                    t0 = perf_counter_ns()
                    state, cp = bocd.step(state, values[k], cfg, ts=stamps[k])
                    latencies.append(perf_counter_ns() - t0)
                    trace.append(bocd.RunLengthPoint(
                        stamps[k], state.t, state.prev_gamma,
                        state.map_probability))
                    if cp is not None:
                        cps.append(cp)
                chunks.append((cps, trace))
        roundtrips = max(len(chunks) - 1, 1)
        return {"latencies_ns": np.array(latencies, dtype=np.int64),
                "chunks": chunks,
                "final": state.log_joint.tobytes() + state.runs.tobytes(),
                "roundtrip_s": roundtrip_s,
                "state_bytes": state_bytes / roundtrips}

    @staticmethod
    def _digests(chunks, final) -> dict:
        out = {}
        for c, (cps, trace) in enumerate(chunks):
            digest = hashlib.sha256(repr((cps, trace)).encode())
            if c == len(chunks) - 1:
                digest.update(final)
            out[f"chunk{c}"] = digest.hexdigest()
        return out

    def observe(self, i, out_dir, result):
        # popped so that memory does not grow with the number of passes
        return self._digests(result.pop("chunks"), result.pop("final"))

    def expected(self, i):
        if self._expected is None:
            bocd = self.dw.bocd
            series = self.dw.core.MetricSeries(
                "stream", "bench", self.timestamps, self.values)
            cps, trace, state = bocd.detect_series(series, self.cfg)
            chunks = []
            for start in range(0, len(self.values), self.chunk):
                end = start + self.chunk
                chunks.append(([c for c in cps if start < c.step <= end],
                               trace[start:end]))
            self._expected = self._digests(
                chunks, state.log_joint.tobytes() + state.runs.tobytes())
        return self._expected


WORKLOADS = {w.name: w for w in (TuneGrid, PinMetrics, CliMarket, DetectStream)}


# ---------------------------------------------------------------------------
# Harness


def normalize(value):
    return json.loads(json.dumps(value))


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(int(-(-q * len(sorted_values) // 100)), 1)
    return float(sorted_values[rank - 1])


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
        "loop": "closed, one process, one caller",
    }


def measure(workload, seconds: float, tracer, record: bool = False,
            passes: int | None = None):
    """Run passes until ``seconds`` elapse (or exactly ``passes``)."""
    work = OUT / f"work-{workload.name}"
    untraced, traced, layers = [], [], []
    attempted = failed = 0
    observed_all = {}
    deadline = perf_counter() + seconds
    i = 0
    while True:
        # traced runs pair each variant's untraced pass with a traced one
        use_trace = tracer is not None and i % 2 == 1
        variant = i // 2 if tracer is not None else i
        out_dir = fresh_dir(work / "pass")
        clock = Clock(tracer if use_trace else None)
        gc.collect()
        result = None
        try:
            if use_trace:
                tracer.reset()
                with tracer.installed():
                    result = workload.run_pass(variant, out_dir, clock)
            else:
                result = workload.run_pass(variant, out_dir, clock)
            observed = normalize(workload.observe(variant, out_dir, result))
        except Exception:  # a failed pass counts its ops as failed
            traceback.print_exc()
            observed = {}
        expected = observed if record else normalize(workload.expected(variant))
        keys = set(expected) | set(observed)
        bad = sorted(k for k in keys if k not in observed
                     or observed.get(k) != expected.get(k))
        for key in bad:
            print(f"FAIL {workload.name} pass {i} op {key}", file=sys.stderr)
        attempted += len(keys)
        failed += len(bad)
        observed_all.update(observed)
        if result is not None:
            result["seconds"] = clock.seconds
            if use_trace:
                layer = tracer.summarize(str(out_dir))
                layer["bocd.state_roundtrip_s"] = result.get("roundtrip_s", 0.0)
                layer["bocd.state_bytes"] = result.get("state_bytes", 0.0)
                layers.append(layer)
                traced.append(result)
            else:
                untraced.append(result)
        i += 1
        if passes is not None:
            if i >= passes:
                break
        elif perf_counter() >= deadline and (
                (untraced and (tracer is None or traced)) or i >= 4):
            break  # the last clause stops a run whose passes keep failing
    shutil.rmtree(work / "pass", ignore_errors=True)
    return untraced, traced, layers, attempted, failed, observed_all


def record_refs(dw) -> None:
    refs = {}
    for scale in ("full", "smoke"):
        for cls in (TuneGrid, PinMetrics, CliMarket):
            workload = cls(dw, 0, scale, {})
            workload.setup()
            count = len(TuneGrid.cube_los) if cls is TuneGrid else 1
            *_, observed = measure(workload, 0, None, record=True,
                                   passes=count)
            refs.setdefault(scale, {})[cls.name] = observed
            print(f"recorded {scale}/{cls.name}: {len(observed)} ops")
    REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for the benchmark's own test")
    parser.add_argument("--record-refs", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_refs and not args.workload:
        parser.error("--workload is required")
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = "1"

    try:
        dw_package, modules = load_package()
        refs = {} if args.record_refs else json.loads(REFS.read_text())
    except (BenchError, ImportError, OSError, ValueError) as err:
        print(f"benchmark cannot run: {err}", file=sys.stderr)
        return 2
    dw = argparse.Namespace(**{m.__name__.rsplit(".", 1)[-1]: m
                               for m in modules})
    OUT.mkdir(exist_ok=True)
    if args.record_refs:
        record_refs(dw)
        return 0

    workload = WORKLOADS[args.workload](dw, args.seed, args.scale, refs)
    smoke = args.scale == "smoke"
    imports = fresh_import_s(1 if smoke else IMPORT_SAMPLES)
    setups = []
    for _ in range(1 if smoke else SETUP_REPEATS):
        started = perf_counter()
        workload.setup()
        setups.append(perf_counter() - started)
    workload.expected(0)  # build a computed reference before timing

    tracer = None
    if args.trace:
        sys.path.insert(0, str(BENCH))
        from tracing import PER_LAYER, Tracer
        tracer = Tracer(dw_package, modules)
    untraced, traced, layers, attempted, failed, _ = measure(
        workload, args.seconds, tracer)
    if not untraced or (tracer is not None and not traced):
        print("no pass completed", file=sys.stderr)
        return 1

    import numpy as np

    def median_of(key, results):
        return statistics.median(r[key] for r in results)

    e2e = {
        "wall_s": median_of("seconds", untraced),
        "setup_s": statistics.median(imports) + statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {"error_rate": (failed / attempted if attempted else 1.0, "ratio")}
    if workload.name == "tune_grid":
        extra["priors_per_s"] = (statistics.median(
            r["priors"] / r["tune_s"] for r in untraced), "1/s")
    if workload.name == "detect_stream":
        samples = np.sort(np.concatenate([r["latencies_ns"] for r in untraced]))
        extra["detect_obs_us_p50"] = (percentile(samples, 50) / 1e3, "us")
        extra["detect_obs_us_p99"] = (percentile(samples, 99) / 1e3, "us")
        extra["detect_obs_samples"] = (len(samples), "count")
    extra["passes"] = (len(untraced), "count")
    stages = workload.stages(untraced)

    report = {name: {"value": value, "unit": END_TO_END[name]}
              for name, value in e2e.items()}
    per_layer = {}
    if tracer is not None:
        per_layer = {name: {"value": statistics.median(l[name] for l in layers),
                            "unit": unit}
                     for name, unit in PER_LAYER.items()
                     if name != "trace.overhead_s"}
        per_layer["trace.overhead_s"] = {
            "value": median_of("seconds", traced) - median_of(
                "seconds", untraced), "unit": "s"}
        tracer.write(str(OUT / f"{workload.name}-spans.tsv.gz"),
                     f"spans of traced pass {2 * len(traced) - 1}, "
                     f"workload {workload.name}, seed {args.seed}")

    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} scale {args.scale}")
    for name, entry in (*report.items(), *per_layer.items()):
        print(f"metric {name} {entry['value']:.6g} {entry['unit']}")
    for name, (value, unit) in extra.items():
        print(f"metric {name} {value:.6g} {unit}")
    for name, (value, unit) in stages.items():
        print(f"stage {name} {value:.6g} {unit}")

    summary = {"correct": failed == 0 and attempted > 0,
               "attempted": attempted, "failed": failed,
               "metrics": per_layer if tracer is not None else report}
    (OUT / f"{workload.name}-trace{args.trace}.json").write_text(json.dumps({
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "scale": args.scale, "environment": environment(),
        "end_to_end": report, "per_layer": per_layer,
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "stages": {k: {"value": v, "unit": u} for k, (v, u) in stages.items()},
        "setup_runs_s": setups, "import_runs_s": imports,
        "pass_s": [r["seconds"] for r in untraced],
        "traced_pass_s": [r["seconds"] for r in traced],
        "summary": {k: v for k, v in summary.items() if k != "metrics"},
    }, indent=1) + "\n")
    shutil.rmtree(OUT / f"work-{workload.name}", ignore_errors=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
