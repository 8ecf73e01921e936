#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of ``repro study``.

Run from the repository root::

    python3 perfbench/run.py --workload study_small --seed 2022 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all              # every workload, both modes

Every workload is a subprocess of the real CLI, ``python -m repro --seed S
--scale X study [--store DIR ...]``, with ``PYTHONPATH=src``.
The seed is the benchmark's argument; the program sees only CLI flags.

``--trace 0`` sets the workload up - generates the seed's corpus five times
(``repro corpus``) and, for ``store_warm``, fills a fresh store three times;
``setup_s`` is the median corpus time plus the median fill time - then
repeats the study until ``--seconds`` have passed and at least five runs are
done, and reports medians: ``wall_s`` (spawn to exit),
``cpu_s`` (user+sys of the study process), ``apps_per_s``
(unique apps over ``wall_s``), ``peak_rss_mb`` and ``setup_s``.  It also
prints ``store_mb`` and ``fail_rate``, which are 0 on ``study_small`` (and
``fail_rate`` on every correct run) and so are not gated end-to-end metrics
(``store_mb`` is a per-layer one).

``--trace 1`` sets up once, then makes one run with the program's own
telemetry (``--trace-out``/``--metrics-out``) between two untraced runs, and
two ``cProfile`` runs.  The traced and profiled runs go through
``launch.py``, which times the calls into the corpus, rendering and export
layers from outside.  It reports the per-layer metrics of ``LAYERS``.  On
``store_warm`` the set-up fill is profiled too, and the store's write path
(``store.publish_*``) is measured there.

Every run is checked: exit code 0, an empty error ledger, all report
sections present, and a stdout sha256 equal to ``digests.json`` for its
(scale, seed) and to every other workload's run at the same (scale, seed)
of the same ``src/`` tree.  Each fill must start from an empty store and
publish, each ``store_warm`` study must hit the store for every unit and
publish nothing.  The traced mode checks that call counts repeat exactly
across the two profiled runs, that the layers account for all but 5% of the
traced wall time, and that every per-layer metric was measured: the profiled
functions and packages must exist in ``src/repro``, and a span or counter
may be missing only on a workload that skips its layer (``SKIPPED``).  A
missing metric is an error, never a 0.

``digests.json`` is the fixed correctness reference: the sha256 of the
stdout of serial, store-less ``python -m repro --seed S --scale 0.05 study``
runs, taken once on the commit this benchmark was written against.

The last stdout line is one JSON object: ``correct``, ``attempted`` and
``failed`` (CLI runs), and ``metrics``.

Only two serial workloads are kept.  On a 2-CPU box whose speed drifts
over minutes, a ``--workers 2`` pool workload, a larger serial one and a
workload timing repeated fills of an empty store did not repeat within the
bounds across ten seeds.  Every layer they measured besides the pool also
runs in ``study_small``, or in the fill that sets up ``store_warm``.
"""

import argparse
import ast
import hashlib
import importlib.util
import json
import os
import platform
import pstats
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
WORK = ROOT / ".perfbench_work"

#: Set-up repeats of ``repro corpus`` and, on ``store_warm``, of the fill.
CORPUS_REPEATS = 5
FILL_REPEATS = 3
MIN_REPEATS = 5
#: A run stops starting new CLI invocations once this much time has passed.
RUN_BUDGET_S = 165.0
#: Traced layers must account for all but this share of traced wall time.
COVERAGE_TOLERANCE = 0.05

SECTIONS = [f"Table {n}" for n in range(1, 10)] + [
    "Figure 2:",
    "Figure 3:",
    "Figure 4a:",
    "Figure 4b:",
    "Figure 5:",
]
STORE_LINE = re.compile(
    r"# result store: (\d+) unit hit\(s\) / (\d+) miss\(es\).*?"
    r"(\d+) entr\(ies\) published"
)


@dataclass(frozen=True)
class Workload:
    scale: float
    #: "" (no store), "warm" (read a store filled in set-up) or "fill"
    #: (write into an empty store; the set-up of "warm").
    store: str = ""


#: Scale 0.05 keeps one study at 3-5 s (a store fill at 5-9 s) on a 2-CPU
#: box, so that one run - set-up plus the timed studies - stays near a minute.
WORKLOADS = {
    "study_small": Workload(0.05),
    "store_warm": Workload(0.05, store="warm"),
}

SMALL = ["wall_s@study_small"]
CORPUS = ["wall_s@study_small", "wall_s@store_warm", "setup_s@study_small"]
PHASES = ["wall_s@study_small"]
HOT = ["wall_s@study_small", "cpu_s@study_small", "setup_s@store_warm"]
HOT_STEADY = ["wall_s@store_warm"]
PII = ["wall_s@study_small", "wall_s@store_warm"]
READS = ["wall_s@store_warm"]
WRITES = ["setup_s@store_warm"]
STORE_STEADY = ["wall_s@study_small"]

#: Per-layer metric -> (end-to-end metric@workload it should move, those
#: predicted not to move).  BENCHMARK.json's per_layer list names the same
#: metrics with their units.
LAYERS = {
    "import.repro_cli_s": (SMALL, []),
    "corpus.generate_s": (CORPUS, []),
    "pki.issue.calls": (CORPUS, []),
    "self_s.corpus": (CORPUS, []),
    "self_s.pki": (CORPUS + HOT, []),
    "phase.static_dynamic_s": (PHASES, HOT_STEADY),
    "phase.ios_rerun_s": (PHASES, HOT_STEADY),
    "phase.circumvention_s": (PHASES, []),
    "phase.pii_s": (SMALL + PII, []),
    "reporting.render_s": (SMALL, []),
    "process.teardown_s": (SMALL, []),
    "trace.unattributed_s": ([], []),
    "trace.overhead_ratio": ([], []),
    "static.analyze_app.calls": (PHASES, HOT_STEADY),
    "static.analyze_app_s": (PHASES, HOT_STEADY),
    "dynamic.run_app.calls": (HOT, HOT_STEADY),
    "dynamic.run_app_s": (HOT, HOT_STEADY),
    "netsim.simulate_flow.calls": (HOT, HOT_STEADY),
    "tls.negotiate_version.calls": (HOT, HOT_STEADY),
    "tls.synthesize_trace.calls": (HOT, HOT_STEADY),
    "tls.synthesize_trace_s": (HOT, HOT_STEADY),
    "pki.validate_chain.calls": (HOT, HOT_STEADY),
    "cache.validate_chain.hit_ratio": (HOT, HOT_STEADY),
    "cache.ja3.hit_ratio": (HOT, HOT_STEADY),
    "rng.child.calls": (HOT, HOT_STEADY),
    "rng.derive_seed.calls": (HOT, HOT_STEADY),
    "self_s.device": (HOT, HOT_STEADY),
    "self_s.netsim": (HOT, HOT_STEADY),
    "self_s.tls": (HOT, HOT_STEADY),
    "self_s.util.rng": (HOT, HOT_STEADY),
    "circumvent.app.calls": (PHASES, HOT_STEADY),
    "pii.scan_flow.calls": (PII, []),
    "pii.scan_flow_s": (PII, []),
    "pii.platform_comparison_s": (PII, []),
    "self_s.core.pii": (PII, []),
    "stats.chi_square.calls": (SMALL, []),
    "stats.chi_square_s": (SMALL, []),
    "self_s.scipy": (SMALL, []),
    "store.lookup_unit_s": (READS, STORE_STEADY),
    "store.lookup_stage.calls": (READS, STORE_STEADY),
    "store.unit_hit_rate": (READS, STORE_STEADY),
    "store.stage_hit_rate": (READS, STORE_STEADY),
    "self_s.pickle": (READS + WRITES, STORE_STEADY),
    "store.publish_unit_s": (WRITES, STORE_STEADY),
    "store.publish_stage.calls": (WRITES, STORE_STEADY),
    "store.publish_stage_s": (WRITES, STORE_STEADY),
    "store_mb": (["setup_s@store_warm"], STORE_STEADY),
    "exec.unit_compute_s": (HOT, HOT_STEADY),
}

#: Profiled functions: metric prefix -> (file under src/repro, function).
#: ``<prefix>.calls`` is the exact call count, ``<prefix>_s`` the inclusive
#: (cumulative) profiled seconds.
PROFILED = {
    "static.analyze_app": ("core/static/pipeline.py", "analyze_app"),
    "dynamic.run_app": ("core/dynamic/pipeline.py", "run_app"),
    "netsim.simulate_flow": ("netsim/simulate.py", "simulate_flow"),
    "tls.negotiate_version": ("tls/handshake.py", "negotiate_version"),
    "tls.synthesize_trace": ("tls/connection.py", "synthesize_trace"),
    "pki.validate_chain": ("pki/validation.py", "validate_chain"),
    "pki.issue": ("pki/authority.py", "issue"),
    "rng.child": ("util/rng.py", "child"),
    "rng.derive_seed": ("util/rng.py", "derive_seed"),
    "circumvent.app": ("core/circumvent/pipeline.py", "circumvent_app_pins"),
    "pii.scan_flow": ("core/pii/detector.py", "scan_flow"),
    "pii.platform_comparison": (
        "core/analysis/pii_analysis.py",
        "platform_pii_comparison",
    ),
    "stats.chi_square": ("util/stats.py", "chi_square_independence"),
    "store.lookup_unit": ("core/exec/resultstore.py", "lookup_unit"),
    "store.lookup_stage": ("core/exec/resultstore.py", "lookup_stage"),
    "store.publish_unit": ("core/exec/resultstore.py", "publish_unit"),
    "store.publish_stage": ("core/exec/resultstore.py", "publish_stage"),
}
PHASE_SPANS = ["static_dynamic", "ios_rerun", "circumvention", "pii"]
#: Launcher spans every traced run must report.
LAUNCH_SPANS = ["corpus.generate", "reporting.render", "telemetry.export"]

#: Profiled store writes: on ``store_warm`` they come from the set-up fill.
WRITE_PATH = ["store.publish_unit", "store.publish_stage"]

#: Telemetry-derived metrics whose counters a workload may lack because it
#: skips their layer: a warm store never reaches the hot path, its caches or
#: the stage lookups, and a run without a store has no store counters.
#: They read 0 there; missing anywhere else, they are an error.
SKIPPED = {
    "": {"store.unit_hit_rate", "store.stage_hit_rate"},
    "warm": {
        "cache.validate_chain.hit_ratio",
        "cache.ja3.hit_ratio",
        "store.stage_hit_rate",
        "exec.unit_compute_s",
    },
}


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def dir_mb(path: Path) -> float:
    total = sum(f.stat().st_size for f in path.rglob("*") if f.is_file())
    return total / 1e6


def load_json(path: Path, default):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return default


def write_json_atomic(path: Path, data) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    rss_mb: float
    spawned_at: float
    stdout: Path
    stderr: Path
    errors: List[str] = field(default_factory=list)

    def stderr_text(self) -> str:
        return self.stderr.read_text(encoding="utf-8", errors="replace")


class Session:
    """One benchmark run: spawns the CLI and checks every result."""

    def __init__(self, seed: int, workdir: Path, deadline: float, src_sha256: str):
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.references = load_json(HERE / "digests.json", {})
        #: Digests of earlier runs of this same source tree, any workload.
        self.seen_path = WORK / f"digests_seen.{src_sha256}.json"
        self._count = 0

    def path(self, name: str) -> Path:
        self._count += 1
        return self.workdir / f"{self._count:03d}.{name}"

    def spawn(self, args: List[str], launcher: Optional[List[str]] = None) -> Invocation:
        """Run ``python -m repro ARGS`` (or ``launch.py`` with LAUNCHER) once."""
        if launcher is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [sys.executable, str(HERE / "launch.py"), *launcher, "--", *args]
        out, err = self.path("out"), self.path("err")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run budget exhausted")
        self.attempted += 1
        with open(out, "wb") as out_file, open(err, "wb") as err_file:
            spawned_at = time.monotonic()
            proc = subprocess.Popen(
                cmd, cwd=ROOT, env=self.env, stdout=out_file, stderr=err_file
            )
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # e.g. SIGTERM: leave no child running
                proc.kill()
                proc.wait()
                raise
            finally:
                wall = time.monotonic() - spawned_at
                timer.cancel()
        # wait4 reaped the child (and gave its rusage); Popen must not wait.
        proc.returncode = os.waitstatus_to_exitcode(status)
        inv = Invocation(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            spawned_at=spawned_at,
            stdout=out,
            stderr=err,
        )
        if proc.returncode != 0:
            tail = inv.stderr_text().strip().splitlines()[-3:]
            inv.errors.append(f"exit code {proc.returncode}: {' | '.join(tail)}")
        return inv

    def finish(self, inv: Invocation) -> Invocation:
        """Account one checked invocation."""
        if inv.errors:
            self.failed += 1
            self.errors.extend(inv.errors)
        return inv

    def probe_corpus(self, workload: Workload) -> int:
        """Set-up step: generate the seed's corpus and return its app count."""
        inv = self.spawn(["--seed", str(self.seed), "--scale", str(workload.scale), "corpus"])
        match = re.search(r"unique apps\s*:\s*(\d+)", inv.stdout.read_text())
        if match is None:
            inv.errors.append("corpus probe printed no app count")
        self.finish(inv)
        return int(match.group(1)) if match else 0

    def study(self, workload: Workload, study_args=(), launcher=None) -> Invocation:
        args = ["--seed", str(self.seed), "--scale", str(workload.scale), "study"]
        inv = self.spawn(args + list(study_args), launcher)
        if not inv.errors:
            self.check_output(workload, inv)
        return inv

    def check_output(self, workload: Workload, inv: Invocation) -> None:
        if "# error ledger: 0 failed unit(s)" not in inv.stderr_text():
            inv.errors.append("error ledger is not empty")
        text = inv.stdout.read_text(encoding="utf-8", errors="replace")
        missing = [s for s in SECTIONS if s not in text]
        if missing:
            inv.errors.append(f"report sections missing: {missing}")
        digest = sha256_file(inv.stdout)
        key = f"{workload.scale}/{self.seed}"
        reference = self.references.get(str(workload.scale), {}).get(str(self.seed))
        if reference is not None and digest != reference:
            inv.errors.append(f"stdout digest {digest[:12]} != recorded {reference[:12]} for {key}")
        seen = load_json(self.seen_path, {})
        if seen.get(key, digest) != digest:
            inv.errors.append(
                f"stdout digest {digest[:12]} != other workloads' {seen[key][:12]} for {key}"
            )
        elif key not in seen and not inv.errors:
            seen[key] = digest
            write_json_atomic(self.seen_path, seen)

    def store_stats(self, inv: Invocation):
        match = STORE_LINE.search(inv.stderr_text())
        if match is None:
            inv.errors.append("no result-store statistics on stderr")
            return 0, 0, 0
        return tuple(int(g) for g in match.groups())

    def fresh_store(self) -> Path:
        store = self.path("store")
        store.mkdir()
        return store

    def measured(self, workload: Workload, store: Optional[Path], launcher=None, extra=()):
        """One measured study run, with the workload's store guards."""
        if workload.store == "fill":
            store = self.fresh_store()
            store_args = ["--store", str(store)]
        elif workload.store == "warm":
            store_args = ["--store", str(store), "--no-store-write"]
        else:
            store_args = []
        inv = self.study(workload, [*store_args, *extra], launcher)
        if workload.store and not inv.errors:
            hits, misses, published = self.store_stats(inv)
            if workload.store == "warm" and (misses or not hits or published):
                inv.errors.append(f"warm store not 100% hits: {hits} hits / {misses} misses")
            if workload.store == "fill" and (hits or not published):
                inv.errors.append(f"store fill was not cold: {hits} hits, {published} published")
        return self.finish(inv), store


def set_up(session: Session, workload: Workload, corpus_repeats: int, fill_repeats: int,
           fill_launcher=None):
    """Generate the seed's corpus, and on ``store_warm`` fill a fresh store, repeatedly.

    Returns the median corpus time plus the median fill time, the app count
    and the last filled store directory.  FILL_LAUNCHER runs the fills under
    ``launch.py``.
    """
    durations, fills, apps, store = [], [], 0, None
    for _ in range(corpus_repeats):
        start = time.monotonic()
        apps = session.probe_corpus(workload)
        durations.append(time.monotonic() - start)
    for _ in range(fill_repeats if workload.store == "warm" else 0):
        if store is not None:
            shutil.rmtree(store)
        fill, store = session.measured(replace(workload, store="fill"), None, fill_launcher)
        fills.append(fill.wall_s)
    setup_s = statistics.median(durations) + (statistics.median(fills) if fills else 0.0)
    return setup_s, apps, store


def run_untraced(session: Session, workload: Workload, seconds: float):
    setup_s, apps, store = set_up(session, workload, CORPUS_REPEATS, FILL_REPEATS)
    runs: List[Invocation] = []
    start = time.monotonic()
    while len(runs) < MIN_REPEATS or time.monotonic() - start < seconds:
        if runs and time.monotonic() + 1.5 * runs[-1].wall_s > session.deadline:
            break
        inv, store = session.measured(workload, store)
        runs.append(inv)
    if len(runs) < MIN_REPEATS:
        session.errors.append(f"only {len(runs)} of {MIN_REPEATS} studies fit the run budget")
    wall = statistics.median([r.wall_s for r in runs])
    metrics = {
        "wall_s": wall,
        "cpu_s": statistics.median([r.cpu_s for r in runs]),
        "apps_per_s": apps / wall,
        "peak_rss_mb": statistics.median([r.rss_mb for r in runs]),
        "setup_s": setup_s,
    }
    extra = {
        "store_mb": dir_mb(store) if store is not None else 0.0,
        "repeats": len(runs),
        "apps": apps,
        "wall_s_each": [round(r.wall_s, 3) for r in runs],
    }
    return metrics, extra


def package_of(filename: str, funcname: str) -> str:
    """Self-time roll-up key: repro subpackage, or top-level module."""
    if filename == "~":
        match = re.search(r"(?:of '|built-in method )_?(\w+)\.", funcname)
        return match.group(1) if match else "builtins"
    if filename.startswith("<frozen "):
        return filename[len("<frozen ") :].split(".")[0].lstrip("_")
    path = Path(filename)
    try:
        parts = path.relative_to(PACKAGE).with_suffix("").parts
    except ValueError:
        parts = path.with_suffix("").parts
        anchors = [
            i
            for i, part in enumerate(parts[:-1])
            if part == "site-packages" or re.fullmatch(r"python3\.\d+", part)
        ]
        return parts[anchors[-1] + 1].lstrip("_") if anchors else "other"
    if parts[0] in ("core", "util") and len(parts) > 1:
        return ".".join(parts[:2])
    return parts[0]


def profile_summary(profile: Path):
    """Call counts, inclusive seconds and self-time roll-up of one profiled run."""
    stats = pstats.Stats(str(profile)).stats
    calls = {name: 0 for name in PROFILED}
    inclusive = {name: 0.0 for name in PROFILED}
    targets = {(str(PACKAGE / rel), func): name for name, (rel, func) in PROFILED.items()}
    by_package: Dict[str, float] = {}
    for (filename, _, funcname), (_, ncalls, selftime, cumtime, _) in stats.items():
        name = targets.get((filename, funcname))
        if name is not None:
            calls[name] += ncalls
            inclusive[name] += cumtime
        package = package_of(filename, funcname)
        by_package[package] = by_package.get(package, 0.0) + selftime
    return calls, inclusive, by_package


def telemetry_counts(metrics_json: Path):
    data = load_json(metrics_json, {})
    counters = data.get("counters", {})
    hist_sums = {k: v.get("sum", 0.0) for k, v in data.get("histograms", {}).items()}
    return counters, hist_sums


def ratio(counters, prefix: str) -> Optional[float]:
    """``PREFIX.hit`` over ``PREFIX.hit + PREFIX.miss``; None when neither was counted."""
    if f"{prefix}.hit" not in counters and f"{prefix}.miss" not in counters:
        return None
    hits = counters.get(f"{prefix}.hit", 0)
    return hits / (hits + counters.get(f"{prefix}.miss", 0))


def phase_seconds(trace_json: Path) -> Dict[str, float]:
    """Total duration of each ``phase.*`` span present in a Chrome trace file."""
    seconds: Dict[str, float] = {}
    for event in load_json(trace_json, {}).get("traceEvents", []):
        phase = event.get("name", "").partition("phase.")[2]
        if phase in PHASE_SPANS:
            seconds[phase] = seconds.get(phase, 0.0) + event.get("dur", 0.0) / 1e6
    return seconds


def run_traced(session: Session, workload: Workload):
    write_profile = session.path("prof")
    _, apps, store = set_up(
        session, workload, 1, 1, [str(session.path("spans.json")), "--profile", str(write_profile)]
    )
    spans_json = session.path("spans.json")
    trace_json = session.path("trace.json")
    metrics_json = session.path("metrics.json")
    telemetry = ["--trace-out", str(trace_json), "--metrics-out", str(metrics_json)]
    # Untraced runs on both sides of the traced one: the first study after
    # set-up is often the slowest, which would bias a single pair.
    before, store = session.measured(workload, store)
    traced, store = session.measured(workload, store, [str(spans_json)], telemetry)
    after, store = session.measured(workload, store)
    plain_wall_s = (before.wall_s + after.wall_s) / 2
    profiles = []
    for _ in range(2):
        profile = session.path("prof")
        _, store = session.measured(
            workload, store, [str(session.path("spans.json")), "--profile", str(profile)]
        )
        profiles.append(profile_summary(profile))

    # Where the traced run's wall time went, spawn to exit.
    spans = load_json(spans_json, {})
    if not spans.get("repro_file", "").startswith(str(PACKAGE)):
        session.errors.append(f"traced run imported repro from {spans.get('repro_file')}")
    layer_s = spans.get("seconds", {})
    phases = phase_seconds(trace_json)
    missing = [s for s in ["import_done", "cli_done"] if s not in spans]
    missing += [s for s in LAUNCH_SPANS if s not in layer_s]
    missing += [f"phase.{p}" for p in PHASE_SPANS if p not in phases]
    if missing:
        raise BenchError(f"traced run lacks spans {missing}")
    exited_at = traced.spawned_at + traced.wall_s
    out: Dict[str, float] = {
        "import.repro_cli_s": spans["import_done"] - traced.spawned_at,
        "corpus.generate_s": layer_s["corpus.generate"],
        "reporting.render_s": layer_s["reporting.render"],
        "process.teardown_s": exited_at - spans["cli_done"],
    }
    out.update({f"phase.{phase}_s": seconds for phase, seconds in phases.items()})
    attributed = sum(out.values()) + layer_s["telemetry.export"]
    out["trace.unattributed_s"] = traced.wall_s - attributed
    out["trace.overhead_ratio"] = traced.wall_s / plain_wall_s
    if abs(out["trace.unattributed_s"]) > COVERAGE_TOLERANCE * traced.wall_s:
        session.errors.append(
            f"traced layers cover {attributed:.3f}s of {traced.wall_s:.3f}s wall "
            f"(more than {COVERAGE_TOLERANCE:.0%} unattributed)"
        )

    counters, hist = telemetry_counts(metrics_json)
    from_telemetry = {
        "cache.validate_chain.hit_ratio": ratio(counters, "cache.validate_chain"),
        "cache.ja3.hit_ratio": ratio(counters, "cache.ja3"),
        "store.unit_hit_rate": ratio(counters, "store.units"),
        "store.stage_hit_rate": ratio(counters, "store.stages"),
        "exec.unit_compute_s": hist.get("exec.unit_compute_s"),
    }
    for metric, value in from_telemetry.items():
        if value is not None:
            out[metric] = value
        elif metric in SKIPPED[workload.store]:
            out[metric] = 0.0
    out["store_mb"] = dir_mb(store) if store is not None else 0.0

    calls, inclusive, by_package = profiles[0]
    out.update({f"{name}.calls": n for name, n in calls.items()})
    out.update({f"{name}_s": seconds for name, seconds in inclusive.items()})
    if workload.store == "warm":
        fill_calls, fill_inclusive, _ = profile_summary(write_profile)
        for name in WRITE_PATH:
            out[f"{name}.calls"] = fill_calls[name]
            out[f"{name}_s"] = fill_inclusive[name]
    for metric in LAYERS:
        if metric.startswith("self_s."):
            out[metric] = by_package.get(metric[len("self_s.") :], 0.0)
    second = profiles[1][0]
    differing = [name for name in calls if calls[name] != second[name]]
    if differing:
        session.errors.append(
            "call counts differ between two traced runs: "
            + ", ".join(f"{n}.calls {calls[n]} vs {second[n]}" for n in differing)
        )
    top = sorted(by_package.items(), key=lambda kv: -kv[1])[:12]
    info = {
        "apps": apps,
        "untraced_wall_s": plain_wall_s,
        "traced_wall_s": traced.wall_s,
        "self_s_top": [(package, round(seconds, 3)) for package, seconds in top],
    }
    return out, info


def environment() -> dict:
    """The stamp printed with every result."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "scipy_importable": importlib.util.find_spec("scipy") is not None,
        "git_commit": commit,
        "src_sha256": source.hexdigest()[:16],
    }


def missing_targets() -> List[str]:
    """Profiled functions and self-time packages that ``src/repro`` lacks.

    A renamed or moved target would otherwise profile as 0 calls and 0 s.
    Packages outside ``repro`` (``scipy``, ``pickle``) are not checked.
    """
    missing = []
    for rel, func in PROFILED.values():
        path = PACKAGE / rel
        defined = path.is_file() and any(
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == func
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        )
        if not defined:
            missing.append(f"{rel}:{func}")
    for metric in LAYERS:
        if metric.startswith("self_s."):
            package = metric[len("self_s.") :]
            base = PACKAGE.joinpath(*package.split("."))
            if package not in ("scipy", "pickle") and not (
                base.is_dir() or base.with_suffix(".py").is_file()
            ):
                missing.append(f"package {package}")
    return missing


def benchmark_spec() -> dict:
    """BENCHMARK.json, checked against this file's workloads, layers and targets."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file() or not (PACKAGE / "cli.py").is_file():
        raise BenchError(f"{ROOT} lacks BENCHMARK.json or src/repro/cli.py")
    spec = json.loads(path.read_text(encoding="utf-8"))
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        raise BenchError("BENCHMARK.json workloads differ from WORKLOADS")
    if {m["name"] for m in spec["per_layer"]} != set(LAYERS):
        raise BenchError("BENCHMARK.json per_layer metrics differ from LAYERS")
    missing = missing_targets()
    if missing:
        raise BenchError(f"profiled targets not found in src/repro: {missing}")
    return spec


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict):
    """Run one workload in one mode; print its report and return its result."""
    workload = WORKLOADS[name]
    env = environment()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    session = Session(seed, workdir, time.monotonic() + RUN_BUDGET_S, env["src_sha256"])
    try:
        if trace:
            values, info = run_traced(session, workload)
            listed = spec["per_layer"]
        else:
            values, info = run_untraced(session, workload, seconds)
            listed = spec["end_to_end"]
    except BenchError as exc:
        session.errors.append(str(exc))
        values, info, listed = {}, {}, []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    unmeasured = [m["name"] for m in listed if m["name"] not in values]
    if unmeasured:
        session.errors.append(f"metrics not measured: {unmeasured}")
    # A check outside any one invocation (coverage, repeat counts, budget,
    # unmeasured metrics) counts as one failed run.
    failed = session.failed or int(bool(session.errors))
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in listed
        if m["name"] in values
    }
    print(f"== {name}: scale {workload.scale}, "
          f"store {workload.store or 'none'}, seed {seed}, trace {int(trace)}")
    print(f"   env {json.dumps(env, sort_keys=True)}")
    for metric, entry in metrics.items():
        print(f"   {metric:32s} {entry['value']:>14.6g} {entry['unit']}")
    for key, value in info.items():
        print(f"   {key:32s} {value}")
    print(f"   {'fail_rate':32s} {failed / max(session.attempted, 1):>14.6g} ratio")
    for error in session.errors:
        print(f"   FAILED: {error}")
    return {
        "correct": not session.errors and bool(values),
        "attempted": max(session.attempted, failed, 1),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name or 'all'")
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None,
                        help="0 = end-to-end metrics, 1 = per-layer (default: both)")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        spec = benchmark_spec()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        if not set(names) <= set(WORKLOADS):
            raise BenchError(f"unknown workload {args.workload!r}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    results = [
        run_workload(name, args.seed, args.seconds, trace, spec)
        for name in names
        for trace in modes
    ]
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{name}.{metric}": entry
                for name, r in zip([n for n in names for _ in modes], results)
                for metric, entry in r["metrics"].items()
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
