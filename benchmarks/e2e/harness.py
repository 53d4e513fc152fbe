"""Lane protocol, run orchestration, provenance, guard rails and leak checks.

A *lane* is one of the four measured scenarios (encoder forward, long
decode, saturated serving, shared-prefix serving); workload ``W`` runs lane
``W`` and nothing else.

- An untraced run gives lane ``W`` all of ``--seconds`` and reports the
  end-to-end metrics of ``BENCHMARK.json``.
- A traced run gives the lane's rounds half of ``--seconds`` under a
  ``repro.obs.Tracer`` and the lane's direct probes the rest, and reports
  the per-layer metrics.

``BENCHMARK.json`` is the only metric registry.  The driver has every run
print every declared name and holds each (workload, name) pair to the name's
bound and to a steadiness rule, but a lane measures only the metrics its
workload owns (the README's tables).  Under a name it does not own, a run
prints its ``peak_rss_mb`` again (``1000 / MB`` under a higher-is-better
name, so that worse stays worse): a real measurement of this run, steady to
a fraction of a percent, and already gated under its own name by the
tightest bound of all — so a pair nobody measures can pass the steadiness
rule and can never be the first to reject a change.  (Timing a fixed kernel
for a third of a second, the obvious control, moved 13% run to run here.)
"""

from __future__ import annotations

import gc
import json
import math
import multiprocessing
import os
import platform
import resource
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path

from stats import median

K = 2  # ranks everywhere: the reference box has two cores, one device = one core
WORKLOADS = ("encoder-forward", "decode-long", "serve-saturated", "serve-shared-prefix")
#: In a traced run the lane's rounds take this share of ``--seconds``; the
#: direct probes use roughly the remainder.
TRACED_ROUND_SHARE = 0.5
#: Builds per untraced run; ``setup_s`` counts the fastest.  The first one
#: pays first-touch page faults for a few hundred MB of weights, and a build is
#: 1-2 s of compute on a box whose speed swings 1.5-2x for seconds at a time:
#: over ten runs one build varied 12-30%, the median of three 15-59% (it
#: flips between two modes), the fastest of three 3-15%.
SETUPS = 3
BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parents[1]
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class GuardError(RuntimeError):
    """The run may not report: a measurement rule is violated."""


def load_spec() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


# -- guard rails and provenance ------------------------------------------------


def pin_blas_threads() -> None:
    """One device = one core: pin every BLAS pool to one thread.  Must run
    before NumPy is imported — OpenBLAS reads the variables once, at load."""
    if "numpy" in sys.modules:
        raise GuardError("NumPy was imported before the BLAS thread pins were set")
    for name in THREAD_PINS:
        os.environ[name] = "1"


def blas_threads_in_effect() -> int | None:
    """Ask the OpenBLAS NumPy loaded how many threads it will use (None when
    the build is not OpenBLAS and cannot be asked)."""
    import ctypes

    import numpy  # noqa: F401 - the library must be mapped before we look for it

    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                return int(getter())
    return None


def check_guards() -> dict:
    cores = os.cpu_count() or 1
    if cores < K:
        raise GuardError(f"nproc={cores} < K={K}: more ranks than cores measures the scheduler")
    threads = blas_threads_in_effect()
    if threads is not None and threads != 1:
        raise GuardError(f"BLAS pool has {threads} threads; the pins did not take effect")
    return {"nproc": cores, "blas_threads": threads}


def provenance(guards: dict) -> dict:
    import numpy as np

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True, text=True, timeout=5
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None  # the driver's checkout is not a git repository
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "K": K,
        **guards,
    }


def leaks() -> list[str]:
    """Names of anything a lane left behind: child processes, rank or
    session threads, listening sockets."""
    found = [f"process:{p.name}" for p in multiprocessing.active_children()]
    found += [
        f"thread:{t.name}" for t in threading.enumerate()
        if t.name.startswith(("decode-session", "worker-", "comm-", "sock-reader-"))
    ]
    inodes = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith("socket:["):
            inodes.add(target[8:-1])
    for table in ("/proc/self/net/tcp", "/proc/self/net/tcp6"):
        try:
            rows = Path(table).read_text().splitlines()[1:]
        except OSError:
            continue
        for row in rows:
            fields = row.split()
            if fields[3] == "0A" and fields[9] in inodes:  # 0A = LISTEN
                found.append(f"listening-socket:{fields[1]}")
    return found


# -- the lane protocol ---------------------------------------------------------


class Lane:
    """One measured scenario.  Subclasses fill in the hooks; the runner calls
    them in order: ``setup`` → ``warm_up`` → ``measure`` → ``close`` →
    (traced: ``probe``) → ``check``, then reads ``end_to_end()`` and
    ``layer``.  What those two hold is what the workload *owns*."""

    name = ""
    min_rounds = 2

    def __init__(self, scale: str, seed: int):
        self.scale = scale  # "full" | "canary" (``--smoke``: tiny models, not comparable)
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.info: dict = {}
        self.raw: dict = {}  # every sample behind the end-to-end metrics, for the --out file
        self.traced_rounds: set[int] = set()
        self.spans = None
        self.layer: dict[str, float] = {}  # per-layer metrics, filled by measure/probe

    # hooks ---------------------------------------------------------------
    def setup(self) -> None: ...  # build model, system, engines, resident ranks
    def warm_up(self) -> None: ...  # one untimed request per variant
    def measure(self, seconds: float, tracer) -> None: ...
    def close(self) -> None: ...  # release threads, processes, sockets
    def probe(self, budget: float) -> None: ...
    def check(self) -> None: ...
    def end_to_end(self) -> dict[str, float]: ...

    # helpers -------------------------------------------------------------
    def fail(self, what: str, count: int = 1) -> None:
        """Count ``count`` failed operations under one message (0: the
        message only — the operations it broke are counted where they are
        found missing)."""
        self.failed += count
        if len(self.failures) < 8:
            self.failures.append(f"{self.name}: {what}")

    def rounds(self, seconds: float, tracer):
        """Yield ``(index, spans)`` for each round until the budget is spent:
        another round starts only while at least half of the median round so
        far still fits, so windows average ``seconds``.  In a traced run even
        rounds execute under the tracer (``spans`` set), odd rounds without,
        so tracing overhead is measured from the same seconds."""
        from repro import obs

        start = time.perf_counter()
        durations: list[float] = []
        index = 0
        while True:
            traced = tracer is not None and index % 2 == 0
            began = time.perf_counter()
            with obs.use_tracer(tracer) if traced else nullcontext():
                if traced:
                    self.traced_rounds.add(index)
                yield index, (self.spans if traced else None)
            durations.append(time.perf_counter() - began)
            index += 1
            elapsed = time.perf_counter() - start
            if index >= self.min_rounds and elapsed + 0.5 * median(durations) > seconds:
                return

    def overhead_share(self, samples: list[float], higher_is_better: bool = False) -> float:
        """(traced - untraced) / untraced over one metric's per-round samples
        (NaN marks a round that produced no sample)."""
        traced = [v for i, v in enumerate(samples) if i in self.traced_rounds and v == v]
        plain = [v for i, v in enumerate(samples) if i not in self.traced_rounds and v == v]
        if not traced or not plain:
            return 0.0
        a, b = median(traced), median(plain)
        return (b - a) / b if higher_is_better else (a - b) / b


def lane_class(workload: str):
    from lane_decode import DecodeLongLane
    from lane_encoder import EncoderForwardLane
    from lane_serve import ServeSaturatedLane, ServeSharedPrefixLane

    classes = (EncoderForwardLane, DecodeLongLane, ServeSaturatedLane, ServeSharedPrefixLane)
    return {cls.name: cls for cls in classes}[workload]


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool, trace_dir: Path,
    started: float,
) -> dict:
    """Execute one workload run and return the full result document."""
    from repro import obs

    from proxy import Spans

    if workload not in WORKLOADS:
        raise GuardError(f"unknown workload {workload!r} (have {', '.join(WORKLOADS)})")
    guards = check_guards()
    spec = load_spec()
    obs.set_tracer(None)  # the untraced run executes with NULL_TRACER installed
    tracer = obs.Tracer() if trace else None
    spans = Spans(tracer) if trace else None
    import_s = time.perf_counter() - started

    builds: list[float] = []
    for attempt in range(1 if trace or smoke else SETUPS):
        if attempt:
            lane.close()
            del lane
            gc.collect()
        lane = lane_class(workload)("canary" if smoke else "full", seed)
        lane.spans = spans
        began = time.perf_counter()
        lane.setup()
        builds.append(time.perf_counter() - began)
    began = time.perf_counter()
    lane.warm_up()
    # everything before the window: imports, one (the fastest) build, the warm-up requests
    setup_s = import_s + min(builds) + (time.perf_counter() - began)

    began = time.perf_counter()
    lane.measure(seconds * (TRACED_ROUND_SHARE if trace else 1.0), tracer)
    window_s = time.perf_counter() - began
    lane.close()
    if trace:
        lane.probe(seconds * (1.0 - TRACED_ROUND_SHARE))
    lane.check()
    leaked = leaks()
    if leaked:
        lane.attempted += 1
        lane.fail("leaked " + ", ".join(leaked))

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        owned = dict(lane.layer)
        owned["obs.spans_per_request"] = len(tracer.spans) / max(spans.requests_recorded, 1)
        trace_path = obs.write_chrome_trace(tracer, trace_dir / f"{workload}.trace.json")
    else:
        if obs.current_tracer() is not obs.NULL_TRACER:
            raise GuardError("the untraced run did not execute under NULL_TRACER")
        owned = {**lane.end_to_end(), "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    undeclared = sorted(set(owned) - {m["name"] for m in declared})
    if undeclared:
        raise GuardError(f"metrics not declared in BENCHMARK.json: {undeclared}")
    broken = sorted(name for name, value in owned.items() if not math.isfinite(value))
    if broken:
        raise GuardError(f"metrics without a finite value: {broken}")
    not_owned = {"lower": peak_rss_mb, "higher": 1000.0 / peak_rss_mb}  # module docstring
    metrics = {
        m["name"]: {"value": owned.get(m["name"], not_owned[m["better"]]), "unit": m["unit"]}
        for m in declared
    }
    # per-layer numbers a lane has without tracing (demoted tail.* diagnostics)
    per_layer_names = {m["name"]: m["unit"] for m in spec["per_layer"]}
    diagnostics = {} if trace else {
        name: {"value": value, "unit": per_layer_names[name]} for name, value in lane.layer.items()
    }
    failed = min(lane.failed, lane.attempted)  # one operation can break two checks
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "comparable": not smoke,
        "correct": failed == 0,
        "attempted": lane.attempted,
        "failed": failed,
        "failed_share": failed / lane.attempted if lane.attempted else 1.0,
        "failures": lane.failures,
        "leaks": leaked,
        "setups_s": builds,
        "window_s": window_s,
        "owned": sorted(owned),
        "metrics": metrics,
        "diagnostics": diagnostics,
        "lane": {"scale": lane.scale, **lane.info},
        "raw": lane.raw,
        "trace_file": str(trace_path) if trace else None,
        "provenance": provenance(guards),
    }
