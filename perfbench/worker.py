"""The benchmark's in-process harness around the program.

Started by ``run.py`` as::

    python3 perfbench/worker.py WORKLOAD WORKDIR ROLE

``ROLE`` is ``setup`` (set up, report ready, exit), ``serve`` (set up,
then run timed rounds on request) or ``traced`` (the
layer-by-layer pipeline with spans).  After set-up the worker prints
``{"ready": <perf_counter>}``; ``perf_counter`` is the system-wide
monotonic clock, so the parent subtracts its own launch time to get
the set-up time.  It then reads one JSON command per line on stdin and
answers each with one JSON line on stdout.

All calls into the program go through its public modules: ``repro.core``
detectors, ``repro.stream.StreamSession``, ``repro.trace`` loading and
parsing, ``repro.exp`` runners and ``repro.kernels``/``repro.obs``
switches.  Traced runs also wrap a few public module functions in
timing shims (see :func:`install_shims`); nothing inside ``src/`` is
changed.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from typing import Dict, List

from spans import Spans

#: live-stream geometry: session/detector memory bound, batch size, and
#: the prefix the output check compares against SPDOffline.  SPDOnline
#: sweeps evictions every STREAM_MEMORY // 2 events; batches of exactly
#: that size each carry one sweep, so batch latencies form one cluster
#: (at 500 lines every other batch swept and the median sat between two
#: clusters, 3-6x apart).
STREAM_MEMORY = 2000
STREAM_BATCH = STREAM_MEMORY // 2
STREAM_PREFIX = 6000
#: traced runs: Table-1 replicas analysed by the extra stages
#: (SPDOnlineK, streaming) -- the smallest files up to this many events
TRACED_EXTRA_EVENTS = 20000
#: traced dense-patterns runs use the first few trace slots of the set
TRACED_DENSE_TRACES = 4

CAMPAIGN = os.path.join("examples", "paper_tables.toml")
#: traced runs: the loopback fleet probe runs this share of the
#: campaign's traces per sample
FLEET_SLICES = 8
#: one ``exp.code_version_ms`` sample, in a fresh process
CODE_VERSION_PROBE = (
    "import time\n"
    "from repro.exp import code_version\n"
    "t0 = time.perf_counter()\n"
    "code_version()\n"
    "print((time.perf_counter() - t0) * 1e3)\n")


def reply(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def read_batches(path: str, size: int) -> List[List[str]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    return [lines[i:i + size] for i in range(0, len(lines), size)]


def signature(acq) -> str:
    thread, lock, held = acq
    return f"{thread}|{lock}|{','.join(sorted(held))}"


# -- dense-patterns ------------------------------------------------------------


class Dense:
    def __init__(self, manifest: dict) -> None:
        from repro.core import spd_offline, spd_online_k
        from repro.trace.parser import load_trace

        self.spd_offline, self.spd_online_k = spd_offline, spd_online_k
        self.traces = []
        for f in manifest["files"]:
            trace = load_trace(f["path"])
            trace.index
            self.traces.append((f["path"], trace))
        warm = load_trace(manifest["warmup"]["path"])
        spd_offline(warm, max_size=3)
        spd_online_k(warm, max_size=3)
        self.outputs = []
        self.digest = None
        self.rounds = 0

    def round(self) -> dict:
        samples = []
        first = self.rounds == 0
        h = hashlib.sha256()
        start = time.perf_counter()
        for path, trace in self.traces:
            t0 = time.perf_counter()
            off = self.spd_offline(trace, max_size=3)
            t1 = time.perf_counter()
            onk = self.spd_online_k(trace, max_size=3)
            t2 = time.perf_counter()
            samples += [(t1 - t0) * 1e3, (t2 - t1) * 1e3]
            rec = {
                "path": path,
                "ops": [f"{path}:offline", f"{path}:online_k"],
                "offline": [{"events": list(r.pattern.events),
                             "signatures": [signature(a.signature) for a in r.abstract]}
                            for r in off.reports],
                "online_k3": [[signature(s) for s in r.signatures]
                              for r in onk.k_reports if r.size == 3],
                "online_k2": [[r.first_event, r.second_event] for r in onk.reports],
            }
            h.update(json.dumps(rec, sort_keys=True).encode())
            if first:
                self.outputs.append(rec)
        wall = time.perf_counter() - start
        self.rounds += 1
        same = True
        if first:
            self.digest = h.hexdigest()
        else:
            same = h.hexdigest() == self.digest
        events = 2 * sum(len(t) for _, t in self.traces)
        return {"samples": samples, "events": events, "wall": wall,
                "ops": len(samples), "failed": 0 if same else len(samples)}

    def dump(self) -> dict:
        return {"traces": self.outputs}


# -- live-stream ---------------------------------------------------------------


class Live:
    def __init__(self, manifest: dict) -> None:
        from repro.core import SPDOnline
        from repro.hb.fasttrack import FastTrack
        from repro.stream import StreamSession
        from repro.trace.compiled import parse_std_into

        self.SPDOnline, self.FastTrack = SPDOnline, FastTrack
        self.StreamSession, self.parse_std_into = StreamSession, parse_std_into
        self.path = manifest["files"][0]["path"]
        self.batches = read_batches(self.path, STREAM_BATCH)
        self.events = sum(len(b) for b in self.batches)
        self.feed(read_batches(manifest["warmup"]["path"], STREAM_BATCH))
        self.outputs = []

    def feed(self, batches, samples=None):
        session = self.StreamSession(name="live", max_memory_events=STREAM_MEMORY)
        det = self.SPDOnline(max_memory_events=STREAM_MEMORY)
        ft = self.FastTrack()
        session.attach(det)
        session.attach(ft)
        lineno = 1
        parse, flush = self.parse_std_into, session.flush
        for batch in batches:
            t0 = time.perf_counter()
            lineno = parse(session.compiled, batch, lineno)
            flush()
            if samples is not None:
                samples.append((time.perf_counter() - t0) * 1e3)
        session.close()
        return det, ft

    def round(self) -> dict:
        samples: List[float] = []
        start = time.perf_counter()
        det, ft = self.feed(self.batches, samples)
        wall = time.perf_counter() - start
        n = len(self.outputs)
        self.outputs.append({
            "round": n,
            "ops": [f"r{n}b{i}" for i in range(len(samples))],
            "reports": [[r.first_event, r.second_event] for r in det.reports],
            "racy": sorted(ft.result.racy_variables()),
        })
        return {"samples": samples, "events": self.events, "wall": wall,
                "ops": len(samples), "failed": 0}

    def dump(self) -> dict:
        return {"path": self.path, "prefix": STREAM_PREFIX, "rounds": self.outputs}


# -- traced pipeline -------------------------------------------------------------


def install_shims(spans: Spans) -> None:
    """Record phase 1 and abstract-acquire collection inside SPDOffline.

    Both are public module functions that ``spd_offline`` and
    ``abstract_deadlock_patterns`` look up at call time, so wrapping the
    module attributes times them without touching the program.
    """
    import repro.core  # noqa: F401  (loads both modules)

    # ``repro.core.spd_offline`` the attribute is the function; the
    # module is reached through sys.modules
    alg = sys.modules["repro.core.alg"]
    offline = sys.modules["repro.core.spd_offline"]

    offline.abstract_deadlock_patterns = spans.wrap(
        offline.abstract_deadlock_patterns, "alg.phase1")
    alg.collect_abstract_acquire_ids = spans.wrap(
        alg.collect_abstract_acquire_ids, "locks.abstract_acquires")


def traced_inputs(workload: str, manifest: dict):
    """(batch files, extra-stage files, stream files, max_size)."""
    files = [f["path"] for f in manifest["files"]]
    if workload == "analyze-table1":
        extra, total = [], 0
        for f in sorted(manifest["files"], key=lambda f: f["events"]):
            if total + f["events"] > TRACED_EXTRA_EVENTS:
                break
            extra.append(f["path"])
            total += f["events"]
        return files, extra, extra, None
    if workload == "dense-patterns":
        head = sorted(files)[:TRACED_DENSE_TRACES]
        return head, head, head, 3
    if workload == "live-stream":
        head = [manifest["head"]["path"]]
        return head, head, files, 3
    return files, files, files, None


class Traced:
    """One backend's layer-by-layer pipeline, with spans at each call."""

    def __init__(self, workload: str, manifest: dict, workdir: str) -> None:
        import repro.kernels as kernels
        from repro.core import spd_offline, spd_online_k, SPDOnline
        from repro.hb.fasttrack import FastTrack
        from repro.stream import StreamSession
        from repro.trace.compiled import parse_std_into
        from repro.trace.parser import load_trace
        from repro.vc.timestamps import TRFTimestamps

        self.kernels = kernels
        self.backend = kernels.backend()
        self.api = dict(spd_offline=spd_offline, spd_online_k=spd_online_k,
                        SPDOnline=SPDOnline, FastTrack=FastTrack,
                        StreamSession=StreamSession, parse_std_into=parse_std_into,
                        load_trace=load_trace, TRFTimestamps=TRFTimestamps)
        self.workdir = workdir
        self.batch, self.extra, self.stream, self.max_size = traced_inputs(workload, manifest)
        self.spans = Spans()
        install_shims(self.spans)
        self.passes: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        self.kcounts: List[Dict[str, int]] = []
        self.plain_ms: List[float] = []
        self.traced_ms: List[float] = []
        self.exp = None
        self.probes: Dict[str, List[float]] = {k: [] for k in (
            "obs.ratio", "exp.code_version_ms", "exp.cell_overhead_ms",
            "exp.cells_per_s.inline", "exp.cache_hit_rerun_ms", "fleet.s",
            "fleet.cells")}
        self.spans.enabled = False
        # warm-up: one input of each stage, so first-use costs (lazy
        # imports, kernel set-up) stay out of the timed passes
        full = self.batch, self.extra, self.stream
        self.extra, self.stream = self.extra[:1], self.stream[:1]
        self.batch = self.extra or self.batch[:1]
        self.run_pass(warm=True)
        self.batch, self.extra, self.stream = full

    def run_pass(self, warm: bool = False) -> float:
        a = self.api
        sp = self.spans
        span = sp.span
        loaded = {}
        counts = dict.fromkeys(("alg.cycles", "alg.abstract_patterns",
                                "alg.concrete_patterns", "offline.reports",
                                "online_k.contexts", "online.deadlock_checks",
                                "online.tracked_entries", "online.evictions",
                                "fasttrack.racy_vars", "stream.retained_events_max"), 0)
        gc.collect()
        start = time.perf_counter()
        for path in self.batch:
            with span("trace.parse"):
                trace = a["load_trace"](path)
            with span("trace.index"):
                trace.index
            with span("vc.trf"):
                a["TRFTimestamps"](trace)
            with span("offline"):
                res = a["spd_offline"](trace, max_size=self.max_size)
            counts["alg.cycles"] += res.num_cycles
            counts["alg.abstract_patterns"] += res.num_abstract_patterns
            counts["alg.concrete_patterns"] += res.num_concrete_patterns
            counts["offline.reports"] += len(res.reports)
            if path in self.extra:
                loaded[path] = trace
        for path in self.extra:
            with span("online_k"):
                onk = a["spd_online_k"](loaded[path], max_size=3)
            counts["online_k.contexts"] += onk.stats()["contexts"] + len(onk._contexts)
        for path in self.stream:
            session = a["StreamSession"](name="traced", max_memory_events=STREAM_MEMORY)
            det = a["SPDOnline"](max_memory_events=STREAM_MEMORY)
            ft = a["FastTrack"]()
            det.feed_batch = sp.wrap(det.feed_batch, "online.feed")
            ft.feed_batch = sp.wrap(ft.feed_batch, "fasttrack.feed")
            session.attach(det)
            session.attach(ft)
            lineno = 1
            retained = 0
            for batch in read_batches(path, STREAM_BATCH):
                with span("trace.parse_batch"):
                    lineno = a["parse_std_into"](session.compiled, batch, lineno)
                with span("stream"):
                    session.flush()
                retained = max(retained, len(session.compiled))
            with span("stream"):
                session.close()
            stats = det.stats()
            counts["online.deadlock_checks"] += stats["deadlock_checks"]
            counts["online.tracked_entries"] += stats["tracked_entries"]
            counts["online.evictions"] += stats["evictions"]
            counts["fasttrack.racy_vars"] += len(ft.result.racy_variables())
            counts["stream.retained_events_max"] = max(
                counts["stream.retained_events_max"], retained)
        elapsed = (time.perf_counter() - start) * 1e3
        if not warm:
            self.counts = counts
        return elapsed

    def traced_pass(self) -> dict:
        before = self.kernels.counters()
        mark = len(self.spans.records)
        self.spans.enabled = True
        elapsed = self.run_pass()
        self.spans.enabled = False
        self.traced_ms.append(elapsed)
        for name, ms in self.spans.self_ms(mark).items():
            self.passes.setdefault(name, []).append(ms)
        after = self.kernels.counters()
        self.kcounts.append({k: after.get(k, 0) - before.get(k, 0) for k in after})
        return {"elapsed_ms": elapsed}

    def plain_pass(self) -> dict:
        elapsed = self.run_pass()
        self.plain_ms.append(elapsed)
        return {"elapsed_ms": elapsed}

    def probe(self) -> dict:
        """One sample of each telemetry and campaign-layer probe.

        ``run.py`` asks for one after every pass, so the samples spread
        over the whole run and :meth:`dump` reports their medians.
        """
        import repro.obs as obs

        if self.exp is None:
            self.exp = self.exp_setup()
        p = self.probes
        # telemetry: SPDOffline over a few batch inputs, off and on, in
        # turns of off-on and on-off so neither side always goes first
        took = {}
        order = (False, True) if len(p["obs.ratio"]) % 2 == 0 else (True, False)
        for enabled in order:
            gc.collect()
            if enabled:
                obs.enable(None)
            t0 = time.perf_counter()
            for trace in self.exp["obs_traces"]:
                self.api["spd_offline"](trace, max_size=self.max_size)
            took[enabled] = time.perf_counter() - t0
            if enabled:
                obs.drain_spans()
                obs.disable()
        p["obs.ratio"].append(took[True] / took[False])
        # code_version() is memoized, so each sample is a fresh process
        probe = subprocess.run(
            [sys.executable, "-c", CODE_VERSION_PROBE], capture_output=True,
            text=True, stdin=subprocess.DEVNULL, check=True)
        p["exp.code_version_ms"].append(float(probe.stdout.split()[-1]))
        campaign = self.exp["campaign"]
        t0 = time.perf_counter()
        run = self.exp["InlineRunner"]().run(campaign)
        inline_s = time.perf_counter() - t0
        cell_s = sum(sum(r.times) for r in run.results)
        p["exp.cell_overhead_ms"].append((inline_s - cell_s) / run.num_cells * 1e3)
        p["exp.cells_per_s.inline"].append(run.num_cells / inline_s)
        for _ in range(3):
            t0 = time.perf_counter()
            self.exp["InlineRunner"]().run(campaign, cache=self.exp["cache"])
            p["exp.cache_hit_rerun_ms"].append((time.perf_counter() - t0) * 1e3)
        # the loopback fleet takes one slice of the campaign's traces
        # per sample, in turn, so a run covers the whole campaign
        k = len(p["fleet.cells"]) % FLEET_SLICES
        part = dataclasses.replace(campaign, traces=campaign.traces[k::FLEET_SLICES])
        t0 = time.perf_counter()
        fleet = self.exp["RemoteRunner"](workers=2).run(part)
        p["fleet.s"].append(time.perf_counter() - t0)
        p["fleet.cells"].append(fleet.num_cells)
        return {"probes": len(p["fleet.cells"])}

    def exp_setup(self) -> dict:
        """Untimed first uses: the campaign, a primed result cache, a
        first inline run, and the telemetry probe's traces."""
        from repro.exp import InlineRunner, ResultCache, load_campaign
        from repro.exp.fleet import RemoteRunner

        warnings.simplefilter("ignore")
        campaign = load_campaign(CAMPAIGN)
        cache = ResultCache(os.path.join(self.workdir, "exp-cache"))
        InlineRunner().run(campaign, cache=cache)
        InlineRunner().run(campaign)
        traces = [self.api["load_trace"](p) for p in self.batch[:TRACED_DENSE_TRACES]]
        return {"campaign": campaign, "cache": cache, "obs_traces": traces,
                "InlineRunner": InlineRunner, "RemoteRunner": RemoteRunner}

    def probe_metrics(self) -> Dict[str, float]:
        p = self.probes
        if not p["fleet.cells"]:
            return {}
        out = {k: statistics.median(v) for k, v in p.items()
               if k.startswith("exp.")}
        out["exp.cells_per_s.fleet"] = sum(p["fleet.cells"]) / sum(p["fleet.s"])
        out["obs.on_overhead_pct"] = (statistics.median(p["obs.ratio"]) - 1) * 100
        return out

    def dump(self) -> dict:
        sfx = "." + self.backend
        med = {k: statistics.median(v) for k, v in self.passes.items()}
        stage = {
            "trace.parse_ms": med.get("trace.parse", 0.0),
            "trace.index_ms": med.get("trace.index", 0.0),
            "trace.parse_batch_ms": med.get("trace.parse_batch", 0.0),
            "vc.trf_ms": med.get("vc.trf", 0.0),
            "locks.abstract_acquires_ms": med.get("locks.abstract_acquires", 0.0),
            "alg.phase1_ms": med.get("alg.phase1", 0.0),
            "offline.phase2_ms": med.get("offline", 0.0),
            "online_k.run_ms": med.get("online_k", 0.0),
            "online.feed_ms": med.get("online.feed", 0.0),
            "fasttrack.feed_ms": med.get("fasttrack.feed", 0.0),
            "stream.self_ms": med.get("stream", 0.0),
        }
        metrics = {k + sfx: v for k, v in stage.items()}
        c = self.counts
        metrics.update({k: c[k] for k in c if k != "offline.reports"})
        metrics["offline.hit_ratio"] = (c["offline.reports"] / c["alg.abstract_patterns"]
                                        if c["alg.abstract_patterns"] else 0.0)
        keys = sorted({k for kc in self.kcounts for k in kc if not k.endswith(".events")})
        for k in keys:
            metrics[k] = statistics.median(kc.get(k, 0) for kc in self.kcounts)
        if self.plain_ms:
            metrics["bench.trace_overhead_pct"] = (
                statistics.median(self.traced_ms) / statistics.median(self.plain_ms) - 1) * 100
        metrics.update(self.probe_metrics())
        self.spans.dump(os.path.join(self.workdir, f"spans-{self.backend}.jsonl"),
                        backend=self.backend)
        return {"metrics": metrics, "passes": len(self.traced_ms)}


def main(argv: List[str]) -> int:
    workload, workdir, role = argv
    with open(os.path.join(workdir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    import repro.kernels as kernels

    kernels.backend()
    if role == "traced":
        harness = Traced(workload, manifest, workdir)
        handlers = {"round": harness.traced_pass, "plain": harness.plain_pass,
                    "probe": harness.probe}
    else:
        harness = {"dense-patterns": Dense, "live-stream": Live}[workload](manifest)
        handlers = {"round": harness.round}
    reply({"ready": time.perf_counter()})
    if role == "setup":
        return 0
    for line in sys.stdin:
        cmd = line.strip()
        if cmd == "quit":
            break
        reply(handlers[cmd]())
    out = harness.dump()
    if role != "traced":
        with open(os.path.join(workdir, "outputs.json"), "w", encoding="utf-8") as fh:
            json.dump(out, fh)
        out = {}
    out["peak_rss_mb"] = peak_rss_mb()
    reply(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
