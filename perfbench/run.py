"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository.  Workloads (see README.md):
``analyze-table1``, ``dense-patterns``, ``live-stream``, ``campaign-j2``.
``BENCHMARK.json`` lists the last three; ``analyze-table1`` is too
unsteady on a shared host for the benchmark's bounds and is run by hand.
With ``--trace 0`` the last line of output is the JSON result with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of the traced pipeline, and the spans are written under
``.perfbench_spans/``.

This process never imports the program.  Inputs are written by
``gen.py`` in a child process, the program runs in child processes
(``repro`` CLI launches or ``worker.py``), and outputs are checked by
``checks.py`` in another child.  So the peak RSS taken from each
program child's own rusage is the program's, not the generator's or
the checker's.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from checks import witness_self_test

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PY = sys.executable or "python3"

WORKLOADS = ("analyze-table1", "dense-patterns", "live-stream", "campaign-j2")
CAMPAIGN = os.path.join("examples", "paper_tables.toml")
#: set-up samples per run (the timed workers' own set-up counts as one)
SETUP_SAMPLES = 3
#: fewest rounds per run, so the tail percentile keeps ten samples
#: beyond it; and that percentile
MIN_ROUNDS = {"analyze-table1": 1, "dense-patterns": 2, "live-stream": 2,
              "campaign-j2": 1}
TAIL_PERCENTILE = {"analyze-table1": 75, "dense-patterns": 80, "live-stream": 85,
                   "campaign-j2": 90}
#: traced runs: fewest passes, and no-op ``repro`` launches per pass
MIN_TRACED_PASSES = 2
CLI_STARTUP_SAMPLES = 5

PER_LAYER_STAGES = (
    "trace.parse_ms", "trace.index_ms", "trace.parse_batch_ms", "vc.trf_ms",
    "locks.abstract_acquires_ms", "alg.phase1_ms", "offline.phase2_ms",
    "online_k.run_ms", "online.feed_ms", "fasttrack.feed_ms", "stream.self_ms",
)
PER_LAYER_COUNTS = (
    "alg.cycles", "alg.abstract_patterns", "alg.concrete_patterns",
    "offline.hit_ratio", "online_k.contexts", "online.deadlock_checks",
    "online.tracked_entries", "online.evictions", "fasttrack.racy_vars",
    "stream.retained_events_max",
)
KERNEL_COUNTS = (
    "kernels.alg_edges.numpy", "kernels.alg_edges.python",
    "kernels.index_extend.numpy", "kernels.index_extend.python",
    "kernels.johnson_scc.incremental", "kernels.offline_check.numpy",
    "kernels.online_closure.numpy", "kernels.online_closure.python",
    "kernels.online_microbatch.numpy", "kernels.spdk.numpy",
    "kernels.spdk.python", "kernels.fasttrack_runs.numpy",
    "kernels.fasttrack_runs.python", "kernels.vc_join_many.numpy",
)
PER_LAYER_OTHER = (
    "cli.startup_ms", "exp.cell_overhead_ms", "exp.code_version_ms",
    "exp.cache_hit_rerun_ms", "exp.cells_per_s.inline", "exp.cells_per_s.fleet",
    "obs.on_overhead_pct", "bench.trace_overhead_pct",
)


def per_layer_names() -> List[str]:
    names = [s + sfx for s in PER_LAYER_STAGES for sfx in (".python", ".numpy")]
    return names + list(PER_LAYER_COUNTS) + list(KERNEL_COUNTS) + list(PER_LAYER_OTHER)


def unit_of(name: str) -> str:
    if name.endswith(("_ms", "_ms.python", "_ms.numpy")):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if ".cells_per_s." in name:
        return "cells/s"
    if name == "offline.hit_ratio":
        return "ratio"
    return "count"


class BenchError(Exception):
    """The benchmark could not run a workload to its end."""


def program_env(kernels: Optional[str] = None) -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("REPRO_KERNELS", "REPRO_OBS", "REPRO_FAULTS", "REPRO_DEBUG"):
        env.pop(var, None)
    if kernels:
        env["REPRO_KERNELS"] = kernels
    return env


def run_child(argv: List[str], workdir: str, env=None) -> dict:
    """Run a child to its end; wall time from launch to exit, its rusage."""
    errpath = os.path.join(workdir, "child.err")
    with open(errpath, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                stdin=subprocess.DEVNULL, cwd=ROOT,
                                env=env or program_env())
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(errpath, errors="replace") as fh:
        err_text = fh.read()
    return {"rc": proc.returncode, "out": out.decode(errors="replace"), "err": err_text,
            "wall": wall, "rss_mb": usage.ru_maxrss / 1024.0}


def last_json(text: str):
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise BenchError("child printed nothing")
    return json.loads(lines[-1])


class Worker:
    """A ``worker.py`` child driven one JSON line at a time."""

    def __init__(self, workload: str, workdir: str, role: str,
                 kernels: Optional[str] = None) -> None:
        self.errpath = os.path.join(workdir, f"worker-{role}-{kernels or 'auto'}.err")
        self.err = open(self.errpath, "w")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [PY, os.path.join(HERE, "worker.py"), workload, workdir, role],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.err,
            cwd=ROOT, env=program_env(kernels), text=True)
        self.setup_s = self.recv()["ready"] - t0

    def recv(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.err.flush()
            with open(self.errpath, errors="replace") as fh:
                tail = fh.read()[-2000:]
            raise BenchError(f"worker exited early:\n{tail}")
        return json.loads(line)

    def ask(self, cmd: str) -> dict:
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()
        return self.recv()

    def finish(self, final: bool = True) -> dict:
        """End the worker; returns its final record plus its peak RSS."""
        out = self.ask("quit") if final else {}
        self.proc.stdin.close()
        self.proc.stdout.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.err.close()
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with {self.proc.returncode}")
        out["rss_mb"] = usage.ru_maxrss / 1024.0
        return out

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.err.close()


def setup_probe(workload: str, workdir: str) -> float:
    probe = Worker(workload, workdir, "setup")
    try:
        probe.finish(final=False)
    finally:
        probe.kill()
    return probe.setup_s


def run_side(argv: List[str], what: str) -> dict:
    """Run an untimed helper (``gen.py``, ``checks.py``) to its end and
    return the JSON object it prints last."""
    proc = subprocess.run(argv, capture_output=True, text=True, stdin=subprocess.DEVNULL,
                          cwd=ROOT, env=program_env())
    if proc.returncode != 0:
        raise BenchError(f"{what} failed:\n{proc.stderr[-2000:]}")
    return last_json(proc.stdout)


def check_outputs(workload: str, workdir: str) -> dict:
    return run_side([PY, os.path.join(HERE, "checks.py"), workload, workdir],
                    "the output checks")


def percentile(values: List[float], p: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


class Tally:
    """What one untraced run measured."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.setups: List[float] = []
        self.events = 0
        self.timed_s = 0.0
        self.rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.self_test = True


# -- untraced workloads ----------------------------------------------------------


def run_worker_workload(workload: str, seconds: int, workdir: str) -> Tally:
    """dense-patterns / live-stream: timed rounds in one worker, with
    set-up probes in fresh processes between rounds."""
    tally = Tally()
    main = Worker(workload, workdir, "serve")
    try:
        tally.setups.append(main.setup_s)
        rounds = 0
        while True:
            res = main.ask("round")
            rounds += 1
            tally.samples += res["samples"]
            tally.events += res["events"]
            tally.timed_s += res["wall"]
            tally.attempted += res["ops"]
            tally.failed += res["failed"]
            if len(tally.setups) < SETUP_SAMPLES:
                tally.setups.append(setup_probe(workload, workdir))
            per_round = tally.timed_s / rounds
            if rounds >= MIN_ROUNDS[workload] and tally.timed_s + per_round > seconds:
                break
        while len(tally.setups) < SETUP_SAMPLES:
            tally.setups.append(setup_probe(workload, workdir))
        tally.rss_mb = main.finish()["rss_mb"]
    finally:
        main.kill()
    verdict = check_outputs(workload, workdir)
    tally.self_test = verdict["self_test"]
    tally.problems += verdict["problems"]
    # dense-patterns records one round's outputs (later rounds must
    # repeat them exactly), so a failed check fails that op in every round
    repeat = rounds if workload == "dense-patterns" else 1
    tally.failed += len(set(verdict["failed"])) * repeat
    return tally


def table1_order(files: List[dict], seed: int) -> List[dict]:
    """The replicas in a seeded order that spreads each size class over
    the run: every four consecutive files hold one from each size
    quartile, so the largest files (the latency tail) never bunch up in
    one stretch of the run."""
    rng = random.Random(seed)
    by_size = sorted(files, key=lambda f: (f["events"], f["path"]))
    k = len(by_size) // 4
    strata = [by_size[i * k:(i + 1) * k] for i in range(3)] + [by_size[3 * k:]]
    for stratum in strata:
        rng.shuffle(stratum)
    order = []
    for i in range(len(strata[-1])):
        row = [s[i] for s in strata if i < len(s)]
        rng.shuffle(row)
        order += row
    return order


def run_table1(seconds: int, seed: int, workdir: str, manifest: dict) -> Tally:
    """Each replica through its own ``repro analyze --json`` process."""
    tally = Tally()
    files = table1_order(manifest["files"], seed)
    step = max(1, len(files) // SETUP_SAMPLES)
    warm = [PY, "-m", "repro", "analyze", "--json", manifest["warmup"]["path"]]
    ops = []
    rounds = 0
    while True:
        for i, f in enumerate(files):
            if i % step == 0 and len(tally.setups) < SETUP_SAMPLES:
                probe = run_child(warm, workdir)
                if probe["rc"] not in (0, 1):
                    raise BenchError(f"warm-up analyze failed: {probe['err'][-500:]}")
                tally.setups.append(probe["wall"])
            res = run_child([PY, "-m", "repro", "analyze", "--json", f["path"]], workdir)
            tally.samples.append(res["wall"] * 1e3)
            tally.timed_s += res["wall"]
            tally.events += f["events"]
            tally.rss_mb = max(tally.rss_mb, res["rss_mb"])
            tally.attempted += 1
            op_id = f"{os.path.basename(f['path'])}#{rounds}"
            try:
                found = [d["events"] for d in json.loads(res["out"])["deadlocks"]]
            except (ValueError, KeyError):
                found = None
            want_rc = 1 if found else 0
            if found is None or res["rc"] != want_rc or len(found) != f["expected_spd"]:
                tally.failed += 1
                tally.problems.append(
                    f"{op_id}: exit {res['rc']}, "
                    f"{'no JSON' if found is None else len(found)} deadlocks, "
                    f"expected {f['expected_spd']}")
            elif rounds == 0:
                ops.append({"id": op_id, "path": f["path"], "deadlocks": found})
        rounds += 1
        if tally.timed_s * (rounds + 1) / rounds > seconds:
            break
    with open(os.path.join(workdir, "outputs.json"), "w") as fh:
        json.dump({"ops": ops}, fh)
    verdict = check_outputs("analyze-table1", workdir)
    tally.self_test = verdict["self_test"]
    tally.problems += verdict["problems"]
    bad = {op.split("#")[0] for op in verdict["failed"]}
    tally.failed += rounds * len(bad)
    return tally


def campaign_cells(out_dir: str) -> List[dict]:
    with open(os.path.join(out_dir, "run.json")) as fh:
        return json.load(fh)["cells"]


def run_campaign(seconds: int, workdir: str) -> Tally:
    """``repro bench run --campaign examples/paper_tables.toml -j 2``,
    each pass from an empty result cache."""
    tally = Tally()
    corpus = os.path.join(ROOT, "corpus")
    first = min(f for f in os.listdir(corpus) if f.endswith(".std"))
    warm_toml = os.path.join(workdir, "warmup.toml")
    with open(warm_toml, "w") as fh:
        fh.write('name = "warmup"\n[[traces]]\nkind = "file"\n'
                 f'path = "{os.path.join(corpus, first)}"\n'
                 '[[detectors]]\nname = "spd_offline"\n')
    n_probe = 0

    def probe() -> None:
        nonlocal n_probe
        n_probe += 1
        res = run_child([PY, "-m", "repro", "bench", "run", "--campaign", warm_toml,
                         "-j", "2", "--quiet", "--out",
                         os.path.join(workdir, f"warm{n_probe}")], workdir)
        if res["rc"] != 0:
            raise BenchError(f"warm-up campaign failed: {res['err'][-500:]}")
        tally.setups.append(res["wall"])

    inline_dir = os.path.join(workdir, "inline")
    ref = run_child([PY, "-m", "repro", "bench", "run", "--campaign", CAMPAIGN, "-j", "1",
                     "--no-cache", "--quiet", "--out", inline_dir], workdir)
    if ref["rc"] != 0:
        raise BenchError(f"inline reference campaign failed: {ref['err'][-500:]}")
    reference = {(c["trace"], c["detector"]): c["output"] for c in campaign_cells(inline_dir)}
    passes = 0
    while True:
        probe()
        out_dir = os.path.join(workdir, f"pass{passes}")
        res = run_child([PY, "-m", "repro", "bench", "run", "--campaign", CAMPAIGN,
                         "-j", "2", "--quiet", "--out", out_dir], workdir)
        passes += 1
        tally.timed_s += res["wall"]
        tally.rss_mb = max(tally.rss_mb, res["rss_mb"])
        try:
            cells = campaign_cells(out_dir)
        except (OSError, ValueError, KeyError):
            raise BenchError(f"campaign pass wrote no run.json: {res['err'][-500:]}")
        tally.attempted += len(reference)
        for c in cells:
            tally.events += c.get("num_events") or 0
            tally.samples.append(c["elapsed"] * 1e3)
            key = (c["trace"], c["detector"])
            if c["status"] != "ok" or reference.get(key) != c["output"]:
                tally.failed += 1
                why = (f"status {c['status']}" if c["status"] != "ok"
                       else "verdict differs from the inline run")
                tally.problems.append(f"pass {passes - 1} {key}: {why}")
        if len(cells) < len(reference):
            tally.failed += len(reference) - len(cells)
            tally.problems.append(f"pass {passes - 1}: {len(cells)} cells, "
                                  f"inline run has {len(reference)}")
        shutil.rmtree(out_dir, ignore_errors=True)
        if passes >= MIN_ROUNDS["campaign-j2"] and tally.timed_s * (passes + 1) / passes > seconds:
            break
    while len(tally.setups) < SETUP_SAMPLES:
        probe()
    return tally


def end_to_end(workload: str, tally: Tally) -> Dict[str, float]:
    metrics = {
        "setup_s": statistics.median(tally.setups),
        "events_per_s": tally.events / tally.timed_s,
        "peak_rss_mb": tally.rss_mb,
    }
    p = TAIL_PERCENTILE[workload]
    n = len(tally.samples)
    beyond = n - math.ceil(p / 100 * n)
    if beyond < 10:
        raise BenchError(f"only {beyond} samples beyond p{p}")
    metrics["latency_ms_p50"] = statistics.median(tally.samples)
    metrics["latency_ms_tail"] = percentile(tally.samples, p)
    print(f"latency_ms_tail is p{p} of {n} samples ({beyond} beyond it)")
    # operations per second; an operation is a campaign cell on
    # campaign-j2 and the workload's latency sample elsewhere
    metrics["cells_per_s"] = tally.attempted / tally.timed_s
    return metrics


E2E_UNITS = {"setup_s": "s", "events_per_s": "events/s", "latency_ms_p50": "ms",
             "latency_ms_tail": "ms", "peak_rss_mb": "MB", "cells_per_s": "cells/s"}


# -- traced run ------------------------------------------------------------------


def traced(workload: str, seconds: int, seed: int, workdir: str) -> dict:
    """Both backends' pipelines, alternating passes, plus the probes."""
    workers = {}
    cli = []
    try:
        for kernels in ("python", "numpy"):
            workers[kernels] = Worker(workload, workdir, "traced", kernels)
        start = time.perf_counter()
        passes = 0
        while True:
            workers["python"].ask("round")
            workers["numpy"].ask("round")
            workers["numpy"].ask("plain")
            workers["numpy"].ask("probe")
            cli += [run_child([PY, "-m", "repro", "--help"], workdir)["wall"] * 1e3
                    for _ in range(CLI_STARTUP_SAMPLES)]
            passes += 1
            if passes >= MIN_TRACED_PASSES and time.perf_counter() - start > seconds:
                break
        finals = {k: w.finish() for k, w in workers.items()}
    finally:
        for w in workers.values():
            w.kill()
    metrics = {}
    for k, v in finals["python"]["metrics"].items():
        if k.endswith(".python"):
            metrics[k] = v
    metrics.update({k: v for k, v in finals["numpy"]["metrics"].items()
                    if not k.endswith(".python") or k.startswith("kernels.")})
    metrics["cli.startup_ms"] = statistics.median(cli)
    spans_dir = os.path.join(ROOT, ".perfbench_spans")
    os.makedirs(spans_dir, exist_ok=True)
    for kernels in ("python", "numpy"):
        src = os.path.join(workdir, f"spans-{kernels}.jsonl")
        if os.path.exists(src):
            shutil.copy(src, os.path.join(spans_dir, f"{workload}-seed{seed}-{kernels}.jsonl"))
    print(f"spans written to {spans_dir}; tracing overhead "
          f"{metrics.get('bench.trace_overhead_pct', 0):.1f}% over {passes} passes per backend")
    out = {name: metrics.get(name, 0) for name in per_layer_names()}
    return {"metrics": out, "attempted": 3 * passes, "self_test": witness_self_test() is None}


# -- entry -------------------------------------------------------------------------


def run(args) -> dict:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise BenchError("the program's sources (src/repro) are missing; run from "
                         "the root of a repository checkout")
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    # the program's own temporary files (pool and fleet scratch
    # directories) stay inside the checkout and go with the workdir
    os.makedirs(os.path.join(workdir, "tmp"))
    os.environ["TMPDIR"] = os.path.join(workdir, "tmp")
    try:
        if args.workload in ("analyze-table1", "dense-patterns", "live-stream"):
            manifest = run_side([PY, os.path.join(HERE, "gen.py"), args.workload,
                                 str(args.seed), workdir], "input generation")
        else:
            corpus = os.path.join(ROOT, "corpus")
            manifest = {"files": [{"path": os.path.join(corpus, f), "events": 0}
                                  for f in sorted(os.listdir(corpus)) if f.endswith(".std")]}
        with open(os.path.join(workdir, "manifest.json"), "w") as fh:
            json.dump(manifest, fh)

        if args.trace:
            res = traced(args.workload, args.seconds, args.seed, workdir)
            return {"correct": res["self_test"], "attempted": res["attempted"], "failed": 0,
                    "metrics": {k: {"value": v, "unit": unit_of(k)}
                                for k, v in res["metrics"].items()}}
        if args.workload == "analyze-table1":
            tally = run_table1(args.seconds, args.seed, workdir, manifest)
        elif args.workload == "campaign-j2":
            tally = run_campaign(args.seconds, workdir)
        else:
            tally = run_worker_workload(args.workload, args.seconds, workdir)
        for problem in tally.problems[:20]:
            print(f"check failed: {problem}")
        metrics = end_to_end(args.workload, tally)
        return {"correct": tally.self_test, "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
