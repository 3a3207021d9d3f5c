"""Seeded input generators for the benchmark workloads.

Run as a script to write one workload's inputs into a directory::

    python3 perfbench/gen.py WORKLOAD SEED OUTDIR

The last line of its output is a JSON manifest of the files written.

The lock-dense traces come from a generator kept here, apart from
``repro.synth``, so that edits to the program's own synthesizers do not
shift these inputs.  A dense trace is a set of per-thread *programs*
(nested lock blocks with reads and writes inside) run under a seeded
*schedule*.  The programs are fixed per trace slot; a schedule seed
picks the interleaving.  The abstract lock graph depends only on the
per-thread programs, so every schedule has the same cycle and pattern
counts, and the schedule changes which patterns are sync-preserving
and how much closure work each check needs.

``dense-patterns`` analyses one fixed set, the schedules of
:data:`DENSE_SCHEDULE`, in an order the seed shuffles.  That set holds a
trace on which SPDOnlineK misses a size-3 pattern SPDOffline reports
(see README.md, "Known faults"), so that fault fails the same share of
operations in every run.  ``live-stream`` takes its schedule from the
seed.

The Table-1 replicas are the program's own ``repro.synth.suite`` rows,
written as shipped; the seed only shuffles the order they are analysed
in (the orchestrator does that).
"""

from __future__ import annotations

import json
import os
import random
import sys
from typing import List, Sequence, Tuple

THREADS = 6
LOCKS = 8
VARIABLES = 6
#: nest depth mix (depth 1, 2, 3): nesting 3, but deep nests are rare
#: enough that one 2k-event trace has about 1.2k ALG cycles
DEPTH_MIX = (0.72, 0.23, 0.05)

#: dense-patterns: traces per input set and events per trace
DENSE_TRACES = 16
DENSE_EVENTS = 2000
#: dense-patterns: the schedule seed of the one input set
DENSE_SCHEDULE = 9
#: live-stream: length of the one stream
STREAM_EVENTS = 40000
STREAM_HEAD = 4000

Op = Tuple[str, int, str]


def thread_program(rng: random.Random, thread: str, events: int) -> List[Op]:
    """One thread's operations: well-nested lock blocks of depth 1-3.

    Each block takes distinct locks in a random order, with up to one
    read or write after each acquire and a few accesses between blocks.
    """
    ops: List[Op] = []
    while len(ops) < events:
        roll = rng.random()
        depth = 1 if roll < DEPTH_MIX[0] else 2 if roll < DEPTH_MIX[0] + DEPTH_MIX[1] else 3
        locks = rng.sample(range(LOCKS), depth)
        for k, lk in enumerate(locks):
            ops.append(("acq", lk, f"{thread}.java:{lk * 10 + k + 1}"))
            for _ in range(rng.randrange(2)):
                ops.append(("w" if rng.random() < 0.4 else "r", rng.randrange(VARIABLES), ""))
        for lk in reversed(locks):
            ops.append(("rel", lk, ""))
        for _ in range(rng.randrange(3)):
            ops.append(("w" if rng.random() < 0.4 else "r", rng.randrange(VARIABLES), ""))
    return ops


def _block_locks(program: Sequence[Op], start: int) -> List[int]:
    """Locks taken by the block that begins at ``program[start]``."""
    depth = 0
    locks = []
    for op, target, _ in program[start:]:
        if op == "acq":
            depth += 1
            locks.append(target)
        elif op == "rel":
            depth -= 1
            if depth == 0:
                break
    return locks


def schedule(rng: random.Random, programs: Sequence[Sequence[Op]]) -> List[str]:
    """Interleave the programs into one well-formed trace (STD lines).

    A thread may start a block only when none of the block's locks is
    held or reserved by another thread; it then reserves them all until
    the block ends.  So the schedule never deadlocks, while the lock
    orders inside the blocks still form the cycles a predictor must
    examine.
    """
    names = [f"T{i}" for i in range(len(programs))]
    pos = [0] * len(programs)
    depth = [0] * len(programs)
    owner: dict = {}
    out: List[str] = []
    live = [i for i in range(len(programs)) if programs[i]]
    while live:
        ready = []
        for i in live:
            op, target, _ = programs[i][pos[i]]
            if op == "acq" and depth[i] == 0 and any(
                    owner.get(lk, i) != i for lk in _block_locks(programs[i], pos[i])):
                continue
            ready.append(i)
        i = rng.choice(ready)
        op, target, loc = programs[i][pos[i]]
        if op == "acq":
            if depth[i] == 0:
                for lk in _block_locks(programs[i], pos[i]):
                    owner[lk] = i
            depth[i] += 1
            out.append(f"{names[i]}|acq(L{target})|{loc}")
        elif op == "rel":
            depth[i] -= 1
            out.append(f"{names[i]}|rel(L{target})")
            if depth[i] == 0:
                for lk in [lk for lk, o in owner.items() if o == i]:
                    del owner[lk]
        else:
            out.append(f"{names[i]}|{op}(V{target})")
        pos[i] += 1
        if pos[i] == len(programs[i]):
            live.remove(i)
    return out


def dense_trace(slot: int, seed: int, events: int) -> List[str]:
    """Trace ``slot`` of an input set: fixed programs, seeded schedule."""
    prog_rng = random.Random(f"program/{slot}/{events}")
    programs = [thread_program(prog_rng, f"T{t}", events // THREADS)
                for t in range(THREADS)]
    return schedule(random.Random(f"schedule/{slot}/{seed}"), programs)


def _write(path: str, lines: List[str]) -> dict:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return {"path": path, "events": len(lines)}


def write_dense(seed: int, outdir: str) -> dict:
    files = [_write(os.path.join(outdir, f"dense{i:02d}.std"),
                    dense_trace(i, DENSE_SCHEDULE, DENSE_EVENTS))
             for i in range(DENSE_TRACES)]
    random.Random(seed).shuffle(files)
    # warm-up trace: a slot no timed trace uses
    warm = _write(os.path.join(outdir, "warmup.std"),
                  dense_trace(DENSE_TRACES, DENSE_SCHEDULE, DENSE_EVENTS))
    return {"files": files, "warmup": warm}


def write_stream(seed: int, outdir: str) -> dict:
    lines = dense_trace(0, seed, STREAM_EVENTS)
    stream = _write(os.path.join(outdir, "stream.std"), lines)
    # the batch stages of a traced run analyse the stream's head
    head = _write(os.path.join(outdir, "stream_head.std"), lines[:STREAM_HEAD])
    warm = _write(os.path.join(outdir, "warmup.std"),
                  dense_trace(1, seed, DENSE_EVENTS))
    return {"files": [stream], "head": head, "warmup": warm}


def write_table1(seed: int, outdir: str) -> dict:
    from repro.synth.suite import TABLE1_SUITE, build_benchmark
    from repro.trace.parser import format_trace

    files = []
    for spec in TABLE1_SUITE:
        trace = build_benchmark(spec)
        path = os.path.join(outdir, f"{spec.name}.std")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_trace(trace) + "\n")
        files.append({"path": path, "events": len(trace),
                      "expected_spd": spec.expected_spd})
    smallest = min(files, key=lambda f: f["events"])
    return {"files": files, "warmup": smallest}


WRITERS = {
    "analyze-table1": write_table1,
    "dense-patterns": write_dense,
    "live-stream": write_stream,
}


def main(argv: List[str]) -> int:
    workload, seed, outdir = argv[0], int(argv[1]), argv[2]
    os.makedirs(outdir, exist_ok=True)
    print(json.dumps(WRITERS[workload](seed, outdir)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
