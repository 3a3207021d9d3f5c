"""Output checks, written apart from the program under test.

Nothing here reuses the program's own validation: traces are re-read
with a parser of this file, witness schedules are replayed by
:func:`check_witness`, and races come from a plain vector-clock
happens-before pass (:func:`hb_racy_variables`).  The program is called
only to *produce* what is checked (witness schedules, reference runs of
a second algorithm).

Run as a script to check one workload's recorded outputs::

    python3 perfbench/checks.py WORKLOAD WORKDIR

It reads ``WORKDIR/outputs.json`` and prints, as its last line, a JSON
object ``{"self_test": bool, "failed": [op ids], "problems": [...]}``.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

Event = Tuple[str, str, str]  # (thread, op, target)


def read_std(path: str, limit: Optional[int] = None) -> List[Event]:
    """The events of an STD trace file: ``thread|op(target)[|loc]``."""
    events: List[Event] = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            thread, rest = line.split("|", 1)
            op, rest = rest.split("(", 1)
            target = rest.split(")", 1)[0]
            events.append((thread.strip(), op, target.strip()))
            if limit is not None and len(events) >= limit:
                break
    return events


def check_witness(events: Sequence[Event], pattern: Sequence[int],
                  schedule: Sequence[int]) -> Optional[str]:
    """Why ``schedule`` does not witness ``pattern`` as a deadlock, or None.

    The schedule must be a correct reordering that keeps synchronization
    order and leaves every pattern acquire enabled and blocked:

    - each thread runs a prefix of its own events, in order, and a
      forked thread runs nothing before its fork;
    - lock semantics hold, and every read sees the same last writer as
      in the trace;
    - critical sections on one lock keep their trace order;
    - every pattern event is its thread's next event, is not run, and
      its lock is held by another thread at the end.
    """
    thread_events: Dict[str, List[int]] = {}
    for i, (t, _, _) in enumerate(events):
        thread_events.setdefault(t, []).append(i)
    trace_writer: List[Optional[int]] = [None] * len(events)
    last_write: Dict[str, int] = {}
    fork_of: Dict[str, int] = {}
    for i, (t, op, x) in enumerate(events):
        if op == "r":
            trace_writer[i] = last_write.get(x)
        elif op == "w":
            last_write[x] = i
        elif op == "fork":
            fork_of.setdefault(x, i)

    done: Dict[str, int] = {t: 0 for t in thread_events}
    holder: Dict[str, str] = {}
    sched_write: Dict[str, int] = {}
    last_acquire: Dict[str, int] = {}
    seen = set()
    for e in schedule:
        if not 0 <= e < len(events) or e in seen:
            return f"event {e} is out of range or repeated"
        seen.add(e)
        t, op, x = events[e]
        if thread_events[t][done[t]] != e:
            return f"thread {t} runs event {e} out of its program order"
        if t in fork_of and fork_of[t] not in seen:
            return f"thread {t} runs event {e} before its fork {fork_of[t]}"
        done[t] += 1
        if op == "acq":
            if x in holder:
                return f"event {e} acquires {x} while {holder[x]} holds it"
            holder[x] = t
            if last_acquire.get(x, -1) > e:
                return f"critical sections on {x} reordered at event {e}"
            last_acquire[x] = e
        elif op == "rel":
            if holder.get(x) != t:
                return f"event {e} releases {x}, which {t} does not hold"
            del holder[x]
        elif op == "r":
            if sched_write.get(x) != trace_writer[e]:
                return f"read {e} of {x} sees another writer"
        elif op == "w":
            sched_write[x] = e
        elif op == "join":
            if done.get(x, 0) != len(thread_events.get(x, ())):
                return f"join {e} of unfinished thread {x}"
    for p in pattern:
        t, op, x = events[p]
        if op != "acq":
            return f"pattern event {p} is not an acquire"
        if p in seen:
            return f"pattern event {p} was run by the schedule"
        if done[t] >= len(thread_events[t]) or thread_events[t][done[t]] != p:
            return f"pattern event {p} is not enabled"
        if holder.get(x, t) == t:
            return f"pattern event {p} is not blocked on {x}"
    return None


def witness_self_test() -> Optional[str]:
    """Why the witness checker fails its self-test, or None.

    On the classic two-thread inversion, the genuine witness must pass
    and each tampered schedule must be rejected.
    """
    events = [
        ("T1", "acq", "a"), ("T1", "w", "x"), ("T1", "acq", "b"),
        ("T1", "rel", "b"), ("T1", "rel", "a"),
        ("T2", "acq", "b"), ("T2", "r", "x"), ("T2", "acq", "a"),
        ("T2", "rel", "a"), ("T2", "rel", "b"),
    ]
    pattern = (2, 7)
    good = [0, 1, 5, 6]
    if check_witness(events, pattern, good) is not None:
        return "the genuine witness was rejected"
    tampered = {
        "skips a program-order step": [0, 5, 6],
        "runs a pattern event": [0, 1, 5, 6, 7],
        "breaks lock semantics": [0, 1, 5, 6, 2],
        "changes a read's writer": [0, 5, 6, 1],
        "leaves a pattern acquire unblocked": [0, 1],
        "repeats an event": [0, 1, 1, 5, 6],
    }
    for what, schedule in tampered.items():
        if check_witness(events, pattern, schedule) is None:
            return f"a schedule that {what} was accepted"
    crossed = [("T1", "acq", "a"), ("T1", "rel", "a"),
               ("T2", "acq", "a"), ("T2", "rel", "a")]
    if check_witness(crossed, (), [2, 3, 0, 1]) is None:
        return "reordered critical sections were accepted"
    forked = [("T1", "w", "x"), ("T1", "fork", "T2"), ("T2", "r", "y"),
              ("T1", "join", "T2")]
    if check_witness(forked, (), [0, 1, 2, 3]) is not None:
        return "a genuine fork/join schedule was rejected"
    if check_witness(forked, (), [0, 2]) is None:
        return "a schedule that runs a child before its fork was accepted"
    if check_witness(forked, (), [0, 1, 3]) is None:
        return "a schedule that joins an unfinished thread was accepted"
    return None


def hb_racy_variables(events: Sequence[Event]) -> set:
    """Variables with a happens-before race, by full vector clocks.

    Happens-before is program order plus release-to-later-acquire on
    one lock, fork and join.  A variable is racy when an access is not
    ordered after an earlier conflicting access by another thread.
    """
    threads = sorted({t for t, _, _ in events} |
                     {x for _, op, x in events if op in ("fork", "join")})
    slot = {t: i for i, t in enumerate(threads)}
    n = len(threads)
    clock = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    lock_clock: Dict[str, List[int]] = {}
    writes: Dict[str, Dict[int, int]] = {}
    reads: Dict[str, Dict[int, int]] = {}
    racy = set()

    def join(dst: List[int], src: List[int]) -> None:
        for j in range(n):
            if src[j] > dst[j]:
                dst[j] = src[j]

    def unordered(last: Dict[int, int], me: int, c: List[int]) -> bool:
        return any(u != me and v > c[u] for u, v in last.items())

    for t, op, x in events:
        me = slot[t]
        c = clock[me]
        if op == "r":
            if unordered(writes.get(x, {}), me, c):
                racy.add(x)
            reads.setdefault(x, {})[me] = c[me]
        elif op == "w":
            if unordered(writes.get(x, {}), me, c) or unordered(reads.get(x, {}), me, c):
                racy.add(x)
            writes.setdefault(x, {})[me] = c[me]
        elif op == "acq":
            if x in lock_clock:
                join(c, lock_clock[x])
        elif op == "rel":
            lock_clock[x] = list(c)
            c[me] += 1
        elif op == "fork":
            join(clock[slot[x]], c)
            c[me] += 1
        elif op == "join":
            child = slot[x]
            join(c, clock[child])
            clock[child][child] += 1
    return racy


# -- per-workload checks ------------------------------------------------------


def _witness_problems(path: str, reports: List[List[int]], cache: dict) -> List[str]:
    """Check the program's witness schedule for every report on one trace."""
    from repro.reorder.witness import witness_for_pattern
    from repro.trace.parser import load_trace

    if path not in cache:
        cache.clear()
        cache[path] = (load_trace(path), read_std(path))
    trace, events = cache[path]
    problems = []
    for pattern in reports:
        schedule, _ = witness_for_pattern(trace, pattern)
        why = check_witness(events, pattern, schedule)
        if why is not None:
            problems.append(f"{os.path.basename(path)} {pattern}: {why}")
    return problems


def _lock_context(events: Sequence[Event], pattern: Sequence[int]) -> frozenset:
    return frozenset((events[e][0], events[e][2]) for e in pattern)


def check_table1(out: dict) -> Tuple[List[str], List[str]]:
    failed, problems = [], []
    cache: dict = {}
    for op in out["ops"]:
        why = _witness_problems(op["path"], op["deadlocks"], cache)
        if why:
            failed.append(op["id"])
            problems += why
    return failed, problems


def check_dense(out: dict) -> Tuple[List[str], List[str]]:
    """SPDOffline's witnesses, and SPDOnlineK against SPDOffline.

    A witness the checker rejects fails the SPDOffline call; any
    disagreement between the two algorithms fails the SPDOnlineK call,
    since SPDOffline's reports carry witnesses checked here.
    """
    failed, problems = [], []
    cache: dict = {}
    for tr in out["traces"]:
        path = tr["path"]
        name = os.path.basename(path)
        off_op, onk_op = tr["ops"]
        why = _witness_problems(path, [r["events"] for r in tr["offline"]], cache)
        if why:
            failed.append(off_op)
            problems += why
        events = cache[path][1] if path in cache else read_std(path)
        off3 = {frozenset(r["signatures"]) for r in tr["offline"]
                if len(r["events"]) == 3}
        onk3 = {frozenset(sigs) for sigs in tr["online_k3"]}
        why = [f"{name}: SPDOnlineK reports the size-3 pattern {sorted(p)}, "
               f"SPDOffline does not" for p in onk3 - off3]
        why += [f"{name}: SPDOnlineK misses the size-3 pattern {sorted(p)}, "
                f"SPDOffline reports it" for p in off3 - onk3]
        off2 = {_lock_context(events, r["events"])
                for r in tr["offline"] if len(r["events"]) == 2}
        onk2 = {_lock_context(events, p) for p in tr["online_k2"]}
        if off2 != onk2:
            why.append(f"{name}: size-2 (thread, lock) reports differ "
                       f"({len(onk2)} vs {len(off2)})")
        if why:
            failed.append(onk_op)
            problems += why
    return failed, problems


def check_stream(out: dict) -> Tuple[List[str], List[str]]:
    from repro.core import spd_offline
    from repro.trace.parser import parse_trace

    path, prefix = out["path"], out["prefix"]
    events = read_std(path)
    problems = []
    with open(path, encoding="utf-8") as fh:
        head = "".join(fh.readline() for _ in range(prefix))
    offline = spd_offline(parse_trace(head, name="prefix"), max_size=2)
    want = {_lock_context(events, r.pattern.events) for r in offline.reports}
    racy = hb_racy_variables(events)
    for rnd in out["rounds"]:
        got = {_lock_context(events, p) for p in rnd["reports"] if max(p) < prefix}
        if got != want:
            problems.append(f"round {rnd['round']}: bounded SPDOnline contexts on "
                            f"the {prefix}-event prefix differ from SPDOffline's "
                            f"({len(got)} vs {len(want)})")
        elif set(rnd["racy"]) != racy:
            problems.append(f"round {rnd['round']}: FastTrack racy variables "
                            f"{sorted(rnd['racy'])} != HB pass {sorted(racy)}")
        else:
            continue
        rnd["failed"] = True
    failed = [op for rnd in out["rounds"] if rnd.get("failed") for op in rnd["ops"]]
    return failed, problems


CHECKS = {
    "analyze-table1": check_table1,
    "dense-patterns": check_dense,
    "live-stream": check_stream,
}


def main(argv: List[str]) -> int:
    workload, workdir = argv
    with open(os.path.join(workdir, "outputs.json"), encoding="utf-8") as fh:
        out = json.load(fh)
    why = witness_self_test()
    failed, problems = CHECKS[workload](out)
    if why:
        problems.insert(0, f"witness checker self-test: {why}")
    print(json.dumps({"self_test": why is None, "failed": failed, "problems": problems}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
