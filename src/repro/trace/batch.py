"""Engine-level batch tracing: trial spans, worker tracks, cache hits.

A :class:`BatchTrace` is the per-batch, event-level counterpart of the
process-wide :mod:`repro.telemetry` counters: the caller owns it,
passes it into :func:`repro.engine.runner.run_batch`, and gets back
*scheduling-dependent* telemetry — when each trial started and
finished, which worker process ran it, and which specs were satisfied
from the result cache.  None of this may ever enter a
:class:`~repro.engine.session.RunResult` (results must stay bitwise
identical between serial and pooled runs), which is exactly why it
lives in a side record.

:meth:`BatchTrace.to_chrome_trace` renders the batch as one Perfetto
process: one track per worker pid carrying trial spans, plus a cache
track of hit instants — the fleet-scale view of engine behaviour the
ROADMAP's production goals need.
"""

import time

from repro.trace.perfetto import _metadata

#: pid of the engine process in exported Chrome traces (run traces use
#: pids >= 1; 0 keeps the engine tracks sorted first).
ENGINE_PID = 0


def _now_us():
    """Engine-clock microseconds (monotonic, comparable across the
    parent and its worker processes on the platforms we run on)."""
    return time.perf_counter_ns() // 1000


class BatchTrace:
    """Caller-owned wall-clock telemetry for one or more batches."""

    def __init__(self, label="engine batch"):
        self.label = label
        self.trials = []       # dicts: executed trials with spans
        self.cache_hits = []   # dicts: specs satisfied from the cache

    def __len__(self):
        return len(self.trials) + len(self.cache_hits)

    def record_trial(self, label, index, start_us, duration_us, pid):
        self.trials.append({
            "label": label or f"trial[{index}]", "index": index,
            "start_us": start_us, "duration_us": duration_us, "pid": pid,
        })

    def record_cache_hit(self, label, index, ts_us=None):
        self.cache_hits.append({
            "label": label or f"trial[{index}]", "index": index,
            "ts_us": ts_us if ts_us is not None else _now_us(),
        })

    # -- export --------------------------------------------------------

    def to_chrome_trace(self):
        """Chrome trace events: per-worker tracks + a cache-hit track."""
        out = [_metadata(ENGINE_PID, self.label)]
        times = ([trial["start_us"] for trial in self.trials]
                 + [hit["ts_us"] for hit in self.cache_hits])
        origin = min(times) if times else 0
        workers = sorted({trial["pid"] for trial in self.trials})
        for track, pid in enumerate(workers, start=1):
            out.append(_metadata(ENGINE_PID, f"worker {pid}", tid=track))
        track_of = {pid: track for track, pid in enumerate(workers,
                                                           start=1)}
        for trial in self.trials:
            out.append({
                "ph": "X", "pid": ENGINE_PID,
                "tid": track_of[trial["pid"]],
                "name": trial["label"], "cat": "engine",
                "ts": trial["start_us"] - origin,
                "dur": max(1, trial["duration_us"]),
                "args": {"index": trial["index"], "pid": trial["pid"]},
            })
        if self.cache_hits:
            out.append(_metadata(ENGINE_PID, "result cache", tid=99))
            for hit in self.cache_hits:
                out.append({
                    "ph": "i", "pid": ENGINE_PID, "tid": 99,
                    "name": f"cache hit: {hit['label']}",
                    "cat": "engine", "ts": hit["ts_us"] - origin,
                    "s": "t", "args": {"index": hit["index"]},
                })
        return out

    def __repr__(self):
        return (f"BatchTrace(trials={len(self.trials)}, "
                f"cache_hits={len(self.cache_hits)}, "
                f"workers={len({t['pid'] for t in self.trials})})")


def record_executed_trial(batch_trace, label, index, start_us,
                          duration_us, pid):
    """No-op-tolerant helper for the runner (``batch_trace`` may be
    None); keeps the fan-out loops free of conditionals."""
    if batch_trace is not None:
        batch_trace.record_trial(label, index, start_us, duration_us,
                                 pid)


__all__ = ["BatchTrace", "ENGINE_PID", "record_executed_trial"]
