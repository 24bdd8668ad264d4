"""Spans and counters around the calls into each mpo layer.

A `Tracer` replaces module attributes of `mpo` with thin wrappers for the
length of a `with` block and puts every original back on exit.  Each
wrapper records one span (name, start, end, parent, op id) in memory and
bumps counters at the same boundary.  The wrappers only read their
arguments and results: they draw no random numbers and mutate no program
state, so a traced run produces the same traces and estimates as an
untraced one.

Self time of a span is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from contextlib import contextmanager

import mpo.audit
import mpo.cli
import mpo.core
import mpo.montecarlo
import mpo.netsim

# span name -> layer whose self time it counts toward
LAYER_OF = {
    "netsim": "netsim",
    "core": "core",
    "arborescence": "arborescence",
    "channels": "channels",
    "channels.windows": "channels",
    "trace.write": "trace",
    "trace.read": "trace",
    "audit": "audit",
    "montecarlo.existence": "montecarlo",
    "montecarlo.stability": "montecarlo",
    "montecarlo.reachability": "montecarlo",
    "cli": "cli",
    "cli.parse": "cli",
}

PER_LAYER_METRICS = (
    ("netsim.self_s", "s"),
    ("netsim.events", "count"),
    ("netsim.sends", "count"),
    ("netsim.drops", "count"),
    ("netsim.heap_pushes", "count"),
    ("core.stimuli", "count"),
    ("core.self_s", "s"),
    ("core.packets_out", "count"),
    ("core.packets_per_stimulus", "ratio"),
    ("core.duplicate_ratio", "ratio"),
    ("arborescence.solves", "count"),
    ("arborescence.self_s", "s"),
    ("arborescence.cache_hit_ratio", "ratio"),
    ("channels.schedule_calls", "count"),
    ("channels.self_s", "s"),
    ("channels.drop_ratio", "ratio"),
    ("channels.windows_s", "s"),
    ("trace.bytes", "bytes"),
    ("trace.write_mb_per_s", "MB/s"),
    ("trace.read_mb_per_s", "MB/s"),
    ("audit.calls", "count"),
    ("audit.self_s", "s"),
    ("audit.events_per_s", "1/s"),
    ("montecarlo.existence_s", "s"),
    ("montecarlo.stability_s", "s"),
    ("montecarlo.reachability_calls", "count"),
    ("montecarlo.reachability_s", "s"),
    ("montecarlo.reachability_cells", "count"),
    ("cli.self_s", "s"),
    ("cli.parse_scenario_s", "s"),
    ("tracing_overhead_ratio", "ratio"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Collects spans and counters while installed; see module docstring."""

    def __init__(self) -> None:
        # one tuple per span: (name, start, end, parent index or -1, op id)
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.events_by_type: Counter = Counter()
        self.current = -1
        self.op = -1
        self._saved: list[tuple[object, str, object]] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        # the name is there while the span is open, for `_in_span`
        idx = len(self.spans)
        self.spans.append((name, 0.0, 0.0, -1, -1))
        return idx

    @contextmanager
    def span(self, name: str, op: int | None = None):
        """Span opened by the benchmark itself, e.g. one per op."""
        if op is not None:
            self.op = op
        idx = self._open(name)
        parent, self.current = self.current, idx
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.current = parent
            self.spans[idx] = (name, start, end, parent, self.op)

    def _wrap(self, name: str, fn, before=None, after=None):
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            idx = tracer._open(name)
            parent, tracer.current = tracer.current, idx
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.current = parent
                tracer.spans[idx] = (name, start, end, parent, tracer.op)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _in_span(self, prefix: str) -> bool:
        return self.current >= 0 and self.spans[self.current][0].startswith(prefix)

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        entry = (owner, attr, getattr(owner, attr))
        self._saved.append(entry)
        self._originals.append(entry)
        setattr(owner, attr, replacement)

    def _patch_wrapped(self, owner, attr: str, name: str, before=None, after=None):
        self._patch(owner, attr, self._wrap(name, getattr(owner, attr), before, after))

    def install(self) -> None:
        c = self.counts
        netsim, cli, core, audit, mc = (
            mpo.netsim, mpo.cli, mpo.core, mpo.audit, mpo.montecarlo
        )

        # netsim: the engine, its heaps, and the trace it returns
        def count_events(trace, *_a, **_k):
            self.events_by_type.update(type(ev).__name__ for ev in trace.events)

        self._patch_wrapped(netsim, "run", "netsim", after=count_events)
        self._patch_wrapped(cli, "run", "netsim", after=count_events)
        orig_push = netsim.heappush

        def counting_push(heap, item):
            c["netsim.heap_pushes"] += 1
            if len(item) == 3:
                c["netsim.delivery_pushes"] += 1
            orig_push(heap, item)

        self._patch(netsim, "heappush", counting_push)

        # core: the three stimuli the engine feeds the state machine
        def before_receive(state, pkt):
            c["core.stimuli"] += 1
            c["core.receives"] += 1
            if pkt.msg_id in state.seen:
                c["core.duplicates"] += 1

        def before_timeout(*_a, **_k):
            c["core.stimuli"] += 1

        def after_stimulus(result, *_a, **_k):
            c["core.packets_out"] += len(result[1])

        self._patch_wrapped(netsim, "on_receive", "core",
                            before_receive, after_stimulus)
        self._patch_wrapped(netsim, "on_sender_timeout", "core",
                            before_timeout, after_stimulus)
        self._patch_wrapped(netsim, "on_receiver_timeout", "core",
                            before_timeout, after_stimulus)

        # arborescence: solves against calls to the cached accessor
        def count_solve(*_a, **_k):
            c["arborescence.solves"] += 1

        self._patch_wrapped(core, "min_arborescence", "arborescence", before=count_solve)
        orig_own = core.MpoState.own_min_arborescence

        def counting_own(state):
            c["arborescence.own_calls"] += 1
            return orig_own(state)

        self._patch(core.MpoState, "own_min_arborescence", counting_own)

        # channels
        def after_schedule(due, *_a, **_k):
            c["channels.schedule_calls"] += 1
            if due is None:
                c["channels.drops"] += 1

        self._patch_wrapped(netsim, "schedule_delivery", "channels",
                            after=after_schedule)
        self._patch_wrapped(netsim, "suppression_windows", "channels.windows")

        # trace file I/O as the CLI does it
        def after_write(_result, _trace, path):
            c["trace.bytes_written"] += os.path.getsize(path)

        def before_read(path):
            c["trace.bytes_read"] += os.path.getsize(path)

        self._patch_wrapped(cli, "write_trace_file", "trace.write", after=after_write)
        self._patch_wrapped(cli, "read_trace_file", "trace.read", before=before_read)

        # audit: only calls not nested in another audit call are counted
        def before_audit(trace, *_a, **_k):
            if not self._in_span("audit"):
                c["audit.calls"] += 1
                c["audit.events"] += len(trace.events)

        self._patch_wrapped(cli, "audit_report", "audit", before=before_audit)
        self._patch_wrapped(audit, "audit_report", "audit", before=before_audit)
        self._patch_wrapped(audit, "audit_timer_bound", "audit", before=before_audit)

        # cli
        self._patch_wrapped(cli, "main", "cli")
        self._patch_wrapped(cli, "parse_scenario_file", "cli.parse")

        # montecarlo
        def count_trials(_n, _p, trials, *_a, **_k):
            c["montecarlo.trials"] += trials

        def before_reach(adj):
            k, n, _ = adj.shape
            c["montecarlo.reachability_calls"] += 1
            c["montecarlo.reachability_cells"] += k * n * n

        for attr in ("mc_single_hop", "mc_multi_hop"):
            self._patch_wrapped(mc, attr, "montecarlo.existence", before=count_trials)
        self._patch_wrapped(mc, "mc_stability", "montecarlo.stability",
                            before=count_trials)
        self._patch_wrapped(mc, "_reachability", "montecarlo.reachability",
                            before=before_reach)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every attribute ever patched holds its original again."""
        return all(getattr(owner, attr) is original
                   for owner, attr, original in self._originals)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, index-aligned with `spans`."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_n, start, end, _p, _o) in enumerate(self.spans)]

    def op_accounting(self) -> dict[int, tuple[float, float]]:
        """Per op id: (wall time of its "op" span, sum of self times of the
        layer spans inside it)."""
        selfs = self.self_times()
        out: dict[int, list[float]] = {}
        for (name, start, end, _parent, op), own in zip(self.spans, selfs):
            acc = out.setdefault(op, [0.0, 0.0])
            if name == "op":
                acc[0] += end - start
            else:
                acc[1] += own
        return {op: (wall, layers) for op, (wall, layers) in out.items()}

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals over everything recorded so far."""
        selfs = self.self_times()
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        for (name, start, end, _p, _o), own in zip(self.spans, selfs):
            layer = LAYER_OF.get(name)
            if layer is None:
                continue
            total_s[name] += end - start
            if name != "cli.parse":
                self_s[layer] += own
        c, ev = self.counts, self.events_by_type
        sends, drops = ev["Send"], ev["Drop"]
        calls = c["channels.schedule_calls"]
        return {
            "netsim.self_s": self_s["netsim"],
            "netsim.events": sum(ev.values()),
            "netsim.sends": sends,
            "netsim.drops": drops,
            "netsim.heap_pushes": c["netsim.heap_pushes"],
            "core.stimuli": c["core.stimuli"],
            "core.self_s": self_s["core"],
            "core.packets_out": c["core.packets_out"],
            "core.packets_per_stimulus": _ratio(c["core.packets_out"], c["core.stimuli"]),
            "core.duplicate_ratio": _ratio(c["core.duplicates"], c["core.receives"]),
            "arborescence.solves": c["arborescence.solves"],
            "arborescence.self_s": self_s["arborescence"],
            "arborescence.cache_hit_ratio": (
                1.0 - _ratio(c["arborescence.solves"], c["arborescence.own_calls"])
                if c["arborescence.own_calls"] else 0.0
            ),
            "channels.schedule_calls": calls,
            "channels.self_s": self_s["channels"],
            "channels.drop_ratio": _ratio(c["channels.drops"], calls),
            "channels.windows_s": total_s["channels.windows"],
            "trace.bytes": c["trace.bytes_written"],
            "trace.write_mb_per_s": _ratio(c["trace.bytes_written"] / 1e6,
                                           total_s["trace.write"]),
            "trace.read_mb_per_s": _ratio(c["trace.bytes_read"] / 1e6,
                                          total_s["trace.read"]),
            "audit.calls": c["audit.calls"],
            "audit.self_s": self_s["audit"],
            "audit.events_per_s": _ratio(c["audit.events"], self_s["audit"]),
            "montecarlo.existence_s": total_s["montecarlo.existence"],
            "montecarlo.stability_s": total_s["montecarlo.stability"],
            "montecarlo.reachability_calls": c["montecarlo.reachability_calls"],
            "montecarlo.reachability_s": total_s["montecarlo.reachability"],
            "montecarlo.reachability_cells": c["montecarlo.reachability_cells"],
            "cli.self_s": self_s["cli"],
            "cli.parse_scenario_s": total_s["cli.parse"],
        }

    def cross_checks(self) -> list[tuple[str, bool]]:
        """Identities between the counters and the traces they produced."""
        c, ev = self.counts, self.events_by_type
        sends = ev["Send"]
        checks = [
            ("core.stimuli == #Deliver + #TimerFired",
             c["core.stimuli"] == ev["Deliver"] + ev["TimerFired"]),
            ("delivery heap pushes == #Send - #Drop",
             c["netsim.delivery_pushes"] == sends - ev["Drop"]),
            ("channels.schedule_calls == #Send", c["channels.schedule_calls"] == sends),
            ("channels.drop_ratio == #Drop / #Send",
             _ratio(c["channels.drops"], c["channels.schedule_calls"])
             == _ratio(ev["Drop"], sends)),
        ]
        for op, (wall, layers) in sorted(self.op_accounting().items()):
            if op >= 0:
                checks.append((f"op {op}: layer self times <= op wall",
                               layers <= wall))
        return checks

    def write_spans(self, path: str) -> None:
        """Write the recorded spans as tab-separated lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{op}\n")
