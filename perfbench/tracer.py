"""Per-layer tracing of sarl from outside the library.

The tracer replaces public sarl functions with timing wrappers in every
sarl namespace that binds them (``sarl.head`` and ``sarl.training``
import by name, and ``head.self_attention_step`` imports
``self_attention`` at call time from ``sarl.representation``). Each
wrapper opens a span named after the function's layer group; a span's
self time is its duration minus its child spans. ``Tape.record`` is
wrapped too: every record is tagged with the innermost open span's group
and its backward closure is timed, which splits ``Tape.backward`` into
per-layer backward time plus the replay loop's own time.

A target the library no longer has is reported as missing, and the
metrics built on it are left out rather than reported as zero.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

import costs

# (module, attribute, group). Group names are per-layer metric prefixes.
TARGETS = [
    ("sarl.data", "generate", "data.generate"),
    ("sarl.head", "build_model", "head.build_model"),
    ("sarl.head", "save_checkpoint", "head.checkpoint_io"),
    ("sarl.head", "load_checkpoint", "head.checkpoint_io"),
    ("sarl.head", "forward", "head.forward"),
    ("sarl.head", "region_score_aggregate", "head.region_score_aggregate"),
    ("sarl.head", "sample_losses", "losses"),
    ("sarl.representation", "encode", "representation.encode"),
    ("sarl.representation", "self_attention", "representation.self_attention"),
    ("sarl.representation", "global_spatial_pool",
     "representation.global_spatial_pool"),
    ("sarl.representation", "fuse_semantic", "representation.fuse_semantic"),
    ("sarl.transport", "bilinear_mass", "transport.bilinear_mass"),
    ("sarl.transport", "semantic_attention", "transport.attention"),
    ("sarl.transport", "semantic_repr", "transport.attention"),
    ("sarl.transport", "semantic_map", "transport.map_and_mass"),
    ("sarl.transport", "source_distribution", "transport.map_and_mass"),
    ("sarl.transport", "target_distribution", "transport.map_and_mass"),
    ("sarl.transport", "cost_matrix", "transport.cost_matrix"),
    ("sarl.transport", "forward_plan", "transport.plans"),
    ("sarl.transport", "backward_plan", "transport.plans"),
    ("sarl.transport", "ct_loss", "transport.plans"),
    ("sarl.losses", "asl", "losses"),
    ("sarl.losses", "classification_loss", "losses"),
    ("sarl.losses", "semantic_map_loss", "losses"),
    ("sarl.losses", "total_loss", "losses"),
    ("sarl.training", "train", "training.train"),
    ("sarl.training", "evaluate", "training.evaluate"),
    ("sarl.training", "adamw_step", "training.optimizer"),
    ("sarl.training", "ema_update", "training.optimizer"),
    ("sarl.metrics", "compute_report", "metrics.compute_report"),
]

# computed forward (flops, bytes) per call, keyed by group
COSTS = {
    "representation.self_attention": costs.self_attention_cost,
    "transport.bilinear_mass": costs.bilinear_mass_cost,
}

BACKWARD = "tensor.backward"
UNTAGGED = "untagged"

# Groups whose forward runs only with labels, so their forward time is
# averaged over training samples rather than over every forward pass.
TRAIN_ONLY = ("transport.map_and_mass", "transport.cost_matrix",
              "transport.plans", "losses")
# Groups reported in ms per call rather than per sample.
PER_CALL = {
    "metrics.compute_report": "metrics.compute_report_ms",
    "data.generate": "data.generate_ms",
    "head.checkpoint_io": "head.checkpoint_io_ms",
}
# Groups reported as fwd_ms / bwd_ms / records per sample.
LAYERS = (
    "representation.encode", "representation.self_attention",
    "representation.global_spatial_pool", "representation.fuse_semantic",
    "transport.bilinear_mass", "transport.attention",
    "transport.map_and_mass", "transport.cost_matrix", "transport.plans",
    "losses",
)
# Groups whose forward time is averaged over every forward pass; see
# ``restart_forward``.
FORWARD_SIDE = tuple(g for g in LAYERS if g not in TRAIN_ONLY) + (
    "head.forward", "head.region_score_aggregate", "training.evaluate",
    "metrics.compute_report",
)


class _Span:
    __slots__ = ("group", "child", "gap")

    def __init__(self, group):
        self.group = group
        self.child = 0.0
        self.gap = 0.0  # time this span stayed open while uninstalled


class Tracer:
    """Spans and tape counts, collected while installed.

    ``install``/``uninstall`` may alternate within one run: only work done
    while installed is counted, and the per-sample denominators (forward
    passes, backward passes, optimizer steps) are counted the same way.
    """

    def __init__(self):
        self._stack = []
        self._patches = []
        self._paused_at = None
        self.time = defaultdict(float)       # outermost spans of each group
        self.self_time = defaultdict(float)  # span time minus child spans
        self.calls = defaultdict(int)        # outermost spans of each group
        self.fn_calls = defaultdict(int)     # per wrapped function
        self.records = defaultdict(int)
        self.bwd_time = defaultdict(float)
        self.flops = defaultdict(int)
        self.bytes = defaultdict(int)
        self.closure_time = 0.0
        self._dropped_train_forwards = 0
        self._resolve()

    def _resolve(self):
        """Find every (namespace, name) binding each target right now.

        Resolved again on each install, so a wrapper the caller put in
        place meanwhile (such as a step clock) is wrapped in turn.
        """
        self.missing = []
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if (name == "sarl" or name.startswith("sarl."))
                      and m is not None]
        found = []
        for module_name, attr, group in TARGETS:
            module = sys.modules.get(module_name)
            fn = getattr(module, attr, None) if module is not None else None
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            sites = [(ns, name) for ns in namespaces
                     for name, value in vars(ns).items() if value is fn]
            found.append((f"{module_name}.{attr}", group, fn, sites))
        self._missing_groups = {group for module_name, attr, group in TARGETS
                                if f"{module_name}.{attr}" in self.missing}
        tape_cls = getattr(sys.modules.get("sarl.tensor"), "Tape", None)
        for attr in ("record", "backward"):
            if getattr(tape_cls, attr, None) is None:
                self.missing.append(f"sarl.tensor.Tape.{attr}")
        self._tape_ok = not any(m.startswith("sarl.tensor.Tape")
                                for m in self.missing)
        return found, tape_cls

    @property
    def installed(self):
        return bool(self._patches)

    def install(self):
        if self._patches:
            return
        found, tape_cls = self._resolve()
        for qualname, group, fn, sites in found:
            wrapper = self._wrap(fn, group, qualname)
            for ns, name in sites:
                self._patches.append((ns, name, fn))
                setattr(ns, name, wrapper)
        if self._tape_ok:
            record = tape_cls.record
            backward = tape_cls.backward
            self._patches.append((tape_cls, "record", record))
            self._patches.append((tape_cls, "backward", backward))
            tape_cls.record = self._wrap_record(record)
            tape_cls.backward = self._wrap(backward, BACKWARD, "Tape.backward")
        if self._paused_at is not None:
            gap = perf_counter() - self._paused_at
            for span in self._stack:
                span.gap += gap
            self._paused_at = None

    def uninstall(self):
        """Restore the originals. Spans still open (a ``train`` call that
        toggles tracing between steps) stop counting until reinstalled."""
        if not self._patches:
            return
        for ns, name, original in reversed(self._patches):
            setattr(ns, name, original)
        self._patches = []
        self._paused_at = perf_counter()

    def restart_forward(self):
        """Forget the forward-side time counted so far.

        Backward time, tape records and the label-only groups stay, and
        so do the training forward passes behind them. Forward passes
        and the forward-side groups count again from zero, so a run that
        trains in set-up and then serves requests reports forward-side
        layers for the requests alone.
        """
        for group in FORWARD_SIDE:
            for table in (self.time, self.self_time, self.calls, self.flops,
                          self.bytes):
                table.pop(group, None)
        self._dropped_train_forwards = self.calls[BACKWARD]

    def _wrap(self, fn, group, qualname):
        stack = self._stack
        cost = COSTS.get(group)

        def traced(*args, **kwargs):
            span = _Span(group)
            parent = stack[-1] if stack else None
            stack.append(span)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                dt = end - t0 - span.gap
                if self._paused_at is not None:
                    dt -= end - self._paused_at
                stack.pop()
                self.fn_calls[qualname] += 1
                self.self_time[group] += dt - span.child
                if parent is not None:
                    parent.child += dt
                if parent is None or parent.group != group:
                    self.time[group] += dt
                    self.calls[group] += 1
                if cost is not None:
                    flops, nbytes = cost(*args, **kwargs)
                    self.flops[group] += flops
                    self.bytes[group] += nbytes

        return traced

    def _wrap_record(self, record):
        stack = self._stack
        records = self.records
        bwd_time = self.bwd_time
        tracer = self

        def traced_record(tape, out, parents, backward_fn):
            group = stack[-1].group if stack else UNTAGGED
            records[group] += 1

            def timed_backward(g):
                t0 = perf_counter()
                backward_fn(g)
                dt = perf_counter() - t0
                bwd_time[group] += dt
                tracer.closure_time += dt

            record(tape, out, parents, timed_backward)

        return traced_record

    # ------------------------------------------------------------------
    # reporting

    def _has(self, group):
        return group not in self._missing_groups

    def metrics(self, overhead):
        """Per-layer metrics as name -> (value, unit), plus a side report.

        Times are milliseconds per sample: forward-side times per forward
        pass (per training forward for label-only groups), backward times
        and tape records per training sample, the optimizer per step,
        evaluation per scored sample, report/generate/checkpoint per call.
        """
        n_fwd = self.calls["head.forward"]
        n_train = self.calls[BACKWARD]
        n_infer = n_fwd - (n_train - self._dropped_train_forwards)
        steps = self.fn_calls["sarl.training.adamw_step"]
        per = {"fwd": n_fwd, "train": n_train, "infer": n_infer,
               "steps": steps}

        def ms(total, denom):
            return 1000.0 * total / per[denom] if per[denom] else 0.0

        def count(total, denom):
            return total / per[denom] if per[denom] else 0.0

        out = {}
        tape_ok = self._tape_ok
        if tape_ok:
            out["tensor.tape_records"] = (
                count(sum(self.records.values()), "train"), "count")
            out["tensor.backward_ms"] = (ms(self.time[BACKWARD], "train"), "ms")
            out["tensor.backward_self_ms"] = (
                ms(self.time[BACKWARD] - self.closure_time, "train"), "ms")
        for group in LAYERS:
            if not self._has(group) or not tape_ok:
                continue
            fwd_denom = "train" if group in TRAIN_ONLY else "fwd"
            out[f"{group}.fwd_ms"] = (ms(self.time[group], fwd_denom), "ms")
            out[f"{group}.bwd_ms"] = (ms(self.bwd_time[group], "train"), "ms")
            out[f"{group}.records"] = (count(self.records[group], "train"),
                                       "count")
            if group in COSTS:
                calls = self.calls[group]
                out[f"{group}.flops"] = (
                    self.flops[group] / calls if calls else 0.0, "flop")
                out[f"{group}.bytes_computed"] = (
                    self.bytes[group] / calls if calls else 0.0, "B")
        if self._has("head.forward"):
            out["head.forward.self_ms"] = (
                ms(self.self_time["head.forward"], "fwd"), "ms")
        group = "head.region_score_aggregate"
        if self._has(group) and tape_ok:
            out[f"{group}.fwd_ms"] = (ms(self.time[group], "fwd"), "ms")
            out[f"{group}.bwd_ms"] = (ms(self.bwd_time[group], "train"), "ms")
            out[f"{group}.records"] = (count(self.records[group], "train"),
                                       "count")
        if self._has("training.optimizer"):
            out["training.optimizer_ms"] = (
                ms(self.time["training.optimizer"], "steps"), "ms")
        if self._has("training.train"):
            out["training.loop_self_ms"] = (
                ms(self.self_time["training.train"], "train"), "ms")
        if self._has("training.evaluate"):
            out["training.evaluate.self_ms"] = (
                ms(self.self_time["training.evaluate"], "infer"), "ms")
        for group, name in PER_CALL.items():
            if self._has(group):
                calls = self.calls[group]
                out[name] = (1000.0 * self.time[group] / calls if calls else 0.0,
                             "ms")
        out["trace.overhead"] = (overhead, "ratio")

        per_sample_ms = {k: v for k, (v, unit) in out.items()
                         if unit == "ms" and k not in PER_CALL.values()}
        side = {
            "largest_per_sample_ms": max(per_sample_ms, key=per_sample_ms.get,
                                         default=None),
            "samples": per,
            "records_by_group": dict(sorted(self.records.items())),
            "untagged_records": self.records.get(UNTAGGED, 0),
            "missing": list(self.missing),
            "budget_share": self._budget_share(),
        }
        return out, side

    def _budget_share(self):
        """Exclusive split of traced time: each group's own forward time
        plus its backward closures, and the replay loop itself."""
        parts = defaultdict(float)
        for group, t in self.self_time.items():
            if group != BACKWARD:
                parts[group] += t
        for group, t in self.bwd_time.items():
            parts[group] += t
        parts["tensor.backward(self)"] = (self.self_time[BACKWARD]
                                          - self.closure_time)
        total = sum(parts.values())
        if total <= 0:
            return {}
        ranked = sorted(parts.items(), key=lambda kv: -kv[1])
        return {k: round(v / total, 4) for k, v in ranked}
