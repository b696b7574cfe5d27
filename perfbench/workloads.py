"""The benchmark's workloads: set-up, a timed closed loop, output checks.

Every workload is one caller in one process that waits for each result
(a closed loop), which is how the library is used: a training script
waits for each step, a scorer for each ``evaluate`` call.

- ``train-small``: ``TrainConfig`` defaults (8x8 images, 2x2 grid, 6
  classes). Tape dispatch dominates: 165 records per sample on 4x32
  arrays.
- ``train-large``: 64x64 images (16x16 grid, 256 patches), 20 classes,
  default widths and batch size. Same tape, but the P^2 self-attention
  and the P x C x d1 bilinear scores now cost real arithmetic.
- ``infer-small``: label-free scoring of a checkpoint at the default
  shape; each request is one ``training.evaluate`` call on a whole
  default-size test split (200 samples), as ``sarl eval`` scores the
  dataset it is given in one call. No tape, backward, optimizer, losses
  or label branch.

Library calls go through module attributes (``sarl.training.train``
and so on) so that the tracer's wrappers, when installed, see them.
Every untraced op is timed between two runs of the workload's
reference op (see ``reference.py``); traced ops are not.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

import sarl.data
import sarl.head
import sarl.metrics
import sarl.tensor
import sarl.training

EPOCH_CAP = 10 ** 6          # train() runs until the log callback stops it
REFERENCE_SEED = 0           # infer-small's deployed model and request pool
REQUEST_STREAM = 0x5E9       # separates request draws from data streams
HELD_OUT = 64                # infer set-up: samples train() evaluates at its end
F64_ROWS = 4
F64_TOL = 1e-5               # float32 vs float64 sigmoid scores, absolute


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                # "train" or "infer"
    reference: str           # reference op kind, see reference.py
    config: dict             # TrainConfig overrides
    epochs: int              # train: epochs before test_map; infer: set-up epochs
    tail_pct: float          # fixed per workload so runs stay comparable
    map_floor: float
    setup_repeats: int       # set-ups per run; setup_s takes their median
    requests: int = 0        # infer: distinct requests, sent round-robin
    request_size: int = 0
    min_requests: int = 0    # infer: sent even if --seconds pass first


WORKLOADS = {
    "train-small": Workload(
        "train-small", "train", "dispatch", {}, epochs=10, tail_pct=95.0,
        map_floor=0.70, setup_repeats=9),
    # 192 = 12 full batches; 500 test samples keep the near-chance mAP of
    # this short run from swinging with the test draw.
    "train-large": Workload(
        "train-large", "train", "arithmetic",
        {"image_size": 64, "num_classes": 20, "n_train": 192, "n_test": 500},
        epochs=3, tail_pct=75.0, map_floor=0.05, setup_repeats=11),
    # A request is what ``sarl eval`` sends: one evaluate() over a test
    # split of the default size. 100 requests leave 10 beyond p90.
    "infer-small": Workload(
        "infer-small", "infer", "dispatch", {"n_train": 256, "n_test": 1024},
        epochs=2, tail_pct=90.0, map_floor=0.25, setup_repeats=3, requests=4,
        request_size=sarl.training.TrainConfig().n_test, min_requests=100),
}

# Same code paths on a few samples, for the smoke check; no quality floor.
TINY = {
    "train-small": {"n_train": 40, "n_test": 24},
    "train-large": {"image_size": 16, "num_classes": 8, "n_train": 32,
                    "n_test": 24},
    "infer-small": {"n_train": 24, "n_test": 48},
}


def tiny(wl: Workload) -> Workload:
    return replace(wl, config={**wl.config, **TINY[wl.name]}, epochs=2,
                   map_floor=0.0, setup_repeats=min(wl.setup_repeats, 2),
                   requests=min(wl.requests, 4),
                   request_size=min(wl.request_size, 8),
                   min_requests=min(wl.min_requests, 4))


class Run:
    """Outcome of one workload run: timings, checks and failures."""

    def __init__(self, wl: Workload, reference):
        self.wl = wl
        self.reference = reference
        self.durations = []      # wall seconds per timed op
        self.refs = []           # reference op seconds beside it; None if traced
        self.samples = []        # samples per timed op
        self.failed = 0
        self.errors = []
        self.checks = {}
        self.setup_times = []    # raw wall seconds per set-up
        self.setup_calibrated = []
        self.test_map = math.nan

    def add_op(self, seconds, samples, ref):
        self.durations.append(seconds)
        self.samples.append(samples)
        self.refs.append(ref)

    def check(self, name, ok, detail=""):
        self.checks[name] = {"ok": bool(ok), "detail": detail}
        if not ok:
            self.errors.append(f"check {name} failed {detail}".strip())

    @property
    def attempted(self):
        return len(self.durations) + self.failed

    @property
    def correct(self):
        return self.failed == 0 and not self.errors and self.attempted > 0

    def end_to_end(self, import_s, import_raw):
        """Metrics over untraced ops as name -> (value, unit), plus detail.

        ``import_s`` and ``import_raw`` are the calibrated and raw import
        times that set-up starts with.
        """
        scale = self.reference.scale
        ops = [(d, r, n) for d, r, n in zip(self.durations, self.refs,
                                             self.samples) if r is not None]
        raw = np.array([d for d, _, _ in ops])
        cal = np.array([scale(d, r) for d, r, _ in ops])
        n = sum(k for _, _, k in ops)

        def summary(x, setup_s):
            if not x.size:
                return math.nan, math.nan, math.nan, setup_s
            return (n / x.sum(), 1000.0 * float(np.median(x)),
                    1000.0 * float(np.percentile(x, self.wl.tail_pct)), setup_s)

        rate, p50, tail, setup_s = summary(
            cal, import_s + statistics.median(self.setup_calibrated))
        metrics = {
            "samples_per_s": (rate, "1/s"),
            "op_ms_p50": (p50, "ms"),
            "op_ms_tail": (tail, "ms"),
            "test_map": (self.test_map, "mAP"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "setup_s": (setup_s, "s"),
        }
        raw_values = summary(raw, import_raw
                             + statistics.median(self.setup_times))
        detail = {
            "ops": int(cal.size),
            "tail_percentile": self.wl.tail_pct,
            "beyond_tail": int((1000.0 * cal > tail).sum()),
            "error_rate": self.failed / self.attempted if self.attempted else 1.0,
            "raw_wall": dict(zip(("samples_per_s", "op_ms_p50", "op_ms_tail",
                                  "setup_s"), raw_values)),
            "speed_vs_nominal": (float(np.median([self.reference.nominal / r
                                                  for _, r, _ in ops]))
                                 if ops else math.nan),
        }
        return metrics, detail

    def trace_overhead(self):
        """Median traced per-sample op time over the untraced one, minus 1."""
        on, off = [], []
        for d, r, n in zip(self.durations, self.refs, self.samples):
            (on if r is None else off).append(d / n)
        if not on or not off:
            return math.nan
        return statistics.median(on) / statistics.median(off) - 1.0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _set_up(run, fn, tracer):
    """Run the set-up ``setup_repeats`` times, keep the last result.

    Untraced, each set-up is timed in segments cut after every optimizer
    step (infer-small's set-up trains), each calibrated by the reference
    ops on either side of it, as the timed loop times its steps. The
    reference ops are left out of the set-up time. A set-up with no
    optimizer step is one segment between two five-op reference medians.
    """
    reference = run.reference
    clock = {}

    def cut(ref_after):
        dt = perf_counter() - clock["t0"]
        clock["raw"] += dt
        clock["cal"] += reference.scale(dt, (clock["ref"] + ref_after) / 2)
        clock["ref"] = ref_after
        clock["t0"] = perf_counter()

    real_step = sarl.training.adamw_step

    def cut_after_step(*args, **kwargs):
        out = real_step(*args, **kwargs)
        cut(reference.time())
        return out

    if not tracer:  # a traced set-up is not timed against the reference
        sarl.training.adamw_step = cut_after_step
    try:
        for _ in range(run.wl.setup_repeats):
            result = None  # each set-up starts with the last one's memory freed
            clock.update(raw=0.0, cal=0.0, ref=reference.median_time())
            clock["t0"] = perf_counter()
            result = fn()
            cut(reference.median_time())
            run.setup_times.append(clock["raw"])
            run.setup_calibrated.append(clock["cal"])
    finally:
        sarl.training.adamw_step = real_step
    return result


def _scores_ok(scores, shape):
    return (scores.shape == shape and np.isfinite(scores).all()
            and (scores >= 0).all() and (scores <= 1).all())


def _model_from(cfg, params):
    model = sarl.head.build_model(sarl.training.model_config(cfg),
                                  dtype=np.float32)
    for name, p in model.parameters().items():
        p.data = params[name].copy()
    return model


def _checkpoint_round_trip(run, model, workdir, label):
    path = os.path.join(workdir, f"{label}.ckpt")
    sarl.head.save_checkpoint(path, model)
    loaded = sarl.head.load_checkpoint(path)
    os.remove(path)
    same = all(np.array_equal(a.data, b.data) and a.data.dtype == b.data.dtype
               for a, b in zip(model.parameters().values(),
                               loaded.parameters().values()))
    run.check(f"{label}_checkpoint_params_bit_identical", same)
    return loaded


# ---------------------------------------------------------------------------
# training workloads

def run_train(wl: Workload, seed, seconds, tracer, reference, workdir) -> Run:
    run = Run(wl, reference)
    cfg = replace(sarl.training.TrainConfig(**wl.config), seed=seed)

    def set_up():
        data = sarl.data.generate(sarl.training.synthetic_config(cfg))
        sarl.head.build_model(sarl.training.model_config(cfg), seed=cfg.seed,
                              dtype=np.float32)
        return data

    if tracer:
        tracer.install()
    train_ds, test_ds = _set_up(run, set_up, tracer)
    if tracer:
        tracer.uninstall()

    n, batch = len(train_ds), cfg.batch_size
    epoch_sizes = [min(batch, n - lo) for lo in range(0, n, batch)]
    state = {"last": 0.0, "ref": 0.0, "step": 0, "params": None, "start": 0.0}
    epoch_loss = []
    snapshot = {}

    class Stop(Exception):
        pass

    real_step = sarl.training.adamw_step

    def clocked_step(params, *args, **kwargs):
        out = real_step(params, *args, **kwargs)
        seconds_taken = perf_counter() - state["last"]
        size = epoch_sizes[state["step"]]
        state["step"] += 1
        state["params"] = params
        if tracer and tracer.installed:  # traced and untraced steps alternate
            run.add_op(seconds_taken, size, None)
            tracer.uninstall()
            state["ref"] = reference.time()
        else:
            after = reference.time()
            run.add_op(seconds_taken, size, (state["ref"] + after) / 2)
            state["ref"] = after
            if tracer:
                tracer.install()
        state["last"] = perf_counter()
        return out

    def on_log(line):
        if not line.startswith("epoch"):
            return
        epoch = int(line.split()[1])
        epoch_loss.append(float(line.split()[3]))
        state["step"] = 0
        if epoch == wl.epochs:
            snapshot.update({k: p.data.copy()
                             for k, p in state["params"].items()})
        if epoch >= wl.epochs and perf_counter() - state["start"] >= seconds:
            raise Stop

    sarl.training.adamw_step = clocked_step
    try:
        state["ref"] = reference.time()
        if tracer:
            tracer.install()
        state["start"] = state["last"] = perf_counter()
        sarl.training.train(replace(cfg, epochs=EPOCH_CAP), train_ds, test_ds,
                            log=on_log)
    except Stop:
        pass
    except Exception as exc:  # a raising or non-finite step is a failed op
        run.failed += 1
        run.errors.append(f"step {len(run.durations) + 1}: "
                          f"{type(exc).__name__}: {exc}")
    finally:
        if tracer:
            tracer.uninstall()
        sarl.training.adamw_step = real_step

    if tracer:
        tracer.install()
    try:
        model = _train_checks(run, cfg, epoch_loss, snapshot, test_ds, workdir)
    finally:
        if tracer:
            tracer.uninstall()
    if model is not None:  # untraced: float64 calls would skew the costs
        _float64_check(run, model, test_ds)
    return run


def _train_checks(run, cfg, epoch_loss, snapshot, test_ds, workdir):
    """Checks on the losses and the trained model; returns the model."""
    wl = run.wl
    run.check("epochs_completed", len(epoch_loss) >= wl.epochs,
              f"{len(epoch_loss)} of {wl.epochs}")
    if len(epoch_loss) < wl.epochs or run.failed:
        return None
    run.check("loss_finite", all(math.isfinite(x) for x in epoch_loss))
    run.check("final_epoch_loss_below_first", epoch_loss[-1] < epoch_loss[0],
              f"{epoch_loss[0]:.6f} -> {epoch_loss[-1]:.6f}")
    model = _checkpoint_round_trip(run, _model_from(cfg, snapshot), workdir,
                                   "trained")
    report, preds = sarl.training.evaluate(model, test_ds)
    run.check("test_scores_finite_in_unit_interval",
              _scores_ok(preds.scores, test_ds.labels.shape))
    run.test_map = report.mean_ap
    run.check("test_map_at_or_above_floor", run.test_map >= wl.map_floor,
              f"{run.test_map:.4f} vs floor {wl.map_floor}")
    return model


# ---------------------------------------------------------------------------
# inference workload

def run_infer(wl: Workload, seed, seconds, tracer, reference, workdir) -> Run:
    run = Run(wl, reference)
    cfg = replace(sarl.training.TrainConfig(**wl.config), seed=REFERENCE_SEED,
                  epochs=wl.epochs)
    path = os.path.join(workdir, "deployed.ckpt")

    def set_up():
        train_ds, pool = sarl.data.generate(sarl.training.synthetic_config(cfg))
        held = sarl.data.Dataset(pool.payload[:HELD_OUT],
                                 pool.labels[:HELD_OUT])
        trained = sarl.training.train(cfg, train_ds, held).model
        sarl.head.save_checkpoint(path, trained)
        return trained, sarl.head.load_checkpoint(path), pool

    if tracer:
        tracer.install()
    trained, model, pool = _set_up(run, set_up, tracer)
    os.remove(path)

    # The workload seed decides which held-out samples arrive, and in
    # which requests; the deployed model is the same for every seed.
    size = wl.request_size
    picked = np.random.default_rng([seed, REQUEST_STREAM]).permutation(
        len(pool))[:wl.requests * size]
    chunks = [sarl.data.Dataset(pool.payload[picked[i:i + size]],
                                pool.labels[picked[i:i + size]])
              for i in range(0, len(picked), size)]
    everything = sarl.data.Dataset(pool.payload[picked], pool.labels[picked])
    _, in_memory = sarl.training.evaluate(trained, everything)
    if tracer:
        tracer.uninstall()
        # Set-up trained and scored; forward-side layers describe requests.
        tracer.restart_forward()
    _float64_check(run, model, everything)

    first = [None] * len(chunks)
    before = None
    start = perf_counter()
    i = 0
    while (i < max(len(chunks), wl.min_requests)
           or perf_counter() - start < seconds):
        j = i % len(chunks)
        i += 1
        traced = tracer is not None and i % 2 == 1  # every other request
        if traced:
            tracer.install()
            before = None
        else:
            if tracer:
                tracer.uninstall()
            if before is None:
                before = reference.time()
        t0 = perf_counter()
        try:
            report, preds = sarl.training.evaluate(model, chunks[j])
        except Exception as exc:  # a raising request is a failed op
            run.failed += 1
            run.errors.append(f"request {i}: {type(exc).__name__}: {exc}")
            continue
        dt = perf_counter() - t0
        if traced:
            ref = None
        else:
            after = reference.time()
            ref, before = (before + after) / 2, after
        ok = (_scores_ok(preds.scores, chunks[j].labels.shape)
              and math.isfinite(report.mean_ap)
              and (first[j] is None or np.array_equal(first[j], preds.scores)))
        if not ok:
            run.failed += 1
            run.errors.append(f"request {i}: output check failed")
            continue
        if first[j] is None:
            first[j] = preds.scores
        run.add_op(dt, len(chunks[j]), ref)
    if tracer:
        tracer.uninstall()

    if any(s is None for s in first):
        run.check("every_request_scored", False)
        return run
    scores = np.concatenate(first)
    run.check("reloaded_scores_bit_identical_to_in_memory",
              np.array_equal(scores, in_memory.scores))
    run.test_map = sarl.metrics.mean_ap(
        sarl.metrics.PredictionSet(scores, everything.labels))
    run.check("test_map_at_or_above_floor", run.test_map >= wl.map_floor,
              f"{run.test_map:.4f} vs floor {wl.map_floor}")
    return run


def _float64_check(run, model, ds):
    """A few rows scored by a float64 rebuild of the same weights."""
    twin = sarl.head.build_model(model.config, dtype=np.float64)
    for name, p in twin.parameters().items():
        p.data = model.parameters()[name].data.astype(np.float64)
    worst = 0.0
    for i in range(min(F64_ROWS, len(ds))):
        x = ds.payload[i]
        s32 = sarl.tensor.sigmoid(sarl.head.forward(x, model).logits).data
        s64 = sarl.tensor.sigmoid(
            sarl.head.forward(x.astype(np.float64), twin).logits).data
        worst = max(worst, float(np.abs(s32 - s64).max()))
    run.check("float64_rebuild_within_tolerance", worst <= F64_TOL,
              f"max |f32 - f64| {worst:.3g} vs {F64_TOL}")


RUNNERS = {"train": run_train, "infer": run_infer}
