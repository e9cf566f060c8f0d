"""The benchmark's three workloads, driven through tawq's public functions.

mlp-train   trainer.train on the ROADMAP baseline MLP, then the checkpoint
            write, reload/fold and eval forward that `tawq train` followed
            by `tawq infer` would do.
conv-train  the same cycle on a small spiking conv net (QuantConv2d path).
mlp-deploy  reload + fold a BN-calibrated MLP checkpoint, folded and
            unfolded inference over the same batches, compared batch by
            batch, and the `tawq report` analyses once per cycle.

A workload repeats its cycle (a "rep") until its time budget is spent.
Every rep redoes identical work, so its timings are samples of one
distribution and its outputs must equal the first rep's exactly.  Untraced
timings are scaled by the host's speed around each of them (HostSpeed).
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from contextlib import contextmanager, nullcontext

import numpy as np

from tawq import analysis, checkpoint, data, runconfig, runtime, trainer
from tawq.errors import TawqError

from tracer import MODULES

TIMESTEPS = 4
N_CLASSES, N_FEATURES, SIDE = 10, 784, 28
# Noise 1.0 keeps test accuracy below 1 after one epoch; at 0 the loss
# saturates to 0 and an arithmetic change would not show in it.
NOISE = 1.0
LR = 0.01
EVAL_BATCH = 256          # trainer.evaluate's batch, also used for deployment
# Set-up runs at least SETUP_REPS times and for at least SETUP_SECONDS, so
# that a cheap set-up's median comes from after its first, colder runs.
SETUP_REPS, SETUP_SECONDS = 5, 2.0
# Short operations are timed this many times per rep, so each run has
# enough samples for a steady median.
REPEATS = 3
CALIB_BATCH, CALIB_BATCHES = 128, 4
MEMBRANE_TOL = 1e-9
# The host's CPUs run in fast and slow phases lasting seconds to minutes,
# and a fixed loop's time varies up to 1.5x between them.  Every end-to-end
# time is therefore scaled by the speed of a fixed reference kernel timed
# around it (again once REF_STALE_S old), so a sample reads as the time it
# would take on a host that runs the kernel in REF_NOMINAL_S.
REF_NOMINAL_S = 0.006
REF_STALE_S = 0.5
REF_TRIES = 3

MLP = [
    {"kind": "linear", "in": N_FEATURES, "out": 512},
    {"kind": "bn", "channels": 512},
    {"kind": "lif"},
    {"kind": "qlinear", "in": 512, "out": 512},
    {"kind": "bn", "channels": 512},
    {"kind": "lif"},
    {"kind": "qlinear", "in": 512, "out": N_CLASSES},
]

CONV = [
    {"kind": "conv", "in": 1, "out": 16, "kernel": 3, "padding": 1},
    {"kind": "bn", "channels": 16},
    {"kind": "lif"},
    {"kind": "pool", "kernel": 2},
    {"kind": "qconv", "in": 16, "out": 32, "kernel": 3, "padding": 1},
    {"kind": "bn", "channels": 32},
    {"kind": "lif"},
    {"kind": "pool", "kernel": 2},
    {"kind": "flatten"},
    {"kind": "qlinear", "in": 32 * 7 * 7, "out": N_CLASSES},
]

# name -> (network, training batch, samples at full size, samples at smoke size)
WORKLOADS = {
    "mlp-train": (MLP, 128, 640, 160),
    "conv-train": (CONV, 32, 320, 40),
    "mlp-deploy": (MLP, CALIB_BATCH, 1024, 256),
}

QUANT_KINDS = ("qlinear", "qconv")
LAYER_CLASSES = ("Linear", "QuantLinear", "Conv2d", "QuantConv2d", "BatchNorm",
                 "LIF", "AvgPool2d")
N_LIF = 2
E2E_TIMINGS = ("setup_s", "samples_per_s", "eval_samples_per_s", "ready_s",
               "ckpt_write_s")


def run_document(network: list, batch_size: int, n_samples: int, seed: int) -> dict:
    return {
        "network": network,
        "quant": {"timesteps": TIMESTEPS},
        "train": {"lr": LR, "optimizer": "adamw", "epochs": 1,
                  "batch_size": batch_size, "seed": seed},
        "dataset": {"kind": "synthetic-rate-patterns", "n_samples": n_samples,
                    "timesteps": TIMESTEPS, "noise": NOISE, "seed": seed,
                    "n_classes": N_CLASSES, "n_features": N_FEATURES},
    }


class HostSpeed:
    """Slowness of the host against the nominal one: the time of a
    reference kernel that does not use tawq (a BLAS product, elementwise
    passes and a Python loop, as in the workloads) over REF_NOMINAL_S,
    best of REF_TRIES.  Disabled, it scales nothing."""

    def __init__(self, enabled: bool) -> None:
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((384, N_FEATURES))
        self.w = rng.standard_normal((N_FEATURES, 512))
        self.enabled, self.at, self.spent = enabled, -np.inf, 0.0
        self.factors: list[float] = []
        for _ in range(REF_TRIES):
            self._kernel()

    def _kernel(self) -> float:
        y = self.a @ self.w
        y = np.maximum(y, 0.0) * 0.5 + y
        return sum(float(row[:8].sum()) for row in y)

    def refresh(self) -> None:
        """Re-measure the factor if it is older than REF_STALE_S."""
        if self.enabled and time.perf_counter() - self.at >= REF_STALE_S:
            start, best = time.perf_counter(), np.inf
            for _ in range(REF_TRIES):
                t0 = time.perf_counter()
                self._kernel()
                best = min(best, time.perf_counter() - t0)
            self.at = time.perf_counter()
            self.spent += self.at - start
            self.factors.append(best / REF_NOMINAL_S)

    def timed(self, fn, *args):
        """fn(*args) and its time scaled to the nominal host, by the median
        of the two factors measured last before it and those measured
        during and just after it, so that one slow kernel run does not skew
        it.  Time spent measuring during the call is not counted."""
        self.refresh()
        first = max(0, len(self.factors) - 2)
        spent, t0 = self.spent, time.perf_counter()
        out = fn(*args)
        seconds = time.perf_counter() - t0 - (self.spent - spent)
        self.refresh()
        return out, seconds / statistics.median(self.factors[first:] or [1.0])

    @contextmanager
    def after_each(self, module, name: str):
        """Re-measure, when stale, after each call of module.name as well,
        so that a long operation is scaled by factors from during it."""
        if not self.enabled:
            yield
            return
        original = getattr(module, name)

        def hooked(*args, **kwargs):
            out = original(*args, **kwargs)
            self.refresh()
            return out

        setattr(module, name, hooked)
        try:
            yield
        finally:
            setattr(module, name, original)


def _batches(x: np.ndarray, size: int) -> list[np.ndarray]:
    return [x[:, start:start + size] for start in range(0, x.shape[1], size)]


def _eval_forward(net, x: np.ndarray) -> np.ndarray:
    return np.concatenate([net.forward(xb, training=False)
                           for xb in _batches(x, EVAL_BATCH)])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def folded_blocks(plan: list, layers: list) -> list[tuple[int, int]]:
    """(first layer, LIF layer) index pairs of the layers each folded block
    replaced; a plan item that is not one of `layers` is a folded block."""
    out, i = [], 0
    for item in plan:
        if item is layers[i]:
            i += 1
            continue
        start = i
        while layers[i].kind != "lif":
            i += 1
        out.append((start, i))
        i += 1
    return out


def check_folded_batch(folded: tuple, logits: np.ndarray, net,
                       blocks: list) -> str | None:
    """Compare one folded batch with the unfolded forward just run on `net`;
    returns why it fails, or None."""
    logits_f, membranes = folded
    if not np.array_equal(logits_f.argmax(axis=1), logits.argmax(axis=1)):
        return "folded argmax differs from the unfolded forward"
    for (_, lif), trace in zip(blocks, membranes):
        dev = float(np.max(np.abs(trace - net.layers[lif].cache["u"])))
        if not dev <= MEMBRANE_TOL:
            return f"membrane of layer {lif} deviates by {dev:.3g}"
    return None


class Workload:
    """One run of one workload: set-ups, timed reps, gates and metrics."""

    def __init__(self, name: str, seed: int, seconds: float, workdir: str,
                 tracer=None, smoke: bool = False) -> None:
        network, batch, n_full, n_smoke = WORKLOADS[name]
        self.seconds, self.tracer = seconds, tracer
        self.deploy = name == "mlp-deploy"
        self.image = network is CONV
        self.cfg = runconfig.parse_runconfig(
            run_document(network, batch, n_smoke if smoke else n_full, seed))
        self.ckpt_path = os.path.join(workdir, "run.ckpt")
        self.rewrite_path = os.path.join(workdir, "rewrite.ckpt")
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {k: [] for k in E2E_TIMINGS}
        self.speed = HostSpeed(enabled=tracer is None)
        self.rep_wall: dict[bool, list[float]] = {False: [], True: []}
        self.references: dict = {}
        self.extra: dict[str, float] = {}
        self.tracing = False

    # ---- bookkeeping -------------------------------------------------
    def _try(self, fn, *args):
        """Time one call: (result, seconds, None), or (None, None, reason)
        when it raises a tawq error or a numpy ValueError."""
        try:
            out, seconds = self.speed.timed(fn, *args)
        except (TawqError, ValueError) as exc:
            return None, None, f"{type(exc).__name__}: {exc}"
        return out, seconds, None

    def _sample(self, key: str, seconds: float, n: int | None = None) -> None:
        """Record a time, or n items over that time."""
        self.samples[key].append(seconds if n is None else n / seconds)

    def _record(self, what: str, failure: str | None) -> bool:
        """Count one attempted operation; `failure` says why it failed."""
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            self.failures.append(f"{what}: {failure}")
        return failure is None

    def _repeat(self, key, value) -> str | None:
        """Reps do identical work, so their outputs must be identical."""
        ref = self.references.setdefault(key, value)
        if ref is value or np.array_equal(ref, value):
            return None
        return f"output differs from the first rep's ({value} vs {ref})"

    def _phase(self, name: str):
        return self.tracer.span(f"bench.{name}") if self.tracing else nullcontext()

    # ---- set-up ------------------------------------------------------
    def _images(self, x: np.ndarray) -> np.ndarray:
        # No dataset kind yields image tensors; reshape the 784-feature rasters.
        return x.reshape(x.shape[0], x.shape[1], 1, SIDE, SIDE) if self.image else x

    def _write_checkpoint(self, net, summary: dict, path: str | None = None) -> None:
        ckpt = checkpoint.checkpoint_from_network(net, self.cfg, summary)
        checkpoint.save_checkpoint(path or self.ckpt_path, ckpt)

    def _setup_once(self) -> None:
        ds = data.build_dataset(self.cfg.dataset)
        self.train_set = (self._images(ds.train_x), ds.train_y)
        self.test_set = (self._images(ds.test_x), ds.test_y)
        net = runconfig.build_network(self.cfg)
        if not self.deploy:
            return
        # BN running statistics from training-mode forwards; no optimizer step.
        self.deploy_x = np.concatenate([ds.train_x, ds.test_x], axis=1)
        for xb in _batches(self.deploy_x, CALIB_BATCH)[:CALIB_BATCHES]:
            net.forward(xb, training=True)
        self._write_checkpoint(net, {})
        with open(self.ckpt_path, "rb") as fh:
            self.fixture = fh.read()
        self.extra["checkpoint.bytes"] = len(self.fixture)

    def setup(self) -> None:
        t_end = time.perf_counter() + SETUP_SECONDS
        while len(self.samples["setup_s"]) < SETUP_REPS or time.perf_counter() < t_end:
            # Free the last set-up's arrays first, so that every set-up
            # starts from the same heap.
            self.train_set = self.test_set = self.deploy_x = None
            with self._phase("setup"):
                _, seconds = self.speed.timed(self._setup_once)
            self._sample("setup_s", seconds)

    # ---- reps --------------------------------------------------------
    def _ready(self):
        """Cold start of `tawq infer`: load, rebuild and verify, fold."""
        ckpt = checkpoint.load_checkpoint(self.ckpt_path)
        net, _ = checkpoint.network_from_checkpoint(ckpt)
        return net, runtime.fold_network(net)

    def _ready_op(self):
        with self._phase("ready"):
            out, dt, err = self._try(self._ready)
        if not self._record("load/rebuild/fold", err):
            return None
        self._sample("ready_s", dt)
        net, plan = out
        blocks = folded_blocks(plan, net.layers)
        n_quant = sum(layer.kind in QUANT_KINDS for layer in net.layers)
        self.extra["runtime.fold_coverage"] = len(blocks) / n_quant
        return net, plan, blocks

    def _train_rep(self) -> None:
        net = runconfig.build_network(self.cfg)
        with self._phase("train"), self.speed.after_each(trainer, "clip_and_step"):
            summary, dt, err = self._try(trainer.train, net, self.train_set,
                                         self.test_set, self.cfg.train)
        if err is None:
            result = (summary["final_test_loss"], summary["final_test_accuracy"])
            err = (f"non-finite summary {result}" if not np.all(np.isfinite(result))
                   else self._repeat("summary", result))
        if not self._record("train", err):
            return
        n = self.train_set[0].shape[1] * self.cfg.train.epochs
        self._sample("samples_per_s", dt, n)
        self.extra["trainer.final_test_loss"] = result[0]
        self.extra["trainer.final_test_accuracy"] = result[1]

        meta = {"final_test_loss": result[0], "final_test_accuracy": result[1],
                "final_entropy_mean": summary["final_entropy_mean"],
                "ablate_temporal": False}
        reloaded = None
        for _ in range(REPEATS):
            with self._phase("ckpt_write"):
                _, dt, err = self._try(self._write_checkpoint, net, meta)
            if not self._record("checkpoint write", err):
                return
            self._sample("ckpt_write_s", dt)
            self.extra["checkpoint.bytes"] = os.path.getsize(self.ckpt_path)
            reloaded = self._ready_op()
            if reloaded is None:
                return
        reloaded = reloaded[0]
        # The trained network's logits are the reference; the timed passes
        # run the reloaded one, as `tawq infer --unfolded` would.
        x = self.test_set[0]
        with self._phase("eval"):
            ref, _, err = self._try(_eval_forward, net, x)
        # Layers keep their last forward's activations; drop the trained
        # network's so that only one network's are held at a time.
        del net
        if not self._record("reference eval forward", err):
            return
        for _ in range(REPEATS):
            with self._phase("eval"):
                logits, dt, err = self._try(_eval_forward, reloaded, x)
            if err is None:
                self._sample("eval_samples_per_s", dt, x.shape[1])
                if not np.array_equal(ref, logits):
                    err = "reloaded network's logits differ from the trained network's"
            self._record("eval forward", err)
        if self.tracing:
            firing = self.tracer.originals["analysis.firing_rate_stats"]
            self._note_firing(firing(reloaded.traces()).rates)

    def _rewrite_op(self, net) -> bool:
        """Write the reloaded network again: the bytes must be the loaded
        checkpoint's."""
        with self._phase("ckpt_write"):
            _, dt, err = self._try(self._write_checkpoint, net, {}, self.rewrite_path)
        if err is None:
            self._sample("ckpt_write_s", dt)
            with open(self.rewrite_path, "rb") as fh:
                if fh.read() != self.fixture:
                    err = "rewritten checkpoint differs from the one loaded"
        return self._record("checkpoint rewrite", err)

    def _deploy_rep(self) -> None:
        for _ in range(REPEATS):
            ready = self._ready_op()
            if ready is None or not self._rewrite_op(ready[0]):
                return
        net, plan, blocks = ready
        batches = _batches(self.deploy_x, EVAL_BATCH)
        folded = []
        with self._phase("folded"):
            for xb in batches:
                out, dt, err = self._try(runtime.folded_forward, plan, xb, True)
                if err is None:
                    self._sample("samples_per_s", dt, xb.shape[1])
                folded.append((out, err))
        for j, (xb, (f, err)) in enumerate(zip(batches, folded)):
            with self._phase("eval"):
                logits, dt, err_u = self._try(net.forward, xb, False)
            if err_u is None:
                self._sample("eval_samples_per_s", dt, xb.shape[1])
            err = err or (f"unfolded forward: {err_u}" if err_u else None)
            if err is None:
                err = (check_folded_batch(f, logits, net, blocks)
                       or self._repeat(("batch", j), f[0].argmax(axis=1)))
            self._record(f"folded batch {j}", err)
            if self.tracing and err_u is None:
                self._count_accumulates(net, blocks)
        with self._phase("report"):
            _, _, err = self._try(self._report, net.traces())
        self._record("report", err)

    def _count_accumulates(self, net, blocks: list) -> None:
        """Spike x nonzero-weight accumulates against dense accumulates,
        computed from each folded layer's input raster and w_q."""
        for first, _ in blocks:
            layer = net.layers[first]
            x, w_q = layer.cache["x"], layer.state.w_q
            useful = sum(float(x[t].sum(axis=0) @ (w_q[t] != 0).sum(axis=0))
                         for t in range(x.shape[0]))
            self.tracer.count("ac.useful", useful)
            self.tracer.count("ac.dense", float(x.shape[0] * x.shape[1] * w_q[0].size))

    def _note_firing(self, rates: list) -> None:
        for k, r in enumerate(rates[:N_LIF]):
            self.extra[f"analysis.firing_rate.lif{k}"] = float(np.mean(r))

    def _report(self, traces: list) -> None:
        """The analyses `tawq report` runs, with its hardware descriptors."""
        ent = analysis.entropy_report(traces)
        energy = analysis.energy_total(analysis.count_sops(traces))
        hw_layers = []
        for i, t in enumerate(traces):
            if t["kind"] not in ("linear", "qlinear"):
                continue
            quantized = "w_q" in t
            n_rd = (int(np.prod(t["w_q"].shape[1:])) if quantized
                    else t["output"].shape[2] * t["input"].shape[2])
            hw_layers.append(analysis.HardwareLayer(
                name=f"{i}.{t['kind']}", n_rd=n_rd, weight_bits=2 if quantized else 8,
                act_bits=1 if quantized or i else 8))
        hw = analysis.energy_hardware(hw_layers, TIMESTEPS)
        firing = analysis.firing_rate_stats(traces)
        values = (ent.mean_entropy, energy.e_total_pj, hw.total, firing.mean_rate)
        if not np.all(np.isfinite(values)):
            raise ValueError(f"non-finite report values {values}")
        if self.tracing:
            self._note_firing(firing.rates)

    # ---- run loop ----------------------------------------------------
    def _traced(self, on: bool) -> None:
        if on:
            self.tracer.install()
        else:
            self.tracer.uninstall()
        self.tracing = on

    def run(self) -> None:
        """Set up, then repeat reps until `seconds` have passed.  With a
        tracer the set-ups are traced (rep -1); after one untraced warm-up
        rep, reps alternate traced and untraced, at least one of each, to
        measure the tracing overhead."""
        rep_fn = self._deploy_rep if self.deploy else self._train_rep
        if self.tracer is not None:
            self.tracer.rep = -1
            self._traced(True)
        try:
            self.setup()
        finally:
            if self.tracer is not None:
                self._traced(False)
        t_end = time.perf_counter() + self.seconds
        k = 0
        while True:
            warmup = k == 0 and self.tracer is not None
            traced = self.tracer is not None and k % 2 == 1
            if traced:
                self.tracer.rep = k
                self._traced(True)
            t0 = time.perf_counter()
            try:
                rep_fn()
            finally:
                if not warmup:
                    self.rep_wall[traced].append(time.perf_counter() - t0)
                if traced:
                    self._traced(False)
            k += 1
            if time.perf_counter() >= t_end and (self.tracer is None or k >= 3):
                break

    # ---- metrics -----------------------------------------------------
    def end_to_end(self) -> dict[str, float]:
        """Medians of the timing samples, as metrics; 0.0 for a metric none
        of whose operations succeeded (the run then reports failures)."""
        m = {k: statistics.median(v) if v else 0.0 for k, v in self.samples.items()}
        m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return m

    def per_layer(self) -> dict[str, float]:
        """Per-layer metrics of the traced set-ups and reps: self time and
        calls of one set-up plus one rep, wasted-work ratios, module shares
        and the tracing overhead."""
        tr = self.tracer
        n_setup, n_rep = len(self.samples["setup_s"]), len(self.rep_wall[True])
        table = tr.self_times()

        def per(name: str, k: int) -> float:
            e = table.get(name, (0.0, 0, 0.0, 0))
            return e[k] / n_setup + e[k + 2] / n_rep

        def s(*names: str) -> float:
            return sum(per(n, 0) for n in names)

        def calls(name: str) -> float:
            return per(name, 1)

        def counter(name: str) -> float:
            return tr.counters.get((True, name), 0)

        m = {}
        for cls in LAYER_CLASSES:
            for meth in ("forward", "backward"):
                m[f"layers.{cls}.{meth}.s"] = s(f"layers.{cls}.{meth}")
        m["layers.materialize.calls"] = counter("materialize.calls") / n_rep
        m["layers.materialize.useful_ratio"] = _ratio(
            counter("materialize.changed"), counter("materialize.calls"))
        for fn in ("tawq_forward", "tawq_backward"):
            m[f"quantizer.{fn}.s"] = s(f"quantizer.{fn}")
            m[f"quantizer.{fn}.calls"] = calls(f"quantizer.{fn}")
        m["quantizer.normalize.s"] = s("quantizer.normalize_stimulus",
                                       "quantizer.normalize_backward")
        m["quantizer.compute_scaling_all.s"] = s("quantizer.compute_scaling_all")
        for fn in ("clip_and_step", "collect_gradients", "softmax_cross_entropy",
                   "evaluate"):
            m[f"trainer.{fn}.s"] = s(f"trainer.{fn}")
        m["trainer.steps"] = calls("trainer.clip_and_step")
        for key in ("trainer.final_test_loss", "trainer.final_test_accuracy",
                    "analysis.firing_rate.lif0", "analysis.firing_rate.lif1",
                    "runtime.fold_coverage", "checkpoint.bytes"):
            m[key] = float(self.extra.get(key, 0.0))
        m["runtime.ac_only_matmul.s"] = s("runtime.ac_only_matmul")
        m["runtime.ac_only_matmul.calls"] = calls("runtime.ac_only_matmul")
        m["runtime.unpack_per_batch"] = _ratio(
            tr.calls_under("runtime.unpack_ternary", "runtime.folded_forward"),
            table.get("runtime.folded_forward", (0, 0, 0, 0))[3])
        m["runtime.ac_useful_ratio"] = _ratio(counter("ac.useful"), counter("ac.dense"))
        for fn in ("folded_forward", "fold_network", "pack_ternary", "unpack_ternary"):
            m[f"runtime.{fn}.s"] = s(f"runtime.{fn}")
        m["checkpoint.load.s"] = s("checkpoint.load_checkpoint")
        m["checkpoint.rebuild.s"] = s("checkpoint.network_from_checkpoint")
        m["checkpoint.snapshot.s"] = s("checkpoint.checkpoint_from_network")
        m["checkpoint.save.s"] = s("checkpoint.save_checkpoint")
        m["data.gen.s"] = s("data.build_dataset", "data.gen_rate_patterns")
        m["runconfig.build_network.s"] = s("runconfig.build_network")
        m["analysis.report.s"] = tr.duration("bench.report") / n_rep

        wall = (statistics.fmean(self.samples["setup_s"])
                + statistics.fmean(self.rep_wall[True]))
        for module in MODULES:
            m[f"{module}.share"] = sum(
                per(name, 0) for name in table
                if name.split(".")[0] == module) / wall
        traced = statistics.median(self.rep_wall[True])
        untraced = statistics.median(self.rep_wall[False])
        m["trace.overhead_s"] = traced - untraced
        m["trace.overhead_ratio"] = (traced - untraced) / untraced
        return m
