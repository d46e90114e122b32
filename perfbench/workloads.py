"""The benchmark's workloads, driven through graphspring's public API.

`run_workload` builds one workload's graph text from the seed, times its set-up
several times, then repeats the workload's operation until the measuring
time is used up, checking every operation's output outside the timed
interval.  Untraced runs repeat the set-up between operations too, so its
median samples the whole run, not just its first seconds, and time the
calibration kernel after every batch of set-ups, so that each timed interval
can be scaled to a common host speed (see calibrate.py).  With tracing on,
operations alternate between untraced and traced, so the same run yields
the per-layer spans and the cost of recording them.
README.md beside this file says why each workload exists.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy
from scipy.special import expit

from graphspring import forcefield, forces, graphs, metrics, rng, training
from graphspring.simulate import SimConfig

import calibrate
import spantrace
from graphgen import GraphSpec, rating_csv

# the package re-exports the function `simulate` under the submodule's name
simulation = importlib.import_module("graphspring.simulate")

P_HIDDEN = 0.2
VAL_FRACTION = 0.1
SETUP_REPS = 5          # set-ups before the first operation
SETUP_REPS_BETWEEN = 2  # set-ups between operations in untraced runs; setup_s is
                        # the median of all of them
EMBED_SEEDS = 5         # embed ops cycle through this many seeds
MIN_OPS = 3             # timed ops per run at least, so the median can drop an outlier
CALIBRATION_PASSES = {"train": 5, "embed": 1}  # kernel passes per calibration point
LOSS = training.LossConfig()
clock = time.perf_counter


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str           # "train": one op is one epoch; "embed": one transfer eval
    graph: GraphSpec
    model: str
    k: int
    n_steps: int = 120
    semi_implicit: bool = False
    fd_steps: int = 10  # horizon of the once-per-run gradient check


WORKLOADS = {w.name: w for w in (
    Workload("train-otc-nn64", "train", GraphSpec(5881, 21492, 0.87), "spring-nn", 64),
    Workload("embed-alpha-nn64", "embed", GraphSpec(3783, 14124, 0.90), "spring-nn", 64),
    Workload("train-dense-spring8-semi", "train", GraphSpec(10000, 100000, 0.87),
             "spring", 8, semi_implicit=True),
)}

END_TO_END = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "graphs.load_edge_list.ms": "ms",
    "graphs.to_undirected.ms": "ms",
    "graphs.compute_node_statics.ms": "ms",
    "graphs.hide_signs.ms": "ms",
    "forcefield.prepare.ms": "ms",
    "forcefield.force_field.calls": "count",
    "forcefield.force_field.ms": "ms",
    "forcefield.force_field.self_ms": "ms",
    "forcefield.force_field_vjp.calls": "count",
    "forcefield.force_field_vjp.ms": "ms",
    "forcefield.force_field_vjp.self_ms": "ms",
    "forcefield.vjp_over_fwd": "ratio",
    "forces.force_batch.ms": "ms",
    "forces.force_batch.rows": "count",
    "forces.force_batch_vjp.ms": "ms",
    "forces.force_batch_vjp.rows": "count",
    "forces.gain_batch.ms": "ms",
    "forces.gain_batch_vjp.ms": "ms",
    "simulate.simulate.ms": "ms",
    "simulate.simulate.self_ms": "ms",
    "training.loss_and_grad.ms": "ms",
    "training.fwd_self_ms": "ms",
    "training.bwd_self_ms": "ms",
    "training.loss_with_grad.ms": "ms",
    "training.train.self_ms": "ms",
    "training.tape_bytes": "bytes",
    "training.peak_traced_mb": "MB",
    "metrics.evaluate.ms": "ms",
    "trace.uncovered_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def span_targets() -> dict:
    """Span name -> (places it is bound, index of the argument counted as rows)."""
    def at(*places):
        return [(importlib.import_module(f"graphspring.{p.rsplit('.', 1)[0]}"),
                 p.rsplit(".", 1)[1]) for p in places]
    return {
        "graphs.load_edge_list": (at("graphs.load_edge_list"), None),
        "graphs.to_undirected": (at("graphs.to_undirected"), None),
        "graphs.hide_signs": (at("graphs.hide_signs"), None),
        "graphs.compute_node_statics": (at("graphs.compute_node_statics",
                                           "training.compute_node_statics"), None),
        "forces.init_params": (at("forces.init_params", "training.init_params"), None),
        "forcefield.prepare": (at("forcefield.prepare", "simulate.prepare",
                                  "training.prepare"), None),
        "forcefield.force_field": (at("simulate.force_field", "training.force_field"), None),
        "forcefield.force_field_vjp": (at("training.force_field_vjp"), None),
        "forces.force_batch": (at("forcefield.force_batch"), 2),
        "forces.force_batch_vjp": (at("forcefield.force_batch_vjp"), 2),
        "forces.gain_batch": (at("forcefield.gain_batch"), None),
        "forces.gain_batch_vjp": (at("forcefield.gain_batch_vjp"), None),
        "simulate.init_state": (at("simulate.init_state", "training.init_state"), None),
        "simulate.simulate": (at("simulate.simulate"), None),
        "training.train": (at("training.train"), None),
        "training.loss_and_grad": (at("training.loss_and_grad"), None),
        "training.loss_with_grad": (at("training.loss_with_grad"), None),
        "metrics.evaluate": (at("metrics.evaluate"), None),
    }


@dataclass
class Op:
    start: float
    end: float
    traced: bool
    ok: bool

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Run:
    """What one workload run measured and checked."""

    workload: Workload
    seed: int
    trace: bool
    tracer: spantrace.Tracer | None
    kernel: calibrate.Kernel | None   # the calibration kernel; None in traced runs
    lines: list[str] = field(default_factory=list)   # the human-readable report
    setups: list[tuple[float, float]] = field(default_factory=list)
    ops: list[Op] = field(default_factory=list)
    checks: dict[str, bool] = field(default_factory=dict)  # once-per-run checks
    # calibration points: start, end, median kernel pass in seconds
    marks: list[tuple[float, float, float]] = field(default_factory=list)
    facts: dict = field(default_factory=dict)

    def say(self, text: str) -> None:
        self.lines.append(text)

    def set_tracing(self, on: bool, op_id: str) -> None:
        if self.tracer is not None:
            self.tracer.op = op_id
            (self.tracer.install if on else self.tracer.uninstall)()

    def done(self, measure_start: float, seconds: float) -> bool:
        if len(self.ops) < MIN_OPS or clock() - measure_start < seconds:
            return False
        if self.trace:
            return any(o.traced for o in self.ops) and any(not o.traced for o in self.ops)
        return True


def _calibrate(run: Run) -> None:
    if run.kernel is None:
        return
    started = clock()
    passes = [run.kernel.seconds() for _ in range(CALIBRATION_PASSES[run.workload.kind])]
    run.marks.append((started, clock(), statistics.median(passes)))


def _at_nominal_speed(run: Run, start: float, end: float) -> float:
    """The interval's length scaled by NOMINAL_S over the mean kernel time of the
    calibration points just before and just after it."""
    before = [m[2] for m in run.marks if m[1] <= start][-1:]
    after = [m[2] for m in run.marks if m[0] >= end][:1]
    return (end - start) * calibrate.NOMINAL_S / statistics.mean(before + after)


def _fail(run: Run, what: str) -> None:
    run.say(f"FAILED {what}")
    traceback.print_exc(file=sys.stderr)


def _graph_line(label: str, graph, hidden_share: float) -> str:
    deg = graph.degrees
    return (f"graph {label}: n={graph.n_nodes} m={graph.n_edges} "
            f"p80={graphs.nearest_rank_percentile(deg, 0.8):g} max_deg={int(deg.max())} "
            f"pos={float((graph.true_sign == 1).mean()):.4f} hidden={hidden_share:.4f}")


# --- set-up ---------------------------------------------------------------------

def _ingest(text: str):
    # iterating a StringIO yields lines, as iterating the file `ingest` opens does
    return graphs.to_undirected(graphs.load_edge_list(io.StringIO(text), "rating_csv"))


def _train_config(w: Workload, seed: int) -> training.TrainConfig:
    sim = SimConfig(k=w.k, n_steps=w.n_steps, semi_implicit=w.semi_implicit)
    return training.TrainConfig(epochs=10 ** 6, sim=sim, loss=LOSS, model_kind=w.model,
                                seed=seed, val_fraction=VAL_FRACTION)


def _setup_train(w: Workload, text: str, seed: int) -> tuple[float, dict]:
    """Ingest, hide signs, then train()'s own preamble: the validation re-hide,
    statics, prepare and init_params.  The preamble ends where the first epoch
    starts, which is the first epoch callback less that epoch's wall time; a
    one-step epoch keeps the part thrown away small."""
    cfg = _train_config(w, seed)
    first_epoch = []
    hidden_graph, _ = graphs.hide_signs(_ingest(text), graphs.SplitSpec(P_HIDDEN, seed))
    training.train(hidden_graph, None,
                   replace(cfg, epochs=1, sim=replace(cfg.sim, n_steps=1)),
                   on_epoch=lambda _, stats: first_epoch.append(
                       clock() - stats.wall_ms / 1e3))
    return first_epoch[0], dict(hidden_graph=hidden_graph)


def _setup_embed(w: Workload, text: str, seed: int) -> tuple[float, dict]:
    prepared = dict(graph=_ingest(text), params=forces.init_params(w.model, seed))
    return clock(), prepared


def _set_up(run: Run, text: str, reps: int) -> dict:
    setup = _setup_train if run.workload.kind == "train" else _setup_embed
    for _ in range(reps):
        run.set_tracing(run.trace, f"setup-{len(run.setups) + 1}")
        started = clock()
        ended, prepared = setup(run.workload, text, run.seed)
        run.setups.append((started, ended))
    run.set_tracing(False, "")
    _calibrate(run)
    return prepared


def _training_view(hidden_graph, seed: int) -> dict:
    """The training view train() builds internally, rebuilt for the checks."""
    val = training._stratified_validation(hidden_graph, VAL_FRACTION, seed)
    observed = hidden_graph.observed_sign.copy()
    observed[val] = 0
    train_graph = hidden_graph.with_observed(observed)
    statics = graphs.compute_node_statics(train_graph)
    return dict(train_graph=train_graph, statics=statics,
                ctx=forcefield.prepare(train_graph, statics))


# --- train workloads ------------------------------------------------------------

class _Deadline(Exception):
    """Raised from the epoch callback to end training when measuring is done."""


def _epoch_seed(seed: int, epoch: int) -> int:
    # train() draws each epoch's initial positions from this seed
    return rng.derive_seed(seed, training.EPOCH_INIT_TAG, epoch - 1)


def _loss_by_simulation(view: dict, params, sim: SimConfig):
    state0 = simulation.init_state(view["train_graph"].n_nodes, sim)
    final = simulation.simulate(state0, view["train_graph"], view["statics"], params, sim,
                                ctx=view["ctx"])
    return training.loss(view["train_graph"], final.X, LOSS), final


def _finite(*arrays) -> bool:
    return all(np.isfinite(a).all() for a in arrays)


def _train_ops(run: Run, p: dict, text: str, seconds: float) -> None:
    w, seed = run.workload, run.seed
    cfg = _train_config(w, seed)
    params_in = None
    op_start = measure_start = clock()
    traced = False

    def on_epoch(ckpt, stats):
        nonlocal params_in, op_start, measure_start, traced
        ended = clock()
        run.set_tracing(False, "check")
        if stats.epoch == 1:   # the first epoch warms up and is not an operation
            run.facts["warmup_s"] = ended - op_start
            run.facts["preamble_s"] = ended - stats.wall_ms / 1e3 - called
        else:
            ok = False
            try:
                ref, final = _loss_by_simulation(
                    _training_view(p["hidden_graph"], seed), params_in,
                    replace(cfg.sim, seed=_epoch_seed(seed, stats.epoch)))
                ok = (_finite([stats.loss, ref], ckpt.params.flatten(), ckpt.adam.m,
                              ckpt.adam.v, final.X, final.V)
                      and abs(ref - stats.loss) <= 1e-9 * max(1.0, abs(ref)))
            except Exception:
                _fail(run, f"check of epoch {stats.epoch}")
            if not ok:
                run.say(f"FAILED epoch {stats.epoch}: loss {stats.loss!r} is not finite "
                        f"or differs from simulate + loss")
            run.ops.append(Op(op_start, ended, traced, ok))
        params_in = ckpt.params
        if stats.epoch == 1:
            measure_start = clock()
        elif run.done(measure_start, seconds):
            _calibrate(run)
            raise _Deadline
        if not run.trace:
            _set_up(run, text, SETUP_REPS_BETWEEN)
        traced = run.trace and len(run.ops) % 2 == 1
        run.set_tracing(traced, f"op-{len(run.ops) + 1}")
        op_start = clock()

    try:
        run.set_tracing(run.trace, "warmup")
        called = op_start = clock()
        training.train(p["hidden_graph"], None, cfg, on_epoch=on_epoch)
    except _Deadline:
        pass
    except Exception:
        _fail(run, "training epoch")
        run.ops.append(Op(op_start, clock(), traced, False))
    finally:
        run.set_tracing(False, "checks")
    run.facts["tape_bytes"] = w.n_steps * p["hidden_graph"].n_nodes * w.k * 8
    try:
        if params_in is None:
            raise RuntimeError("no epoch finished")
        view = _training_view(p["hidden_graph"], seed)
        _train_checks(run, view, replace(cfg.sim, n_steps=w.fd_steps,
                                         seed=rng.derive_seed(seed, "perfbench-fd")),
                      params_in)
        if run.trace:
            run.facts["peak_traced_mb"] = _peak_traced_mb(
                view, params_in, replace(cfg.sim, seed=_epoch_seed(seed, 1)))
    except Exception:
        _fail(run, "after the timed epochs")
        run.checks["after_epochs"] = False


def _peak_traced_mb(view: dict, params, sim: SimConfig) -> float:
    """tracemalloc's peak over one loss_and_grad, in MiB."""
    tracemalloc.start()
    try:
        training.loss_and_grad(view["train_graph"], view["statics"], params, sim, LOSS,
                               ctx=view["ctx"])
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def _train_checks(run: Run, view: dict, sim: SimConfig, params) -> None:
    """Gradient against a central difference, and the two integrator loops against
    each other, over a short horizon from one seeded state."""
    state0 = simulation.init_state(view["train_graph"].n_nodes, sim)
    value, grad, final = training.loss_and_grad(view["train_graph"], view["statics"],
                                                params, sim, LOSS, state0=state0,
                                                ctx=view["ctx"])
    ref, ref_final = _loss_by_simulation(view, params, sim)
    run.checks["loops_agree"] = bool(
        np.allclose(final.X, ref_final.X, rtol=1e-10, atol=1e-12)
        and np.allclose(final.V, ref_final.V, rtol=1e-10, atol=1e-12)
        and abs(value - ref) <= 1e-9 * max(1.0, abs(ref)))

    flat = params.flatten()
    direction = np.random.default_rng([run.seed, 7]).standard_normal(flat.size)
    direction /= np.linalg.norm(direction)
    h = 1e-6
    plus, _ = _loss_by_simulation(view, type(params).from_flat(flat + h * direction), sim)
    minus, _ = _loss_by_simulation(view, type(params).from_flat(flat - h * direction), sim)
    fd, ad = (plus - minus) / (2 * h), float(grad @ direction)
    err = abs(ad - fd)
    run.checks["gradient_fd"] = bool(np.isfinite(grad).all()) and (
        err <= 1e-8 or err <= 1e-4 * max(abs(ad), abs(fd)))
    run.say(f"check gradient along a seeded direction ({sim.n_steps} steps): "
            f"grad.d={ad:.10g} central difference={fd:.10g}")


# --- embed workload -------------------------------------------------------------

def _embed_ok(graph, hidden, X, report, digests: dict, seed: int) -> bool:
    """Finite positions, C10 determinism across repeated seeds, and the
    confusion counts recomputed from the distances."""
    if not np.isfinite(X).all():
        return False
    digest = hashlib.sha256(np.ascontiguousarray(X).tobytes()).hexdigest()
    if digests.setdefault(seed, digest) != digest:
        return False
    dist = np.sqrt(((X[graph.v[hidden]] - X[graph.u[hidden]]) ** 2).sum(axis=1))
    pred_pos = expit(LOSS.mu - dist) >= 0.5
    truth_pos = graph.true_sign[hidden] == 1
    counts = (int((pred_pos & truth_pos).sum()), int((pred_pos & ~truth_pos).sum()),
              int((~pred_pos & ~truth_pos).sum()), int((~pred_pos & truth_pos).sum()))
    scores = (report.f1_micro, report.f1_macro, report.f1_weighted, report.f1_binary,
              report.auc_p, report.auc_l)
    return ((report.tp, report.fp, report.tn, report.fn) == counts
            and report.n_hidden == hidden.size > 0
            and all(0.0 <= s <= 1.0 for s in scores))


def _embed_once(run: Run, p: dict, seed: int, digests: dict, traced: bool, op_id: str) -> Op:
    w = run.workload
    run.set_tracing(traced, op_id)
    started = clock()
    try:
        graph, hidden = graphs.hide_signs(p["graph"], graphs.SplitSpec(P_HIDDEN, seed))
        statics = graphs.compute_node_statics(graph)
        sim = SimConfig(k=w.k, n_steps=w.n_steps, seed=seed, semi_implicit=w.semi_implicit)
        state = simulation.init_state(graph.n_nodes, sim)
        final = simulation.simulate(state, graph, statics, p["params"], sim)
        report = metrics.evaluate(graph, hidden, final.X, LOSS.mu, seed=seed)
        ended = clock()
    except Exception:
        _fail(run, f"embed with seed {seed}")
        return Op(started, clock(), traced, False)
    finally:
        run.set_tracing(False, "check")
    ok = _embed_ok(graph, hidden, final.X, report, digests, seed)
    if not ok:
        run.say(f"FAILED embed check with seed {seed}")
    if op_id == "warmup":
        run.say(_graph_line("embedded (warm-up split)", graph, hidden.size / graph.n_edges))
    return Op(started, ended, traced, ok)


def _embed_ops(run: Run, p: dict, text: str, seconds: float) -> None:
    seeds = [1000 * run.seed + j for j in range(EMBED_SEEDS)]
    digests: dict[int, str] = {}
    # the untimed warm-up embeds the first op's seed, so op 1 already repeats a seed
    warmup = _embed_once(run, p, seeds[0], digests, False, "warmup")
    run.facts["warmup_s"] = warmup.seconds
    if not warmup.ok:
        run.ops.append(warmup)
    measure_start = clock()
    while not run.done(measure_start, seconds):
        if not run.trace:
            _set_up(run, text, SETUP_REPS_BETWEEN)
        traced = run.trace and len(run.ops) % 2 == 1
        run.ops.append(_embed_once(run, p, seeds[len(run.ops) % EMBED_SEEDS], digests,
                                   traced, f"op-{len(run.ops) + 1}"))
    _calibrate(run)


# --- metrics --------------------------------------------------------------------

def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    for q in (99, 90):
        if n * (100 - q) >= 1000:
            return f"p{q} {statistics.quantiles(samples, n=100)[q - 1]:.4f} s"
    return "no tail percentile: p90 needs 100 samples"


# derived per-layer metrics and the span names they are computed from
DERIVED_FROM = {
    "training.fwd_self_ms": ("training.loss_and_grad", "training.loss_with_grad"),
    "training.bwd_self_ms": ("training.loss_and_grad", "training.loss_with_grad"),
    "forcefield.vjp_over_fwd": ("forcefield.force_field", "forcefield.force_field_vjp"),
}


def _fwd_bwd_self(spans, win: spantrace.Window) -> tuple[float, float]:
    """loss_and_grad self time split at its loss_with_grad child, in ms."""
    fwd = bwd = 0.0
    for i in win.self_s:
        if spans[i].name != "training.loss_and_grad":
            continue
        kids = spantrace.children(spans, i, win)
        cut = [spans[j].start for j in kids if spans[j].name == "training.loss_with_grad"]
        if not cut:
            continue
        before = sum(spans[j].end - spans[j].start for j in kids if spans[j].end <= cut[0])
        own = cut[0] - max(spans[i].start, win.start) - before
        fwd, bwd = fwd + own * 1e3, bwd + (win.self_s[i] - own) * 1e3
    return fwd, bwd


def _layer_metrics(run: Run) -> dict[str, float]:
    spans = run.tracer.spans
    traced = [o for o in run.ops if o.traced]
    op_win = [spantrace.window(spans, o.start, o.end) for o in traced]
    setup_win = [spantrace.window(spans, a, b) for a, b in run.setups]

    def per_unit(name: str, what: str) -> float:
        wins = op_win if any(name in x.by_name for x in op_win) else setup_win
        return _median(getattr(x.by_name.get(name, spantrace.Totals()), what) for x in wins)

    out: dict[str, float] = {}
    for metric in PER_LAYER:
        name, what = metric.rsplit(".", 1)
        if what in ("ms", "self_ms", "calls", "rows"):
            out[metric] = per_unit(name, what)
    split = [_fwd_bwd_self(spans, win) for win in op_win]
    out["training.fwd_self_ms"] = _median(f for f, _ in split)
    out["training.bwd_self_ms"] = _median(b for _, b in split)

    op_ids = {f"op-{i + 1}" for i, o in enumerate(run.ops) if o.traced}
    fwd_call, vjp_call = (
        _median((s.end - s.start) * 1e3 for s in spans if s.name == name and s.op in op_ids)
        for name in ("forcefield.force_field", "forcefield.force_field_vjp"))
    out["forcefield.vjp_over_fwd"] = vjp_call / fwd_call if fwd_call else 0.0
    run.facts["vjp_over_fwd_bases"] = (vjp_call, fwd_call)
    out["training.tape_bytes"] = float(run.facts.get("tape_bytes", 0))
    out["training.peak_traced_mb"] = float(run.facts.get("peak_traced_mb", 0.0))
    out["trace.uncovered_ms"] = _median(x.uncovered_ms for x in op_win)
    traced_s = _median(o.seconds for o in traced)
    untraced_s = _median(o.seconds for o in run.ops if not o.traced)
    out["trace.overhead_frac"] = traced_s / untraced_s - 1.0 if traced_s and untraced_s else 0.0

    absent = set(run.tracer.absent)
    for metric in list(out):
        needs = DERIVED_FROM.get(metric, (metric.rsplit(".", 1)[0],))
        if absent.intersection(needs):
            del out[metric]
    # self times plus the uncovered remainder add up to the window by
    # construction; the attribution is right only if the spans nest
    bad = [f"{x.start:.6f}: {text}" for x in op_win + setup_win
           for text in spantrace.problems(spans, x)]
    for text in bad[:10]:
        run.say(f"FAILED span check in the window starting at {text}")
    run.checks["spans_nest"] = bool(op_win) and not bad
    _report_layers(run, op_win, setup_win, out)
    return {k: out[k] for k in PER_LAYER if k in out}


def _report_layers(run: Run, op_win, setup_win, out: dict) -> None:
    names = sorted({n for x in op_win + setup_win for n in x.by_name})
    run.say(f"spans per traced op (median of {len(op_win)}) or per set-up "
            f"(median of {len(setup_win)}) when a layer runs only in set-up:")
    run.say(f"  {'span':32} {'unit':6} {'calls':>7} {'ms':>11} {'self_ms':>11} {'rows':>10}")
    for name in names:
        in_ops = any(name in x.by_name for x in op_win)
        wins = op_win if in_ops else setup_win
        t = [x.by_name.get(name, spantrace.Totals()) for x in wins]
        run.say(f"  {name:32} {'op' if in_ops else 'setup':6} "
                f"{_median(x.calls for x in t):7g} {_median(x.ms for x in t):11.3f} "
                f"{_median(x.self_ms for x in t):11.3f} {_median(x.rows for x in t):10g}")
    for name in run.tracer.absent:
        run.say(f"  {name:32} ABSENT: no module binds this name any more; "
                f"its metrics are left out")
    vjp, fwd = run.facts["vjp_over_fwd_bases"]
    run.say(f"vjp_over_fwd bases: median force_field_vjp call {vjp:.4f} ms, "
            f"median force_field call {fwd:.4f} ms")
    run.say(f"uncovered by any span: {out['trace.uncovered_ms']:.3f} ms per op "
            f"(median of {len(op_win)} traced ops of median {_median(x.ms for x in op_win):.3f} ms)")
    for metric, value in out.items():
        run.say(f"  {metric:40} {value:.6g} {PER_LAYER[metric]}")


# --- environment ----------------------------------------------------------------

def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def _git_commit(root: Path) -> str:
    head = _read(root / ".git" / "HEAD")
    if not head.startswith("ref: "):
        return head or "unavailable (not a git checkout)"
    ref = head[5:]
    commit = _read(root / ".git" / ref)
    if not commit:
        packed = _read(root / ".git" / "packed-refs").splitlines()
        commit = next((line.split()[0] for line in packed if line.endswith(" " + ref)), "")
    return commit or "unavailable"


def environment(root: Path) -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in
                _read(Path("/proc/cpuinfo")).splitlines() if line.startswith("model name")),
               platform.processor() or "unknown")
    l3 = "unknown"
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(index / "level") == "3":
            l3 = _read(index / "size")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    src = hashlib.sha256()
    for path in sorted((root / "src" / "graphspring").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas, "nproc": os.cpu_count(),
        "cpu": cpu, "l3": l3, "git_commit": _git_commit(root),
        "src_sha256": src.hexdigest()[:16],
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
    }


# --- entry point ----------------------------------------------------------------

def run_workload(w: Workload, seed: int, seconds: float, trace: bool, root: Path,
                 out_dir: Path) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and the report lines."""
    env = environment(root)
    rss_before_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lines = rating_csv(w.graph, seed, w.name)
    text = "".join(line + "\n" for line in lines)
    tracer = spantrace.Tracer(span_targets()) if trace else None
    run = Run(w, seed, trace, tracer, None if trace else calibrate.Kernel())
    run.say("env " + json.dumps(env, sort_keys=True))
    run.say(f"workload {w.name} seed={seed} seconds={seconds:g} trace={int(trace)} "
            f"lines={len(lines)}")
    del lines
    _calibrate(run)
    prepared = _set_up(run, text, SETUP_REPS)
    graph = prepared.get("hidden_graph", prepared.get("graph"))
    run.say(_graph_line("ingested", graph, float((graph.observed_sign == 0).mean())))
    del graph
    (_train_ops if w.kind == "train" else _embed_ops)(run, prepared, text, seconds)

    attempted, failed = len(run.ops), sum(not o.ok for o in run.ops)
    if trace:
        values = _layer_metrics(run)
        units = PER_LAYER
    else:
        op_s = [_at_nominal_speed(run, o.start, o.end) for o in run.ops]
        setup_s = [_at_nominal_speed(run, a, b) for a, b in run.setups]
        values = {"op_s": _median(op_s), "setup_s": _median(setup_s),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END
        what = "epochs" if w.kind == "train" else "embed-and-score ops"
        kernel_s = [m[2] for m in run.marks]
        run.say(f"op_s        {values['op_s']:.4f} s   median of {len(op_s)} {what} at "
                f"nominal host speed; {tail(op_s)}; untimed warm-up "
                f"{run.facts.get('warmup_s', float('nan')):.4f} s")
        run.say(f"setup_s     {values['setup_s']:.4f} s   median of {len(setup_s)} set-ups at "
                f"nominal host speed, {SETUP_REPS} before the first operation and "
                f"{SETUP_REPS_BETWEEN} between operations (min {min(setup_s):.4f} s, "
                f"max {max(setup_s):.4f} s)")
        run.say(f"            wall time as measured: op {_median(o.seconds for o in run.ops):.4f} s, "
                f"set-up {_median(b - a for a, b in run.setups):.4f} s; calibration kernel "
                f"median {_median(kernel_s):.4f} s over {len(kernel_s)} points "
                f"(min {min(kernel_s):.4f} s, max {max(kernel_s):.4f} s; nominal "
                f"{calibrate.NOMINAL_S:g} s)")
        if "preamble_s" in run.facts:
            run.say(f"            train() preamble of the timed run: "
                    f"{run.facts['preamble_s']:.4f} s (not in setup_s, which has ingest too)")
        run.say(f"peak_rss_mb {values['peak_rss_mb']:.1f} MB  peak resident memory, 1 process; "
                f"{rss_before_mb:.1f} MB of it before set-up (interpreter and imports), "
                f"{sys.getsizeof(text) / 2 ** 20:.1f} MB the edge-list text the benchmark "
                f"keeps for its set-ups")
    run.say(f"fail_frac   {failed / attempted:.4g}   ({failed} failed / {attempted} attempted)")
    for name, ok in run.checks.items():
        run.say(f"check {name}: {'ok' if ok else 'FAILED'}")
    correct = failed == 0 and all(run.checks.values())
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {"env": env, "workload": w.name, "seed": seed, "trace": int(trace),
              "result": result, "report": run.lines,
              "setups": run.setups, "ops": [o.__dict__ for o in run.ops],
              "calibration": run.marks,
              "spans": [s.__dict__ for s in tracer.spans] if tracer else []}
    path = out_dir / f"{w.name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    return result, run.lines
