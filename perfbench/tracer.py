"""Outside-in tracer for one semicl CLI job, and the per-layer metrics it yields.

Run as a program, it installs wrappers around the public functions of every
semicl layer module, runs ``semicl.cli.main`` with the remaining arguments,
and writes the recorded spans and counters next to each other:

    python3 perfbench/tracer.py --spans OUT.csv -- train --config ... --out ...

Each wrapper is installed at every place a function is looked up, not only
where it is defined: ``semicl.train.evaluate``, ``semicl.config.load_csv``
and ``semicl.cli.load_config`` are separate bindings of the same function and
each one is replaced. Methods are patched on their class. Per-op backward time
comes from a ``Tape.backward`` wrapper that wraps each recorded entry's
``backward_fn``, keyed by the name of the op that recorded it.

Spans stay in memory as (id, parent, cell, name, start_ns, end_ns) tuples and
are written once the job ends. A cell is one ``experiments.prepare_data``
call: one (regime, ratio, seed) grid point, or one eval. The program under
test is not modified; nothing here changes its outputs.

``layer_metrics`` turns a spans file into the per-layer metric dict that
``run.py`` reports. It needs no semicl import.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# Layers of the program, in the order the benchmark reports them.
LAYERS = ("autodiff", "nn", "losses", "augment", "optim", "train", "metrics",
          "data", "synth", "experiments", "config")
# Modules that only import layer functions; they are patched as lookup sites.
LOOKUP_ONLY = ("cli",)
# Type coercion called by every op; a span for it would only add overhead.
UNWRAPPED = {"autodiff.as_tensor"}
# Ops reported on their own; every other autodiff op is "other".
NAMED_OPS = ("conv1d", "depthwise_conv1d", "avg_pool", "relu")
CONV_OPS = ("conv1d", "depthwise_conv1d")
STEP = "train.step"
ROOT_PARENT = 0
# Spans that only sequence other layers' work: commands, cells, fit loops and
# training steps. Their self time belongs to no leaf layer.
ORCHESTRATION = ("experiments.cmd_", "experiments.run_single", "train.fit", STEP)


class Recorder:
    """In-memory span list with an explicit parent stack."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.stack = [ROOT_PARENT]
        self.next_id = 1
        self.cell = 0
        self.counters: dict[str, float] = defaultdict(float)
        self.open_step: tuple[int, int, int] | None = None
        self.entry_ops: dict[int, tuple[str, float]] = {}
        self.datasets: set[str] = set()

    def open(self) -> tuple[int, int]:
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1]
        self.stack.append(sid)
        return sid, parent

    def close(self, sid: int, parent: int, name: str, t0: int, t1: int) -> None:
        self.stack.pop()
        self.spans.append((sid, parent, self.cell, name, t0, t1))

    def span(self, name: str, fn, before=None, after=None):
        """Wrap `fn` so each call records one span named `name`."""
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid, parent = self.open()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.close(sid, parent, name, t0, t1)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def write(self, path: Path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "parent", "cell", "name", "start_ns", "end_ns"])
            w.writerows(self.spans)


def _conv_flop(op: str, args, out) -> float:
    """Forward multiply-add count of a conv call, computed from shapes."""
    _, c_in, k = args[1].shape  # kernel (C_out, C_in, K) or (C, M, K)
    return 2.0 * out.data.size * (c_in * k if op == "conv1d" else k)


def install(rec: Recorder) -> None:
    """Patch every lookup site of every public layer function and method."""
    import importlib
    import inspect

    modules = {name: importlib.import_module(f"semicl.{name}") for name in LAYERS + LOOKUP_ONLY}
    ad = modules["autodiff"]
    Tensor = ad.Tensor

    def op_after(op: str):
        def after(args, out):
            if op in NAMED_OPS:
                rec.counters[f"autodiff.{op}.calls"] += 1
            flop = 0.0
            if op in CONV_OPS and isinstance(out, Tensor):
                flop = _conv_flop(op, args, out)
                rec.counters["autodiff.conv.fwd_flop"] += flop
            tape = getattr(out, "_tape", None)
            if tape is not None and tape.entries and tape.entries[-1].out is out:
                # The innermost op that recorded the entry keeps its name.
                rec.entry_ops.setdefault(id(tape.entries[-1]), (op, flop))
        return after

    def count_rows(args, _out):
        rows = args[1].shape[0]
        rec.counters["nn.encode.rows"] += rows
        if rec.open_step is not None:
            rec.counters["train.step_rows"] += rows

    def count_calls(key):
        def after(_args, _out):
            rec.counters[key] += 1
        return after

    def count_samples(_args, out):
        rec.counters["data.load_csv.samples"] += len(out.samples)

    def hash_dataset(_args, out):
        h = hashlib.sha256()
        for s in out.samples:
            h.update(s.values.tobytes())
            h.update(str(s.label).encode())
        rec.datasets.add(h.hexdigest())
        rec.counters["experiments.dataset_builds"] += 1

    def new_cell(_args, _kwargs):
        rec.cell += 1

    after_hooks = {
        "augment.make_views": count_calls("augment.make_views.calls"),
        "experiments.prepare_data": count_calls("experiments.prepare_data.calls"),
        "data.load_csv": count_samples,
    }
    before_hooks = {"experiments.prepare_data": new_cell}

    wrappers: dict[int, object] = {}
    for layer in LAYERS:
        mod = modules[layer]
        for attr, obj in list(vars(mod).items()):
            name = f"{layer}.{attr}"
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__ or name in UNWRAPPED):
                continue
            after = op_after(attr) if layer == "autodiff" and attr not in (
                "backward", "grad_check") else after_hooks.get(name)
            wrappers[id(obj)] = rec.span(name, obj, before=before_hooks.get(name), after=after)
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers:
                setattr(mod, attr, wrappers[id(obj)])

    nn, optim, config = modules["nn"], modules["optim"], modules["config"]
    EC = nn.EncoderClassifier
    EC.encode = rec.span("nn.encode", EC.encode, after=count_rows)
    EC.classify = rec.span("nn.classify", EC.classify)
    EC.__init__ = rec.span("nn.init_model", EC.__init__)
    config.ExperimentConfig.build_dataset = rec.span(
        "config.build_dataset", config.ExperimentConfig.build_dataset, after=hash_dataset)

    clock = time.perf_counter_ns
    Tape = ad.Tape
    enter = Tape.__enter__

    def tape_enter(self):
        # A training step runs from entering its tape to the optimizer's step().
        if rec.open_step is None:
            sid, parent = rec.open()
            rec.open_step = (sid, parent, clock())
        return enter(self)

    Tape.__enter__ = tape_enter

    def close_step() -> None:
        if rec.open_step is not None and rec.stack[-1] == rec.open_step[0]:
            sid, parent, t0 = rec.open_step
            rec.open_step = None
            rec.close(sid, parent, STEP, t0, clock())

    for cls in (optim.Adam, optim.SGD):
        step = rec.span("optim.step", cls.step)

        def stepped(self, _step=step):
            _step(self)
            close_step()

        cls.step = stepped

    def timed_backward(fn, op: str, flop: float):
        name = f"autodiff.{op}.bwd"

        def run(g):
            sid, parent = rec.open()
            t0 = clock()
            try:
                return fn(g)
            finally:
                rec.close(sid, parent, name, t0, clock())
                if flop:
                    rec.counters["autodiff.conv.bwd_flop"] += 2.0 * flop

        return run

    backward = Tape.backward

    def tape_backward(self, loss):
        rec.counters["autodiff.tape.entries"] += len(self.entries)
        rec.counters["autodiff.tape.backward_calls"] += 1
        for entry in self.entries:
            op, flop = rec.entry_ops.pop(id(entry), ("unnamed", 0.0))
            entry.backward_fn = timed_backward(entry.backward_fn, op, flop)
        return backward(self, loss)

    Tape.backward = rec.span("autodiff.backward", tape_backward)


def main(argv=None) -> int:
    t_start = time.perf_counter_ns()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", required=True, help="spans CSV to write")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="arguments for semicl.cli, after --")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    rec = Recorder()
    sid, parent = rec.open()
    t0 = time.perf_counter_ns()
    import semicl.cli
    install(rec)
    rec.close(sid, parent, "trace.import", t0, time.perf_counter_ns())

    code = semicl.cli.main(cli_args)
    t_end = time.perf_counter_ns()
    spans = Path(args.spans)
    rec.write(spans)
    summary = {
        "exit_code": code,
        "start_ns": t_start,
        "end_ns": t_end,
        "counters": dict(rec.counters),
        "distinct_datasets": len(rec.datasets),
    }
    spans.with_suffix(".json").write_text(json.dumps(summary))
    return code


# ---------------------------------------------------------------------------
# aggregation (runs in the benchmark process; no semicl import)
# ---------------------------------------------------------------------------

def read_spans(path: Path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [(int(a), int(b), int(c), d, int(e), int(f)) for a, b, c, d, e, f in reader]


def self_times(spans) -> dict[str, float]:
    """Seconds of self time per span name: duration minus direct children."""
    child = defaultdict(int)
    for _sid, parent, _cell, _name, t0, t1 in spans:
        child[parent] += t1 - t0
    out: dict[str, float] = defaultdict(float)
    for sid, _parent, _cell, name, t0, t1 in spans:
        out[name] += (t1 - t0 - child[sid]) / 1e9
    return out


def total_times(spans) -> dict[str, float]:
    """Seconds of inclusive time per span name, outermost calls only."""
    names = {sid: name for sid, _p, _c, name, _a, _b in spans}
    out: dict[str, float] = defaultdict(float)
    for _sid, parent, _cell, name, t0, t1 in spans:
        if names.get(parent) != name:  # skip recursive calls of the same name
            out[name] += (t1 - t0) / 1e9
    return out


def tail_percentile(n: int, want: float = 90.0) -> float:
    """`want`, or the highest percentile with at least ten samples beyond it."""
    if n <= 10:
        return 50.0
    return min(want, 100.0 * (1.0 - 10.0 / n))


def layer_metrics(spans, summary: dict) -> dict[str, float]:
    """Per-layer metrics of one traced job; units are listed in PER_LAYER_UNITS."""
    self_s = self_times(spans)
    total_s = total_times(spans)
    counters = defaultdict(float, summary["counters"])
    m: dict[str, float] = {}

    fwd = defaultdict(float)
    bwd = defaultdict(float)
    for name, s in self_s.items():
        if not name.startswith("autodiff.") or name in ("autodiff.backward", "autodiff.grad_check"):
            continue
        op = name.split(".")[1]
        key = op if op in NAMED_OPS else "other"
        (bwd if name.endswith(".bwd") else fwd)[key] += s
    for op in NAMED_OPS + ("other",):
        m[f"autodiff.{op}.fwd_s"] = fwd[op]
        m[f"autodiff.{op}.bwd_s"] = bwd[op]
    for op in CONV_OPS:
        m[f"autodiff.{op}.calls"] = counters[f"autodiff.{op}.calls"]
    m["autodiff.backward.self_s"] = self_s.get("autodiff.backward", 0.0)
    calls = counters["autodiff.tape.backward_calls"]
    m["autodiff.tape.entries_per_step"] = counters["autodiff.tape.entries"] / calls if calls else 0.0
    gflop = (counters["autodiff.conv.fwd_flop"] + counters["autodiff.conv.bwd_flop"]) / 1e9
    conv_s = sum(fwd[op] + bwd[op] for op in CONV_OPS)
    m["autodiff.conv.gflop"] = gflop
    m["autodiff.conv.gflop_per_s"] = gflop / conv_s if conv_s else 0.0

    m["nn.encode.self_s"] = self_s.get("nn.encode", 0.0)
    m["nn.encode.rows"] = counters["nn.encode.rows"]
    m["nn.classify.self_s"] = self_s.get("nn.classify", 0.0)
    m["nn.load_checkpoint.s"] = total_s.get("nn.load_checkpoint", 0.0)

    m["augment.make_views.s"] = total_s.get("augment.make_views", 0.0)
    m["augment.make_views.calls"] = counters["augment.make_views.calls"]
    for loss in ("unsup_contrastive", "sup_contrastive", "cross_entropy"):
        m[f"losses.{loss}.s"] = total_s.get(f"losses.{loss}", 0.0)
    m["optim.step.s"] = total_s.get("optim.step", 0.0)

    steps = [(t1 - t0) / 1e6 for _s, _p, _c, name, t0, t1 in spans if name == STEP]
    m["train.steps"] = float(len(steps))
    m["train.step_rows"] = counters["train.step_rows"]
    m["train.step_ms_p50"] = float(np.percentile(steps, 50.0)) if steps else 0.0
    m["train.step_ms_p90"] = (float(np.percentile(steps, tail_percentile(len(steps))))
                              if steps else 0.0)
    m["train.evaluate.s"] = total_s.get("train.evaluate", 0.0)
    m["train.predict.s"] = total_s.get("train.predict", 0.0)

    m["metrics.compute_all.s"] = total_s.get("metrics.compute_all", 0.0)
    for fn in ("load_csv", "zscore_by_train", "make_split", "hide_train_labels"):
        m[f"data.{fn}.s"] = total_s.get(f"data.{fn}", 0.0)
    m["data.load_csv.samples"] = counters["data.load_csv.samples"]
    m["synth.synth_generate.s"] = total_s.get("synth.synth_generate", 0.0)
    m["config.load_config.s"] = total_s.get("config.load_config", 0.0)
    m["experiments.prepare_data.s"] = total_s.get("experiments.prepare_data", 0.0)
    m["experiments.prepare_data.calls"] = counters["experiments.prepare_data.calls"]
    builds = counters["experiments.dataset_builds"]
    m["experiments.dataset_build_useful_ratio"] = (
        summary["distinct_datasets"] / builds if builds else 0.0)

    m["trace.unattributed_share"] = unattributed_share(spans, summary)
    return m


def unattributed_share(spans, summary: dict) -> float:
    """Share of the job's in-process time that no leaf layer owns.

    That is the time no top-level span covers plus the self time of the
    orchestration spans. Work that moves out of the wrapped layer functions
    into an unwrapped helper of a command, cell, fit loop or step lands here.
    """
    wall = summary["end_ns"] - summary["start_ns"]
    if not wall:
        return 0.0
    covered = sum(t1 - t0 for _s, parent, _c, _n, t0, t1 in spans if parent == ROOT_PARENT)
    self_s = self_times(spans)
    orchestration = sum(s for name, s in self_s.items() if name.startswith(ORCHESTRATION))
    return (max(0.0, wall - covered) / 1e9 + orchestration) / (wall / 1e9)


def top_self(spans, n: int = 8) -> list[tuple[str, float]]:
    """The `n` span names with the most self time, for the detail line."""
    items = sorted(self_times(spans).items(), key=lambda kv: -kv[1])[:n]
    return [(name, round(s, 6)) for name, s in items]


if __name__ == "__main__":
    sys.exit(main())
