"""Transition counter and span tracer, installed from outside the library.

``counted_spec`` wraps a plant's transition with ``dataclasses.replace`` so
that every evaluation is counted exactly; it is on in every run, traced or
not. ``Tracer`` replaces public functions at the names their consuming
modules look them up by, so spans nest the way the calls do. It sums every
span into per-name figures and keeps the spans of the first round in memory
until ``write`` is called at the end of the run.
"""

from __future__ import annotations

import dataclasses
import importlib
import time
from collections import Counter
from pathlib import Path


class TransitionCounter:
    """Counts every call of the transitions it wrapped; with a ``hook``, calls
    it once every ``every`` transitions."""

    def __init__(self, every: int = 0, hook=None):
        self.count = 0
        self.every = every
        self.hook = hook
        self._next = every

    def wrap(self, transition):
        def counted(x, u, theta):
            self.count += 1
            if self.hook is not None and self.count >= self._next:
                self._next += self.every
                self.hook()
            return transition(x, u, theta)

        return counted


def counted_spec(spec, counter: TransitionCounter):
    """A copy of a benchmark spec whose model counts its transitions."""
    model = dataclasses.replace(spec.model, transition=counter.wrap(spec.model.transition))
    return dataclasses.replace(spec, model=model)


# (span name, module the call is looked up in, attribute name). Each public
# function is wrapped in every module that calls it, so the span's parent is
# the caller's span.
SPAN_SITES = [
    ("plant.simulate", "regulate.plant", "simulate"),
    ("plant.simulate", "regulate.regulator", "simulate"),
    ("plant.simulate", "regulate.synthesis", "simulate"),
    ("plant.simulate", "regulate.cli", "simulate"),
    ("plant.stacked_map", "regulate.plant", "stacked_map"),
    ("plant.stacked_map", "regulate.estimator", "stacked_map"),
    ("plant.terminal_map", "regulate.regulator", "terminal_map"),
    ("plant.terminal_map", "regulate.synthesis", "terminal_map"),
    ("plant.fd_jacobian", "regulate.plant", "fd_jacobian"),
    ("plant.fd_jacobian", "regulate.regulator", "fd_jacobian"),
    ("plant.jacobian_theta", "regulate.plant", "jacobian_theta"),
    ("plant.jacobian_theta", "regulate.estimator", "jacobian_theta"),
    ("plant.jacobian_input", "regulate.synthesis", "jacobian_input"),
    ("plant.excitation_rank_check", "regulate.regulator", "excitation_rank_check"),
    ("gauss_newton", "regulate.estimator", "box_gauss_newton"),
    ("gauss_newton", "regulate.synthesis", "box_gauss_newton"),
    ("estimator.estimate", "regulate.regulator", "estimate"),
    ("synthesis.synthesize", "regulate.regulator", "synthesize"),
    ("regulator.inclusion_check", "regulate.regulator", "inclusion_check"),
    ("regulator.run", "regulate.cli", "run_exact"),
    ("regulator.run", "regulate.cli", "run_inexact"),
    ("benchmarks.get_model", "regulate.cli", "get_model"),
    ("cli.load_config", "regulate.cli", "load_config"),
    ("cli.run_experiment", "regulate.cli", "run_experiment"),
    ("cli.replay_verify", "regulate.cli", "replay_verify"),
]


class Tracer:
    """Times the wrapped calls while installed.

    Per span name it sums calls, inclusive time and self time (the span's
    duration minus that of its child spans), plus the counts the layer
    metrics need from the calls' results. The spans themselves are kept in
    memory only while ``keep`` is true, as (id, name, parent id, start, end).
    """

    def __init__(self):
        self.calls = Counter()
        self.total = Counter()
        self.own = Counter()
        self.counts = Counter()
        self.step_calls = 0
        self.keep = True
        self.spans = []
        self._stack = []  # open spans: [id, name, time of finished children]
        self._next_id = 0
        self._saved = []

    def span(self, name, func):
        """``func`` wrapped so that each call records one span under ``name``."""

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = [self._next_id, name, 0.0]
            self._next_id += 1
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                self._count(name, parent[1] if parent else None, args, result)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                self.calls[name] += 1
                self.total[name] += duration
                self.own[name] += duration - frame[2]
                if self.keep:
                    self.spans.append((frame[0], name, parent[0] if parent else -1, start, end))

        return traced

    def reset(self):
        """Forget what the warm-up recorded. ``get_model`` is kept: the long
        workloads call it only at set-up, and its metric is a mean per call."""
        for table in (self.calls, self.total, self.own):
            for name in list(table):
                if name != "benchmarks.get_model":
                    del table[name]
        self.counts.clear()
        self.step_calls = 0
        self.spans.clear()

    def _count(self, name, parent, args, result):
        counts = self.counts
        if name == "plant.simulate":
            counts["plant.simulate.steps"] += len(args[2])
        elif name == "gauss_newton":
            counts["gauss_newton.iterations"] += result.iterations
            counts["gauss_newton.converged"] += bool(result.converged)
            counts[f"gauss_newton.under.{parent}"] += 1
        elif name == "estimator.estimate":
            counts["estimator.estimate.iterations"] += result.iterations
        elif name == "synthesis.synthesize":
            counts["synthesis.plans"] += 1
        elif name == "regulator.inclusion_check":
            counts["regulator.inclusion_check.passed"] += bool(result)

    def install(self):
        for name, module_name, attr in SPAN_SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.span(name, original))
        plant = importlib.import_module("regulate.plant")
        step = plant.step

        def counted_step(*args):
            self.step_calls += 1
            return step(*args)

        self._saved.append((plant, "step", step))
        plant.step = counted_step

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        """Write the kept spans as tab-separated lines, times relative to the first."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s[3] for s in self.spans), default=0.0)
        with path.open("w", encoding="utf-8") as handle:
            handle.write("id\tname\tparent\tstart_s\tend_s\n")
            for span_id, name, parent, start, end in sorted(self.spans):
                handle.write(f"{span_id}\t{name}\t{parent}\t{start - origin:.9f}\t{end - origin:.9f}\n")

    def layer_metrics(self, runs: int, transitions: int, blocks: int, retries: int,
                      bytes_written: int) -> dict:
        """Layer metrics per regulation run.

        Ratios are taken over their own calls, and ``benchmarks.get_model.s``
        is the mean time of one ``get_model`` call, set-up calls included.
        """
        calls, total, own, counts = self.calls, self.total, self.own, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        gn_est = counts["gauss_newton.under.estimator.estimate"]
        gn_syn = counts["gauss_newton.under.synthesis.synthesize"]
        per_run = {
            "plant.transitions": transitions,
            "plant.step.calls": self.step_calls,
            "plant.simulate.calls": calls["plant.simulate"],
            "plant.simulate.steps": counts["plant.simulate.steps"],
            "plant.simulate.self_s": own["plant.simulate"],
            "plant.jacobian_theta.calls": calls["plant.jacobian_theta"],
            "plant.jacobian_theta.s": total["plant.jacobian_theta"],
            "plant.jacobian_input.calls": calls["plant.jacobian_input"],
            "plant.jacobian_input.s": total["plant.jacobian_input"],
            "plant.terminal_map.calls": calls["plant.terminal_map"],
            "plant.terminal_map.s": total["plant.terminal_map"],
            "plant.fd_jacobian.calls": calls["plant.fd_jacobian"],
            "plant.fd_jacobian.s": total["plant.fd_jacobian"],
            "plant.excitation_rank_check.s": total["plant.excitation_rank_check"],
            "gauss_newton.runs": calls["gauss_newton"],
            "gauss_newton.iterations": counts["gauss_newton.iterations"],
            "gauss_newton.self_s": own["gauss_newton"],
            "estimator.estimate.calls": calls["estimator.estimate"],
            "estimator.estimate.s": total["estimator.estimate"],
            "estimator.estimate.iterations": counts["estimator.estimate.iterations"],
            "synthesis.synthesize.calls": calls["synthesis.synthesize"],
            "synthesis.synthesize.s": total["synthesis.synthesize"],
            "regulator.blocks": blocks,
            "regulator.inner_retries": retries,
            "regulator.inclusion_check.calls": calls["regulator.inclusion_check"],
            "regulator.inclusion_check.s": total["regulator.inclusion_check"],
            "regulator.self_s": own["regulator.run"],
            "cli.load_config.s": total["cli.load_config"],
            "cli.write.s": own["cli.run_experiment"],
            "cli.bytes_written": bytes_written,
            "cli.replay_verify.s": total["cli.replay_verify"],
        }
        metrics = {name: value / runs for name, value in per_run.items()}
        metrics.update({
            "gauss_newton.converged_ratio": ratio(counts["gauss_newton.converged"], calls["gauss_newton"]),
            "estimator.estimate.gn_runs_per_call": ratio(gn_est, calls["estimator.estimate"]),
            "synthesis.synthesize.gn_runs_per_call": ratio(gn_syn, calls["synthesis.synthesize"]),
            "synthesis.useful_start_ratio": ratio(counts["synthesis.plans"], gn_syn),
            "regulator.inclusion_check.pass_ratio": ratio(
                counts["regulator.inclusion_check.passed"], calls["regulator.inclusion_check"]),
            "benchmarks.get_model.s": ratio(total["benchmarks.get_model"], calls["benchmarks.get_model"]),
        })
        return metrics
