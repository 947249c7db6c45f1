"""Trace wrappers installed from outside the program.

A `Tracer` replaces public groupwalk functions by wrappers at every module
that binds them (``from .measures import power_sequence`` makes
``drift.power_sequence`` a binding of its own), and restores the originals
on `uninstall`. Wrappers of layer entry points record spans (name, start,
end, parent span, job id) in memory; hot per-element calls (``Group.mul``,
``check_element``, norm evaluations, ``substream``, cylinder enumeration)
are only counted. A span's self time is its duration minus the durations of
its child spans.

Work done inside pool worker processes is not seen: workers are forked with
the wrappers installed, but their spans and counts stay in the worker.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter

# (module, function) pairs whose calls become spans named
# "<module>.<function>".
SPANNED = [
    ("measures", "parse_measure_spec"),
    ("wordmetric", "build_ball"), ("wordmetric", "check_value_seminorm"),
    ("cache", "cached_ball"),
    ("drift", "drift_exact_partial"), ("drift", "entropy_partial"),
    ("drift", "adjoint_drift_equality"), ("drift", "drift_monte_carlo"),
    ("quasiharmonic", "compute_fk_tables"), ("quasiharmonic", "phi_from_fk"),
    ("freewalk", "norm_distributions"), ("freewalk", "radial_phi"),
    ("boundary", "check_cocycle_identity_ball"),
    ("boundary", "check_cocycle_normalization"), ("boundary", "c_sequence"),
    ("boundary", "poisson_integral"), ("boundary", "check_harmonicity"),
    ("boundary", "check_boundary_stationarity"), ("boundary", "span_rank"),
    ("boundary", "exact_rank"), ("boundary", "validate_hitting_measure"),
    ("gspaces", "solve_stationary"), ("gspaces", "diagonal_ergodicity"),
    ("gspaces", "isometric_factor_witness"),
    ("sampler", "norm_statistics"), ("sampler", "prefix_counts"),
    ("sampler", "endpoint_counts"),
    ("cli", "run"), ("cli", "emit"),
]
GROUP_CLASSES = ("FreeAbelian", "FreeGroup", "Lamplighter", "Heisenberg")


class Tracer:
    """In-memory spans and counters; see the module docstring."""

    def __init__(self):
        self.spans: List[list] = []      # [name, start, end, parent, job]
        self.counts: Counter = Counter()
        self.stack: List[int] = []
        self.job: Optional[int] = None
        self.active = True
        self.patched: List[Tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, _clock(), None, parent, self.job])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = _clock()
        self.stack.pop()

    @contextmanager
    def paused(self):
        """Run program code (e.g. result checks) without tracing it."""
        self.active, was = False, self.active
        try:
            yield
        finally:
            self.active = was

    def times(self, scales: Optional[Dict[int, float]] = None):
        """(self time, total time) per span name; each span's seconds are
        multiplied by the scale of its job (default 1)."""
        scales = scales or {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        own: Dict[str, float] = defaultdict(float)
        total: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, job) in enumerate(self.spans):
            factor = scales.get(job, 1.0)
            own[name] += (end - start - child[i]) * factor
            total[name] += (end - start) * factor
        return own, total

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # -- wrappers ----------------------------------------------------------

    def spanned(self, name: str, fn: Callable,
                after: Optional[Callable] = None,
                name_of: Optional[Callable] = None) -> Callable:
        """Wrapper recording a span per call; `after(result, args)` updates
        counters, `name_of(args, kwargs)` overrides the span name."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(name_of(args, kwargs) if name_of else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(result, args)
            return result
        return wrapper

    def counted(self, key: str, fn: Callable) -> Callable:
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _power_sequence(self, site: str, fn: Callable) -> Callable:
        """One span per convolution step; atoms yielded counted per site."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                if not tracer.active:
                    yield from gen
                    return
                idx = tracer.open("measures.power_sequence.step")
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.close(idx)
                tracer.counts[f"{site}.power_atoms"] += len(item[1])
                yield item
        return wrapper

    def _cylinders(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for word in fn(*args, **kwargs):
                if tracer.active:
                    tracer.counts["boundary.cylinders.yielded"] += 1
                yield word
        return wrapper

    def _norm_evaluator(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.counted("wordmetric.norm.calls", fn(*args, **kwargs))
        return wrapper

    def _after_hooks(self) -> Dict[str, Callable]:
        counts = self.counts

        def convolve(result, args):
            mu, nu = args[0], args[1]
            counts["measures.convolve.calls"] += 1
            counts["measures.convolve.pairs"] += len(mu) * len(nu)
            counts["measures.convolve.atoms_out"] += len(result)
            counts["measures.max_atoms"] = max(counts["measures.max_atoms"],
                                               len(result))

        def build_ball(result, args):
            counts["wordmetric.build_ball.calls"] += 1
            counts["wordmetric.build_ball.elements"] += len(result)

        def seminorm(result, args):
            counts["wordmetric.check_value_seminorm.pairs"] += \
                result.pairs_checked

        def fk_tables(result, args):
            # points x atoms over k = 0..k_max; mu^{*0} is one atom
            atoms = counts.pop("quasiharmonic.power_atoms", 0) + 1
            counts["quasiharmonic.fk_evals"] += len(result[0].values) * atoms

        def phi_from_fk(result, args):
            counts["quasiharmonic.phi_from_fk.calls"] += 1

        def norm_distributions(result, args):
            counts["freewalk.norm_distributions.calls"] += 1

        def stationary(result, args):
            counts["gspaces.solve_stationary.iterations"] += result.iterations

        def sampled(result, args):
            config = next(a for a in args if hasattr(a, "trajectories"))
            counts["sampler.traj_steps"] += config.trajectories * config.steps

        return {"measures.convolve": convolve,
                "wordmetric.build_ball": build_ball,
                "wordmetric.check_value_seminorm": seminorm,
                "quasiharmonic.compute_fk_tables": fk_tables,
                "quasiharmonic.phi_from_fk": phi_from_fk,
                "freewalk.norm_distributions": norm_distributions,
                "gspaces.solve_stationary": stationary,
                "sampler.norm_statistics": sampled,
                "sampler.prefix_counts": sampled,
                "sampler.endpoint_counts": sampled}

    @staticmethod
    def _cache_outcome(cache_module) -> Callable:
        """Span name of a cached_ball call: .hit when the ball's file is
        already there, else .miss."""
        def name_of(args, kwargs):
            group, radius = args[:2]
            where = cache_module.cache_dir_from_env(
                args[2] if len(args) > 2 else kwargs.get("cache_dir"))
            hit = where is not None and os.path.exists(
                cache_module.ball_path(where, group, radius))
            return "cache.cached_ball." + ("hit" if hit else "miss")
        return name_of

    def _emit(self, fn: Callable) -> Callable:
        """Span plus the bytes the report adds to stdout."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(report):
            if not tracer.active:
                return fn(report)
            before = sys.stdout.tell()
            idx = tracer.open("cli.emit")
            try:
                return fn(report)
            finally:
                tracer.close(idx)
                tracer.counts["cli.emit.bytes"] += sys.stdout.tell() - before
        return wrapper

    # -- install / uninstall -------------------------------------------------

    def _bind_everywhere(self, home, attr: str, make: Callable) -> None:
        """Replace `home.attr` at every groupwalk module binding it;
        `make(site, original)` builds the wrapper for the module `site`."""
        original = getattr(home, attr)
        for name, module in sorted(sys.modules.items()):
            if not (name == "groupwalk" or name.startswith("groupwalk.")):
                continue
            if getattr(module, attr, None) is original:
                self._patch(module, attr,
                            make(name.rpartition(".")[2], original))

    def _patch(self, owner, attr: str, value) -> None:
        self.patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self.patched:
            raise RuntimeError("tracer already installed")
        from groupwalk import (boundary, cache, groups, measures, sampler,
                               wordmetric)
        after = self._after_hooks()

        def shared(wrapper):        # one wrapper for every binding site
            return lambda site, original: wrapper

        try:
            for mod_name, attr in SPANNED:
                home = sys.modules[f"groupwalk.{mod_name}"]
                name = f"{mod_name}.{attr}"
                fn = getattr(home, attr)
                if name == "cache.cached_ball":
                    wrapper = self.spanned(name, fn,
                                           name_of=self._cache_outcome(cache))
                elif name == "cli.emit":
                    wrapper = self._emit(fn)
                else:
                    wrapper = self.spanned(name, fn, after.get(name))
                self._bind_everywhere(home, attr, shared(wrapper))
            self._bind_everywhere(measures, "convolve", shared(self.spanned(
                "measures.convolve", measures.convolve,
                after["measures.convolve"],
                name_of=lambda args, kw: f"measures.convolve.{args[0].mode}")))
            self._bind_everywhere(measures, "power_sequence",
                                  self._power_sequence)
            self._bind_everywhere(boundary, "cylinders", shared(
                self._cylinders(boundary.cylinders)))
            self._bind_everywhere(wordmetric, "norm_evaluator", shared(
                self._norm_evaluator(wordmetric.norm_evaluator)))
            self._bind_everywhere(sampler, "substream", shared(
                self.counted("sampler.substream.calls", sampler.substream)))
            for cls_name in GROUP_CLASSES:
                cls = getattr(groups, cls_name)
                for method in ("mul", "check_element"):
                    self._patch(cls, method, self.counted(
                        f"groups.{method}.calls", cls.__dict__[method]))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
