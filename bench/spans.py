"""Outside-in call recorder for the rbsdej layers.

The layers are rbsdej's modules. `Recorder.install` replaces each traced
public function by a wrapper in every rbsdej module namespace that holds
it, so calls made from one layer into another (for example `reflect`
calling `backward.solve_penalized`) are seen as well as the benchmark's
own calls. Nothing in `src/` is changed; `uninstall` restores the
original objects.

With ``timing=False`` a wrapper only counts calls and per-call outcomes
(cheap enough to leave on in the untimed parts of every run). With
``timing=True`` it also records a span (name, start, end, parent) in
memory; the spans are written out when the run ends.
"""
from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

# defining module -> public functions the per-layer metrics name
TRACED = {
    "simulate": ("sample_paths",),
    "model": ("driver_uses_zu",),
    "backward": ("solve_penalized", "picard_solve", "obstacle_on_grid"),
    "reflect": (
        "solve_reflected_penalization", "penalty_error", "skorokhod_report",
        "extract_terminal_jump", "solve_reflected_dp_oracle",
    ),
    "norms": ("estimate_norms", "weighted_distance", "lenglart_check"),
    "verify": (
        "jump_inequality_suite", "comparison_suite", "penalty_decay_suite",
        "apriori_suite", "contraction_suite", "jump_estimator_crosscheck",
        "lenglart_sweep",
    ),
    "cli": ("run",),
}
# every namespace a traced function may have been imported into
NAMESPACES = (
    "rbsdej", "rbsdej.model", "rbsdej.simulate", "rbsdej.backward",
    "rbsdej.reflect", "rbsdej.norms", "rbsdej.verify", "rbsdej.registry",
    "rbsdej.cli",
)


def _bundle_bytes(bundle) -> int:
    c = bundle.coeff_path
    arrays = (
        bundle.brownian_increments, bundle.jump_counts, bundle.forward_states,
        bundle.A_path, c.alpha, c.eta, c.delta, c.phi, c.varphi, c.a2, c.zeta2,
    )
    return sum(a.nbytes for a in arrays)


@dataclass
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # index into Recorder.spans, -1 for a root span
    child_ns: int = 0


class Recorder:
    """Counts calls to the traced functions and, when timing, their spans."""

    def __init__(self, timing: bool) -> None:
        self.timing = timing
        self.calls: Counter[str] = Counter()
        self.outcomes: Counter[str] = Counter()
        self.spans: list[Span] = []
        self._obstacle_args: list[tuple] = []  # kept alive so ids stay unique
        self._obstacle_distinct = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions of every rbsdej module already imported;
        a layer the workload never loads stays unloaded."""
        modules = [sys.modules[n] for n in NAMESPACES if n in sys.modules]
        wrappers = {}
        for layer, names in TRACED.items():
            home = sys.modules.get(f"rbsdej.{layer}")
            if home is None:
                continue
            for name in names:
                fn = getattr(home, name)
                wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and callable(value):
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()
        pairs = {(id(spec), id(bundle)) for spec, bundle in self._obstacle_args}
        self._obstacle_distinct = len(pairs)
        self._obstacle_args.clear()  # release the bundles

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, qualname: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[qualname] += 1
            if qualname == "backward.obstacle_on_grid":
                self._obstacle_args.append((args[0], args[1]))
            # spans nest through one stack, so only main-thread calls are timed
            if not self.timing or threading.current_thread() is not threading.main_thread():
                result = fn(*args, **kwargs)
            else:
                result = self._timed(qualname, fn, args, kwargs)
            self._count_outcome(qualname, result)
            return result

        return wrapper

    def _timed(self, qualname, fn, args, kwargs):
        stack = self._stack
        index = len(self.spans)
        span = Span(qualname, 0, 0, stack[-1] if stack else -1)
        self.spans.append(span)
        stack.append(index)
        span.start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter_ns()
            stack.pop()
            if span.parent >= 0:
                self.spans[span.parent].child_ns += span.end - span.start

    def _count_outcome(self, qualname: str, result) -> None:
        if qualname == "simulate.sample_paths":
            self.outcomes["simulate.path_steps"] += result.n_paths * result.grid.n_steps
            self.outcomes["simulate.bundle_bytes"] += _bundle_bytes(result)
        elif qualname == "backward.picard_solve":
            self.outcomes["backward.picard_iters"] += result.run.picard_iters
        elif qualname == "reflect.solve_reflected_penalization":
            self.outcomes["reflect.penalty_levels"] += len(result.table)

    # -- results ----------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Every call count and outcome count, read after `uninstall`;
        identical for a timed and an untimed recorder over the same work."""
        out = {f"{name}.calls": n for name, n in self.calls.items()}
        out.update(self.outcomes)
        out["backward.obstacle_on_grid.distinct"] = self._obstacle_distinct
        return out

    def layer_times(self) -> dict[str, float]:
        """Inclusive seconds (``<name>.s``) and self seconds (``<name>.self_s``)
        per traced function. No traced function reaches itself, so summing
        inclusive spans counts no interval twice."""
        out: Counter[str] = Counter()
        for span in self.spans:
            dur = span.end - span.start
            out[f"{span.name}.s"] += dur / 1e9
            out[f"{span.name}.self_s"] += (dur - span.child_ns) / 1e9
        return dict(out)

    def self_total(self, since_ns: int) -> float:
        """Summed self seconds of the spans that started at or after
        ``since_ns``: the traced share of that interval."""
        return sum((s.end - s.start - s.child_ns) / 1e9 for s in self.spans if s.start >= since_ns)

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start_ns": s.start,
                    "end_ns": s.end, "parent": s.parent,
                }) + "\n")
