"""Span tracing of the program's layers, applied from outside the package.

Each traced function is replaced by a wrapper in every ``ris_nfloc`` module
namespace that holds it, so the unchanged trial pipeline calls the wrappers.
A wrapper records a span (trial, name, start, end, parent span) and the
span's self time: its duration minus the time its traced children cover.
Observers read work counts from the returned values.  ``Tracer.uninstall``
puts every original back, and ``Tracer`` is a context manager that does so
on exit.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

#: Layer -> public functions timed as that layer.  ``harness.run_trial`` is
#: the root span of a trial; what it does outside its children is harness
#: self time.
TRACED = {
    "harness": ("run_trial",),
    "geometry": ("build_scene",),
    "channel": ("realize_channel",),
    "psp": ("assign",),
    "waveform": ("synthesize_frames",),
    "spectrum": ("spectrum_2d", "extract_toas"),
    "kernels": ("column_peak_mask",),
    "labeling": ("run_spl",),
    "tdoa": ("build_system", "solve_position"),
    "bounds": ("fim",),
}

ROOT = "harness.run_trial"
LABEL_METHODS = ("exclusive", "pair", "sort", "residual", "skipped")
COMPLEX_BYTES = 16  # complex128


def _observe_frames(args, result, counts):
    # delay-phase exponentials (N x K) plus the frame array (N x L)
    n = result.s.shape[0]
    k = len(args[1])
    counts["waveform.computed_bytes"] += COMPLEX_BYTES * n * k + result.s.nbytes


def _observe_spectrum(args, result, counts):
    counts["spectrum.computed_cells"] += result.grid.size


def _observe_toas(args, result, counts):
    counts["spectrum.under_detected_groups"] += len(result.under_detected)


def _observe_labeling(args, result, counts):
    for row in result[2]:
        counts[f"labeling.groups.{row.method}"] += 1


OBSERVERS = {
    "waveform.synthesize_frames": _observe_frames,
    "spectrum.spectrum_2d": _observe_spectrum,
    "spectrum.extract_toas": _observe_toas,
    "labeling.run_spl": _observe_labeling,
}


class Tracer:
    """In-memory spans and counts for the traced layers."""

    def __init__(self):
        self.spans: list[tuple] = []  # (trial, name, start, end, parent, self_s, error)
        self.counts: Counter = Counter()
        self.trials = 0
        self._stack: list[list] = []  # [span index, child seconds]
        self._rebound: list[tuple] = []  # (module, attribute, original)

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        if self._rebound:
            raise RuntimeError("tracer already installed")
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "ris_nfloc" or name.startswith("ris_nfloc."))
        ]
        try:
            for layer, names in TRACED.items():
                module = importlib.import_module(f"ris_nfloc.{layer}")
                for fname in names:
                    original = getattr(module, fname)
                    wrapper = self._wrap(f"{layer}.{fname}", original)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is original:
                                self._rebound.append((m, attr, original))
                                setattr(m, attr, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._rebound:
            module, attr, original = self._rebound.pop()
            setattr(module, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._rebound)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, name, fn):
        observer = OBSERVERS.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                if name != ROOT:
                    return fn(*args, **kwargs)
                self.trials += 1
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[index] = (
                    self.trials - 1, name, start, end, parent,
                    duration - frame[1], error,
                )
            if observer is not None:
                observer(args, result, self.counts)
            return result

        return traced

    # -- aggregation ---------------------------------------------------------

    def per_trial(self) -> dict[str, float]:
        """Per-layer metrics, each the mean over the traced trials."""
        n = max(self.trials, 1)
        calls = Counter()
        self_s = defaultdict(float)
        errors = Counter()
        root_s = 0.0
        for _, name, start, end, _, own, error in self.spans:
            calls[name] += 1
            self_s[name] += own
            if error is not None:
                errors[name] += 1
            if name == ROOT:
                root_s += end - start
        out = {}
        for layer, names in TRACED.items():
            for fname in names:
                key = f"{layer}.{fname}"
                out[f"{key}.calls"] = calls[key] / n
                out[f"{key}.self_ms"] = 1e3 * self_s[key] / n
        out["harness.self_ms"] = out.pop(f"{ROOT}.self_ms")
        out["tdoa.position_errors"] = errors["tdoa.solve_position"] / n
        for key in (
            "waveform.computed_bytes",
            "spectrum.computed_cells",
            "spectrum.under_detected_groups",
        ):
            out[key] = self.counts[key] / n
        groups = {m: self.counts[f"labeling.groups.{m}"] for m in LABEL_METHODS}
        for method, count in groups.items():
            out[f"labeling.groups.{method}"] = count / n
        labeled = groups["pair"] + groups["sort"] + groups["residual"]
        attempted = labeled + groups["skipped"]
        out["labeling.labeled_ratio"] = labeled / attempted if attempted else 0.0
        out["trace.trial_ms"] = 1e3 * root_s / n
        return out

    def write_spans(self, path) -> None:
        """One JSON line per span; times in seconds from the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (trial, name, start, end, parent, own, error) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "trial": trial, "name": name, "parent": parent,
                    "start_s": start - t0, "end_s": end - t0, "self_s": own,
                    "error": error,
                }) + "\n")
