"""Spans around calls into qmcool's public functions, installed from outside.

The package itself carries no instrumentation.  :class:`Tracer` replaces each
target function with a timing wrapper in every loaded ``qmcool`` module that
holds it as an attribute, because that attribute is how the package looks
the function up (``engine.classify`` and ``cli.classify`` are the same
object; both must be wrapped or the calls through ``cli`` go unseen).

A span's self time is its duration minus the durations of the spans it
encloses.  Time inside an operation but outside every span is glue.  A
target that no longer exists simply records no calls.
"""

import inspect
import sys
import time
import tracemalloc

# (module, attribute, span name).  Two functions may share one span name.
TARGETS = (
    ("_accel", "ginibre_batch", "accel.ginibre_batch"),
    ("_accel", "haar_from_ginibre", "accel.haar_from_ginibre"),
    ("_accel", "cycle_energies_from_ginibre", "accel.cycle_energies_from_ginibre"),
    ("_accel", "cycle_energy_samples", "accel.cycle_energy_samples"),
    ("engine", "classify", "engine.classify"),
    ("engine", "critical_visibility", "engine.critical_visibility"),
    ("engine", "run_cycle", "engine.run_cycle"),
    ("engine", "energy_changes", "engine.energy_changes"),
    ("measure", "hom_noisy_channel", "measure.hom_noisy_channel"),
    ("measure", "haar_unitary", "measure.haar_unitary"),
    ("measure", "rotate_basis", "measure.rotate_basis"),
    ("optics", "projector_train_operators", "optics.projector_train_operators"),
    ("qcore", "validate_density", "qcore.validate_density"),
    ("tomo", "process_tomography", "tomo.process_tomography"),
    ("tomo", "measurement_tomography", "tomo.measurement_tomography"),
    ("tomo", "process_fidelity", "tomo.fidelity"),
    ("tomo", "effect_fidelity", "tomo.fidelity"),
    ("cli", "resolve_config", "cli.resolve_config"),
    ("cli", "_emit", "cli.emit"),
)

# (inner span, outer span): count inner calls made while outer is open.
NESTED = (
    ("measure.hom_noisy_channel", "engine.critical_visibility"),
    ("qcore.validate_density", "engine.run_cycle"),
)

SAMPLER = ("_accel", "cycle_energy_samples")


def _qmcool_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "qmcool" or name.startswith("qmcool."))]


def _replace_everywhere(original, replacement):
    """Point every qmcool module attribute that holds ``original`` at ``replacement``."""
    for module in _qmcool_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _arg_getter(func, name):
    """Read argument ``name`` of a call to ``func`` from (args, kwargs), or None."""
    try:
        params = list(inspect.signature(func).parameters)
    except (TypeError, ValueError):
        return None
    if name not in params:
        return None
    index = params.index(name)

    def get(args, kwargs):
        if name in kwargs:
            return kwargs[name]
        return args[index] if index < len(args) else None

    return get


def _leading_len(result):
    shape = getattr(result, "shape", None)
    return int(shape[0]) if shape else 0


class Span:
    """Totals of one span name."""

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.items = 0  # matrices returned (accel spans)
        self.keys = set()  # distinct inputs (projector trains)
        self.intervals = []  # (seed, start, n) drawn (Ginibre stream)


class Tracer:
    """Install timing wrappers into the loaded qmcool modules."""

    def __init__(self):
        self.spans = {}
        self.nested = dict.fromkeys(NESTED, 0)
        self.open = {}  # span name -> depth currently open
        self.stack = []  # child-time accumulators of open spans
        self.top_ns = 0  # time inside outermost spans

    def install(self):
        for module_name, attr, span_name in TARGETS:
            module = sys.modules.get(f"qmcool.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                continue
            self.spans.setdefault(span_name, Span())
            _replace_everywhere(original, self._wrap(original, span_name))
        return self

    def _wrap(self, func, span_name):
        span = self.spans[span_name]
        nested = [(key, key[1]) for key in NESTED if key[0] == span_name]
        after = self._after_hook(func, span_name, span)
        stack, opened = self.stack, self.open
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            for key, outer in nested:
                if opened.get(outer):
                    self.nested[key] += 1
            opened[span_name] = opened.get(span_name, 0) + 1
            stack.append(0)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                opened[span_name] -= 1
                span.calls += 1
                span.self_ns += dt - child
                if stack:
                    stack[-1] += dt
                else:
                    self.top_ns += dt
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    @staticmethod
    def _after_hook(func, span_name, span):
        """Counters taken outside the timed interval, per span."""
        if span_name == "accel.ginibre_batch":
            seed, start = _arg_getter(func, "seed"), _arg_getter(func, "start")

            def after(args, kwargs, result):
                n = _leading_len(result)
                span.items += n
                if seed is not None and start is not None:
                    span.intervals.append((int(seed(args, kwargs)), int(start(args, kwargs)), n))

            return after
        if span_name in ("accel.haar_from_ginibre", "accel.cycle_energies_from_ginibre"):

            def after(args, kwargs, result):
                span.items += _leading_len(result)

            return after
        if span_name == "optics.projector_train_operators":

            def after(args, kwargs, result):
                vec = args[0] if args else next(iter(kwargs.values()))
                span.keys.add(vec.tobytes() if hasattr(vec, "tobytes") else repr(vec))

            return after
        return None

    def snapshot(self):
        """JSON-ready totals; distinct counts replace the raw keys."""
        out = {}
        for name, span in self.spans.items():
            out[name] = {
                "calls": span.calls,
                "self_ns": span.self_ns,
                "items": span.items,
                "distinct": len(span.keys) if span.keys else _union_size(span.intervals),
            }
        return {
            "spans": out,
            "nested": {f"{inner}<{outer}": n for (inner, outer), n in self.nested.items()},
            "top_ns": self.top_ns,
        }


def _union_size(intervals):
    """Number of distinct (seed, index) pairs covered by (seed, start, n) draws."""
    by_seed = {}
    for seed, start, n in intervals:
        by_seed.setdefault(seed, []).append((start, start + n))
    total = 0
    for spans in by_seed.values():
        spans.sort()
        end = None
        for lo, hi in spans:
            if end is None or lo >= end:
                total += hi - lo
                end = hi
            elif hi > end:
                total += hi - end
                end = hi
    return total


class MemoryProbe:
    """Peak traced allocation inside each call of the Haar sampler."""

    def __init__(self):
        self.calls = 0
        self.peak_bytes = 0

    def install(self):
        module = sys.modules.get(f"qmcool.{SAMPLER[0]}")
        original = getattr(module, SAMPLER[1], None)
        if original is None:
            return self

        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return original(*args, **kwargs)
            finally:
                self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
                self.calls += 1

        wrapper.__wrapped__ = original
        _replace_everywhere(original, wrapper)
        return self
