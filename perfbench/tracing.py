"""In-memory spans around calls into each statepath layer.

The tracer patches, from outside the package, every public function bound
in each statepath module's namespace (one shared wrapper per function, so
internal calls such as ``evolve -> propagator`` are seen too), the
constructors that validate input, ``numpy.linalg.eigh`` and
``jsonschema.validate``. Nothing under ``src/`` is edited. Spans are kept in
memory while the run is active and written out when it ends; per-layer
metrics are derived from them afterwards.

A span's self time is its duration minus the union of its children's
intervals, so children that overlap on pool threads are not subtracted twice.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import threading
import time

LAYERS = ("hilbert", "functional", "lattice", "optimizer", "quantumness", "serialize", "cli")

_CONSTRUCTORS = ("StateVector", "Hamiltonian", "SpectralDecomposition", "UnitaryPropagator")


class Tracer:
    """Records spans and counters while ``active`` is set.

    Wrappers stay installed between jobs; the benchmark flips ``active`` on
    around the timed call only, so its own checks add nothing to the counts.
    """

    def __init__(self) -> None:
        self.active = False
        self.spans: list[tuple[int, str, int, int, int]] = []  # id, name, parent, start, end
        self.counters: dict[str, int] = {}
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._seen_h: set[bytes] = set()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
        return stack

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + int(amount)

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack()
        # a pool thread's first span hangs under whatever the main thread has open
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else -1)
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((span_id, name, parent, start, end))

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _span_wrapper(self, name: str, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            result = tracer.call(name, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _count_wrapper(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.count(name)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every public statepath function, the validating constructors,
        the measure methods, ``numpy.linalg.eigh`` and ``jsonschema.validate``.

        Modules are imported here, so call this after the package is importable.
        """
        import jsonschema
        import numpy

        modules = [importlib.import_module("statepath")]
        modules += [importlib.import_module(f"statepath.{layer}") for layer in LAYERS]
        hooks = _hooks(self)
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = getattr(value, "__module__", "") or ""
                if not home.startswith("statepath."):
                    continue
                if id(value) not in wrappers:
                    name = f"{home.rsplit('.', 1)[1]}.{value.__name__}"
                    before, after = hooks.get(name, (None, None))
                    wrappers[id(value)] = self._span_wrapper(name, value, before, after)
                self._patch(module, attr, wrappers[id(value)])

        hilbert = importlib.import_module("statepath.hilbert")
        for cls_name in _CONSTRUCTORS:
            cls = getattr(hilbert, cls_name)
            self._patch(cls, "__init__", self._span_wrapper(
                f"hilbert.validate.{cls_name}", cls.__init__))
        measure = importlib.import_module("statepath.quantumness").QuantumnessMeasure
        self._patch(measure, "value", self._count_wrapper("quantumness.measure_value.calls", measure.value))
        self._patch(measure, "gradient_conj",
                    self._count_wrapper("quantumness.measure_grad.calls", measure.gradient_conj))
        self._patch(numpy.linalg, "eigh", self._span_wrapper("hilbert.eigh", numpy.linalg.eigh))
        self._patch(jsonschema, "validate", self._span_wrapper("cli.validate", jsonschema.validate))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def dump(self) -> dict:
        return {"spans": list(self.spans), "counters": dict(self.counters)}


def _hooks(tracer: Tracer) -> dict:
    """Counters taken at the same boundaries as the spans: name -> (before, after)."""

    def decompose_before(args, kwargs):
        h = args[0] if args else kwargs["hamiltonian"]
        key = h.matrix.tobytes() + repr(h.hbar).encode()
        with tracer._lock:  # the collapse subcommand decomposes on two threads
            repeat = key in tracer._seen_h
            tracer._seen_h.add(key)
        tracer.count("hilbert.repeat_h", repeat)

    def chain_before(args, kwargs):
        problem = args[0] if args else kwargs["problem"]
        tracer.count("lattice.chain_slices", problem.grid.steps)

    def mc_before(args, kwargs):
        samples = args[1] if len(args) > 1 else kwargs["samples"]
        tracer.count("lattice.mc_samples", samples)

    def ascent_after(args, kwargs, result):
        tracer.count("optimizer.iterations", result.iterations)
        tracer.count("optimizer.unconverged", not result.converged)

    def penalized_after(args, kwargs, outcome):
        report = outcome.report
        tracer.count("quantumness.sweeps", report.sweeps)
        tracer.count("quantumness.endpoint_iterations", report.iterations)
        tracer.count("quantumness.unconverged", not report.converged)

    def serialize_after(args, kwargs, result):
        if isinstance(result, str):
            tracer.count("serialize.bytes_out", len(result.encode("utf-8")))

    hooks = {
        "hilbert.spectral_decompose": (decompose_before, None),
        "lattice.chain_reduce_exact": (chain_before, None),
        "lattice.monte_carlo_estimate": (mc_before, None),
        "optimizer.maximize_final_state": (None, ascent_after),
        "quantumness.optimize_penalized": (None, penalized_after),
    }
    for name in ("dumps", "fmt17"):
        hooks[f"serialize.{name}"] = (None, serialize_after)
    return hooks


def self_times(spans) -> tuple[dict[str, int], dict[str, int]]:
    """Total self time (ns) and call count per span name."""
    children: dict[int, list[tuple[int, int]]] = {}
    for _, _, parent, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, int] = {}
    calls: dict[str, int] = {}
    for span_id, name, _, start, end in spans:
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        totals[name] = totals.get(name, 0) + (end - start) - covered
        calls[name] = calls.get(name, 0) + 1
    return totals, calls


def layer_metrics(parts: list[dict], processes: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from span dumps.

    ``parts`` are dumps of in-process traced passes and of traced children;
    ``processes`` carries one record per traced ``statepath`` child
    (import time, exit code and that child's own dump) for the cli layer.
    """
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    counters: dict[str, int] = {}
    for part in parts:
        totals, n = self_times(part["spans"])
        for name, value in totals.items():
            self_ns[name] = self_ns.get(name, 0) + value
        for name, value in n.items():
            calls[name] = calls.get(name, 0) + value
        for name, value in part["counters"].items():
            counters[name] = counters.get(name, 0) + value

    def ms(*names, prefix=None) -> float:
        total = sum(self_ns.get(name, 0) for name in names)
        if prefix is not None:
            total += sum(v for k, v in self_ns.items() if k.startswith(prefix))
        return total / 1e6

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    decompositions = calls.get("hilbert.spectral_decompose", 0)
    sweeps = counters.get("quantumness.sweeps", 0)
    slices = counters.get("lattice.chain_slices", 0)
    samples = counters.get("lattice.mc_samples", 0)
    quantumness_ms = ms(prefix="quantumness.")

    per_process = [self_times(proc["dump"]["spans"])[0] for proc in processes]

    def process_median(values) -> float:
        return statistics.median(values) if values else 0.0

    metrics = {
        "hilbert.spectral_decompose.calls": (decompositions, "count"),
        "hilbert.spectral_decompose.self_ms": (ms("hilbert.spectral_decompose"), "ms"),
        "hilbert.eigh.self_ms": (ms("hilbert.eigh"), "ms"),
        "hilbert.propagator.calls": (calls.get("hilbert.propagator", 0), "count"),
        "hilbert.propagator.self_ms": (ms("hilbert.propagator"), "ms"),
        "hilbert.evolve.calls": (calls.get("hilbert.evolve", 0), "count"),
        "hilbert.evolve.self_ms": (ms("hilbert.evolve"), "ms"),
        "hilbert.validate.self_ms": (ms(prefix="hilbert.validate."), "ms"),
        "hilbert.repeat_h_share": (ratio(counters.get("hilbert.repeat_h", 0), decompositions), "1"),
        "functional.z_closed_form.calls": (calls.get("functional.z_closed_form", 0), "count"),
        "functional.z_closed_form.self_ms": (ms("functional.z_closed_form"), "ms"),
        "functional.z_from_mode_product.calls": (calls.get("functional.z_from_mode_product", 0), "count"),
        "functional.z_from_mode_product.self_ms": (ms("functional.z_from_mode_product"), "ms"),
        "functional.overlap.self_ms": (ms("functional.overlap"), "ms"),
        "optimizer.solves": (calls.get("optimizer.maximize_final_state", 0), "count"),
        "optimizer.iterations": (counters.get("optimizer.iterations", 0), "count"),
        "optimizer.self_ms": (ms(prefix="optimizer."), "ms"),
        "optimizer.unconverged": (counters.get("optimizer.unconverged", 0), "count"),
        "quantumness.solves": (calls.get("quantumness.optimize_penalized", 0), "count"),
        "quantumness.sweeps": (sweeps, "count"),
        "quantumness.endpoint_iterations": (counters.get("quantumness.endpoint_iterations", 0), "count"),
        "quantumness.measure_value.calls": (counters.get("quantumness.measure_value.calls", 0), "count"),
        "quantumness.measure_grad.calls": (counters.get("quantumness.measure_grad.calls", 0), "count"),
        "quantumness.self_ms": (quantumness_ms, "ms"),
        "quantumness.ms_per_sweep": (ratio(quantumness_ms, sweeps), "ms"),
        "quantumness.unconverged": (counters.get("quantumness.unconverged", 0), "count"),
        "lattice.chain_slices": (slices, "count"),
        "lattice.ns_per_slice": (ratio(self_ns.get("lattice.chain_reduce_exact", 0), slices), "ns"),
        "lattice.mc_samples": (samples, "count"),
        "lattice.ns_per_mc_sample": (ratio(self_ns.get("lattice.monte_carlo_estimate", 0), samples), "ns"),
        "lattice.convergence_study.self_ms": (ms("lattice.convergence_study"), "ms"),
        "serialize.calls": (sum(v for k, v in calls.items() if k.startswith("serialize.")), "count"),
        "serialize.bytes_out": (counters.get("serialize.bytes_out", 0), "count"),
        "serialize.self_ms": (ms(prefix="serialize."), "ms"),
        "cli.import_s": (process_median([proc["import_s"] for proc in processes]), "s"),
        "cli.validate_ms": (process_median([t.get("cli.validate", 0) / 1e6 for t in per_process]), "ms"),
        "cli.main_self_ms": (process_median([t.get("cli.main", 0) / 1e6 for t in per_process]), "ms"),
        "cli.exit_nonzero": (sum(1 for proc in processes if proc["exit_code"] != 0), "count"),
    }
    return metrics


def write_spans(path, parts: list[dict]) -> None:
    """One JSON line per span: part index, id, name, parent id, start and end (ns)."""
    with open(path, "w", encoding="utf-8") as out:
        for index, part in enumerate(parts):
            for span_id, name, parent, start, end in part["spans"]:
                out.write(json.dumps([index, span_id, name, parent, start, end]) + "\n")
