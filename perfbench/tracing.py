"""Span recorder for traced benchmark passes.

The recorder wraps the public functions of every measured ``procshadow``
module, and the public methods and properties of the three shadow
container classes, from the outside: the library itself is not edited.
A wrapped function is rebound in every package namespace that holds it,
because modules import each other's functions by name; calls between
modules therefore nest, and a span's self time is its duration minus the
durations of its child spans.

Spans are recorded only while a job is running, so correctness checks
between jobs stay out of the trace.  They are kept in memory and written
out when the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

#: Modules whose public functions are wrapped.  ``complexity`` is left out:
#: no workload's data path calls it.
MODULES = ("qcore", "ensembles", "state_shadows", "process_shadows",
           "shadow_algebra", "applications", "channels", "records_io",
           "experiments", "cli")

#: Classes whose public methods and properties are wrapped, by module.
CLASSES = {"process_shadows": ("ProcessShadow",),
           "state_shadows": ("ShadowEstimate",),
           "shadow_algebra": ("WeightedSnapshotSum",)}

#: Per-record and per-digit helpers left unwrapped: they run once per
#: record or qubit inside the kernels, where a wrapper would cost more
#: than the call itself.  Their time counts as self time of the caller.
UNWRAPPED = frozenset({
    "qcore.basis_index", "qcore.index_bits", "qcore.basis_state",
    "qcore.n_qubits_of", "qcore.tensor", "qcore.is_hermitian",
    "ensembles.frame_kind",
    "state_shadows.qubit_key", "state_shadows.register_key",
    "state_shadows.key_axes_bits", "state_shadows.flip_y_key",
    "shadow_algebra.pair_weight",
})

# Per-layer metrics: name -> span names whose self time they sum.  Every
# module also gets "<module>.self_s" (all its spans) and "<module>.errors".
GROUPS = {
    "process_shadows.table_s": (
        "process_shadows.exact_pauli_record_distribution",),
    "process_shadows.acquire_self_s": (
        "process_shadows.acquire_process_shadow",
        "process_shadows.acquire_record"),
    "process_shadows.keys_s": (
        "ProcessShadow.keys", "ProcessShadow.key_histogram",
        "ProcessShadow.take", "ProcessShadow.all_pauli"),
    "process_shadows.reconstruct_s": (
        "process_shadows.reconstruct_choi",
        "process_shadows.choi_mean_from_histogram",
        "process_shadows.materialize_choi_shadow"),
    "process_shadows.functional_s": (
        "process_shadows.estimate_output_state",
        "process_shadows.single_shot_functional_values",
        "process_shadows.estimate_channel_functional"),
    "state_shadows.tables_s": (
        "state_shadows.snapshot_matrices", "state_shadows.projector_matrices",
        "state_shadows.exact_pauli_snapshot_distribution"),
    "state_shadows.acquire_s": (
        "state_shadows.acquire_shadow", "state_shadows.acquire_state_snapshot",
        "ShadowEstimate.keys", "ShadowEstimate.key_histogram",
        "ShadowEstimate.take"),
    "state_shadows.estimate_s": (
        "state_shadows.reconstruct", "state_shadows.single_shot_expectations",
        "state_shadows.estimate_observable", "state_shadows.median_of_means",
        "state_shadows.materialize_snapshot"),
    "shadow_algebra.apply_s": (
        "shadow_algebra.apply_process_to_state_shadow",
        "shadow_algebra.exact_apply_sum",
        "WeightedSnapshotSum.materialize[apply]",
        "WeightedSnapshotSum.iter_terms[apply]"),
    "shadow_algebra.compose_s": (
        "shadow_algebra.compose_process_shadows",
        "shadow_algebra.exact_compose_sum",
        "WeightedSnapshotSum.materialize[compose]",
        "WeightedSnapshotSum.iter_terms[compose]"),
    "applications.linear_s": (
        "applications.transition_probability",
        "applications.multitime_correlator_exact_input",
        "applications.multitime_correlator_shadow_input"),
    "applications.purity_s": ("applications.purity_estimate",),
    "applications.unitarity_s": ("applications.unitarity_verdict",),
    "records_io.save_s": ("records_io.save_records",),
    "records_io.load_s": ("records_io.load_records", "records_io.load_header"),
    "ensembles.sample_s": (
        "ensembles.sample_frame", "ensembles.sample_pauli_frame",
        "ensembles.sample_clifford", "ensembles.sample_haar_unitary"),
    "ensembles.measure_s": (
        "ensembles.to_matrix", "ensembles.measure_computational",
        "ensembles.prepared_state_vector",
        "ensembles.measurement_probabilities"),
    "qcore.apply_channel_s": ("qcore.apply_channel",),
    "qcore.reference_s": ("qcore.choi_of_channel", "qcore.operator_norm"),
    "channels.build_s": None,  # every span of the channels module
}


def layer_metric_units() -> dict:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for mod in MODULES:
        units[f"{mod}.self_s"] = "s"
    for name in GROUPS:
        units[name] = "s"
    units["process_shadows.records"] = "count"
    units["records_io.bytes_per_record"] = "B"
    units["ensembles.frames"] = "count"
    units["qcore.apply_channel_calls"] = "count"
    for mod in MODULES:
        units[f"{mod}.errors"] = "count"
    units["trace.wall_s"] = "s"
    units["trace.unattributed_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


class SpanRecorder:
    """Wraps the package's public API and records one span per call."""

    def __init__(self):
        self.job = None          # id of the running job; None records nothing
        self.spans = []          # (job, name, layer, start, end, parent)
        self.stack = []
        self.errors = {mod: 0 for mod in MODULES}
        self._seen_errors = set()
        self.records = 0
        self.saved_records = 0
        self.saved_bytes = 0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap the API in place, in every package namespace."""
        package = {name: importlib.import_module(f"procshadow.{name}")
                   for name in MODULES + ("complexity",)}
        for mod_name in MODULES:
            mod = package[mod_name]
            for attr, obj in list(vars(mod).items()):
                name = f"{mod_name}.{attr}"
                if (attr.startswith("_") or name in UNWRAPPED
                        or not callable(obj) or isinstance(obj, type)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrapper = self._wrap(obj, name, mod_name)
                for other in package.values():
                    for other_attr, other_obj in list(vars(other).items()):
                        if other_obj is obj:
                            setattr(other, other_attr, wrapper)
            for cls_name in CLASSES.get(mod_name, ()):
                self._wrap_class(getattr(mod, cls_name), mod_name)

    def _wrap_class(self, cls, layer: str) -> None:
        by_mode = cls.__name__ == "WeightedSnapshotSum"
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(obj, property):
                setattr(cls, attr, property(self._wrap(obj.fget, name, layer, by_mode),
                                            obj.fset, obj.fdel, obj.__doc__))
            elif callable(obj):
                setattr(cls, attr, self._wrap(obj, name, layer, by_mode))

    def _wrap(self, fn, name: str, layer: str, by_mode: bool = False):
        rec = self
        clock = time.perf_counter
        hook = _COUNT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if rec.job is None:
                return fn(*args, **kwargs)
            span_name = f"{name}[{args[0].mode}]" if by_mode else name
            idx = len(rec.spans)
            parent = rec.stack[-1] if rec.stack else -1
            rec.spans.append(None)
            rec.stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                key = (id(exc), layer)
                if key not in rec._seen_errors:
                    rec._seen_errors.add(key)
                    rec.errors[layer] += 1
                raise
            finally:
                end = clock()
                rec.stack.pop()
                rec.spans[idx] = (rec.job, span_name, layer, start, end, parent)
            if hook is not None:
                hook(rec, result, args)
            return result

        return traced

    # -- summaries --------------------------------------------------------

    def self_times(self) -> list:
        """Self time of every span, in recording order."""
        child = [0.0] * len(self.spans)
        for job, name, layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, _, _, start, end, _), c in zip(self.spans, child)]

    def summary(self, job_seconds: float) -> dict:
        """Per-layer metrics for one pass whose jobs took ``job_seconds``."""
        selfs = self.self_times()
        by_name, by_layer, calls = {}, {mod: 0.0 for mod in MODULES}, {}
        for (job, name, layer, _, _, _), s in zip(self.spans, selfs):
            by_name[name] = by_name.get(name, 0.0) + s
            by_layer[layer] += s
            calls[name] = calls.get(name, 0) + 1
        out = {f"{mod}.self_s": by_layer[mod] for mod in MODULES}
        for metric, names in GROUPS.items():
            if names is None:
                out[metric] = by_layer[metric.split(".")[0]]
            else:
                out[metric] = sum(by_name.get(n, 0.0) for n in names)
        out["process_shadows.records"] = self.records
        out["records_io.bytes_per_record"] = (
            self.saved_bytes / self.saved_records if self.saved_records else 0.0)
        out["ensembles.frames"] = calls.get("ensembles.sample_frame", 0)
        out["qcore.apply_channel_calls"] = calls.get("qcore.apply_channel", 0)
        for mod in MODULES:
            out[f"{mod}.errors"] = self.errors[mod]
        out["trace.wall_s"] = job_seconds
        out["trace.unattributed_s"] = job_seconds - sum(by_layer.values())
        return out

    def write(self, path, workload: str) -> None:
        """Write every span as one JSON line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for job, name, layer, start, end, parent in self.spans:
                fh.write(json.dumps({"workload": workload, "job": job,
                                     "name": name, "layer": layer,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")


def _count_records(rec, result, args):
    rec.records += len(result)


def _count_saved(rec, result, args):
    rec.saved_records += len(args[1])
    rec.saved_bytes += os.path.getsize(args[0])


_COUNT_HOOKS = {
    "process_shadows.acquire_process_shadow": _count_records,
    "records_io.load_records": _count_records,
    "records_io.save_records": _count_saved,
}
