"""Span recording around kgunits' public functions, and the per-layer
metrics derived from the spans.

The recorder runs inside the child process that executes one CLI
operation. It replaces each public function of the layer modules (and the
public ``QuadDataset`` methods) with a wrapper that records a span: name,
start, end, parent span and operation id. Modules that imported a function
by name get the same wrapper. Spans stay in memory and are written as JSON
lines when the operation ends.

The derivation half (``self_times`` onwards) is pure and has no kgunits
dependency, so the benchmark's tests can run it on synthetic span trees.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
from time import perf_counter

LAYERS = ("rdfio", "store", "schemas", "units", "compound", "logic", "translate",
          "owl", "fdo", "align", "cli")
EXP_LAYERS = ("rdfio", "store", "units", "compound", "logic", "translate", "fdo", "align")

# Leaf helpers called once per term or per quad. A wrapper costs more than
# their body, so wrapping them would measure the wrapper; their time stays
# in the calling span's self time.
UNWRAPPED = frozenset({
    "store.is_absolute_iri", "store.local_name", "store.term_key",
    "logic.is_variable", "translate.skolem",
})

STAGES = ("ingest", "partition", "compound", "label", "reason", "translate", "nanopub",
          "align", "acl")
COMPOUND_BUILDERS = {
    "typed": "build_typed_statement_units",
    "quality": "build_quality_measurement_units",
    "items": "build_item_units",
    "groups": "build_item_group_units",
    "trees": "build_granularity_tree_units",
    "granular": "build_granular_item_groups",
    "contexts": "build_context_units",
}


# ---------------------------------------------------------------------------
# Recording (child process)
# ---------------------------------------------------------------------------


def _size(_args, result):
    return len(result)


def _bytes(_args, result):
    return len(result.encode("utf-8"))


def _graph_scan(args, result):
    return [len(args[0]), len(result)]


def _keep(args, result):
    """Keep the objects themselves; they are measured after the operation,
    outside every span."""
    return (args, result)


PROBES = {
    "rdfio.serialize_quads": _bytes,
    "rdfio.serialize_trig": _bytes,
    "rdfio.serialize_nquads": _bytes,
    "store.QuadDataset.graph": _graph_scan,
    "units.partition": lambda a, r: len(r.units),
    "compound.build_all": lambda a, r: len(r.all_units()),
    "logic.ground_program": lambda a, r: len(r.rules),
    "logic.stable_models": _keep,
    "translate.facts_from_units": _size,
    "translate.translate_to_owl": _size,
    "align.align_graphs": _keep,
}


class Recorder:
    """In-memory span store for one operation."""

    def __init__(self, op: str):
        self.op = op
        self.spans: list[list] = []  # [name, start, end, parent, value]
        self._stack: list[int] = []
        self.wrapped: list[str] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, None])
        self._stack.append(index)
        self.spans[index][1] = perf_counter()
        return index

    def close(self, index: int):
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        probe = PROBES.get(name)
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(index)
            if probe is not None:
                try:
                    recorder.spans[index][4] = probe(args, result)
                except (AttributeError, TypeError):
                    pass  # the result changed shape; the metric reads 0
            return result

        return wrapper

    def install(self):
        """Wrap every public function of the layer modules, in its defining
        module and wherever another kgunits module imported it by name."""
        modules = {}
        for name in LAYERS:
            try:
                modules[name] = importlib.import_module(f"kgunits.{name}")
            except ImportError:
                continue  # its metrics read 0 and its names are reported missing
        importers = list(modules.values()) + [importlib.import_module("kgunits")]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__ or name in UNWRAPPED):
                    continue
                wrapper = self.wrap(name, fn)
                for other in importers:
                    for alias, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, alias, wrapper)
                        elif type(value) is dict:
                            # Dispatch tables such as the CLI's stage map.
                            for key, entry in list(value.items()):
                                if entry is fn:
                                    value[key] = wrapper
                self.wrapped.append(name)
        dataset = getattr(modules.get("store"), "QuadDataset", object)
        for attr, fn in list(vars(dataset).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            setattr(dataset, attr, self.wrap(f"store.QuadDataset.{attr}", fn))
            self.wrapped.append(f"store.QuadDataset.{attr}")

    def finish(self) -> list[dict]:
        """Spans as dicts, with kept objects reduced to plain numbers."""
        out = []
        for name, start, end, parent, value in self.spans:
            if value is not None and name in _REDUCERS:
                try:
                    value = _REDUCERS[name](*value)
                except (AttributeError, TypeError, IndexError):
                    value = None  # the objects changed shape; the metric reads 0
            out.append({"name": name, "start": start, "end": end, "parent": parent,
                        "op": self.op, "value": value})
        return out

    def write(self, path: str):
        """Reduce the kept objects inside a last root span, then write."""
        index = self.open("bench.finish")
        spans = self.finish()
        self.close(index)
        spans[index]["end"] = self.spans[index][2]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"wrapped": self.wrapped}) + "\n")
            for span in spans:
                handle.write(json.dumps(span) + "\n")


def _solver_counts(args, models) -> list:
    """[ground rules, atoms, ground rules whose positive body holds]."""
    rules = args[0].rules
    atoms = set()
    for rule in rules:
        atoms.add(rule.head)
        atoms.update(rule.positive)
        atoms.update(rule.negative)
    model = models[0] if models else frozenset()
    useful = sum(1 for rule in rules if all(a in model for a in rule.positive))
    return [len(rules), len(atoms), useful]


def _alignment_counts(_args, report) -> list:
    """[correspondences, correspondences with score 1]."""
    return [len(report.correspondences),
            sum(1 for c in report.correspondences if c.score == 1)]


_REDUCERS = {"logic.stable_models": _solver_counts, "align.align_graphs": _alignment_counts}


def read_spans(path) -> tuple[list[str], list[dict]]:
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    wrapped = json.loads(lines[0])["wrapped"]
    return wrapped, [json.loads(line) for line in lines[1:]]


# ---------------------------------------------------------------------------
# Derivation (parent process, pure)
# ---------------------------------------------------------------------------


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are merged first)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] >= 0:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = []
    for index, span in enumerate(spans):
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def aggregate(spans: list[dict]) -> dict[str, dict]:
    """Per span name: call count, summed self time and the probe values."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for span, own in zip(spans, selfs):
        entry = out.setdefault(span["name"], {"calls": 0, "self_s": 0.0, "values": []})
        entry["calls"] += 1
        entry["self_s"] += own
        if span["value"] is not None:
            parent = spans[span["parent"]]["name"] if span["parent"] >= 0 else ""
            entry["values"].append((span["value"], parent))
    return out


def _self(agg, *names) -> float:
    return sum(agg[n]["self_s"] for n in names if n in agg)


def _calls(agg, *names) -> int:
    return sum(agg[n]["calls"] for n in names if n in agg)


def _values(agg, name, outermost_of: str | None = None) -> list:
    """Probe values of a span name; with ``outermost_of``, skip spans whose
    parent name starts with that prefix (a wrapper calling a wrapped
    sibling, such as serialize_quads calling serialize_trig)."""
    if name not in agg:
        return []
    return [v for v, parent in agg[name]["values"]
            if outermost_of is None or not parent.startswith(outermost_of)]


# Span names each metric reads; a name missing from the wrapped set after
# a refactor is reported instead of failing the run.
REQUIRED = (
    ["rdfio.parse_quads", "rdfio.serialize_quads", "store.load_catalog",
     "store.QuadDataset.split_layers", "store.QuadDataset.graph", "store.classify_resource",
     "schemas.compile_schema", "units.partition", "units.render_dynamic_label",
     "units.label_index", "compound.build_all", "logic.parse_rules", "logic.ground_program",
     "logic.stable_models", "translate.builtin_patterns", "translate.facts_from_units",
     "translate.translate_to_owl", "translate.check_conflicts", "owl.render_axioms",
     "fdo.emit_nanopublication", "compound.reconstruct_compounds", "fdo.apply_access_policy",
     "fdo.redact_dataset", "align.align_graphs", "cli.main"]
    + [f"compound.{fn}" for fn in COMPOUND_BUILDERS.values()]
    + [f"cli.stage_{stage}" for stage in STAGES]
)


def op_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced operation."""
    agg = aggregate(spans)
    m: dict[str, float] = {}
    for stage in STAGES:
        m[f"cli.stage_s.{stage}"] = _self(agg, f"cli.stage_{stage}")

    parse = ("rdfio.parse_quads", "rdfio.parse_trig", "rdfio.parse_nquads")
    serialize = ("rdfio.serialize_quads", "rdfio.serialize_trig", "rdfio.serialize_nquads")
    m["rdfio.parse_s"] = _self(agg, *parse)
    m["rdfio.parse_calls"] = sum(
        1 for s in spans if s["name"] in parse
        and not (s["parent"] >= 0 and spans[s["parent"]]["name"] in parse))
    m["rdfio.serialize_s"] = _self(agg, *serialize)
    outer = [v for n in serialize for v in _values(agg, n, outermost_of="rdfio.serialize")]
    m["rdfio.serialize_calls"] = len(outer)
    m["rdfio.bytes_out"] = sum(outer)

    m["store.load_catalog_s"] = _self(agg, "store.load_catalog")
    m["store.split_layers_calls"] = _calls(agg, "store.QuadDataset.split_layers")
    m["store.split_layers_s"] = _self(agg, "store.QuadDataset.split_layers")
    m["store.graph_calls"] = _calls(agg, "store.QuadDataset.graph")
    m["store.graph_s"] = _self(agg, "store.QuadDataset.graph")
    scans = _values(agg, "store.QuadDataset.graph")
    returned = sum(r for _, r in scans)
    m["store.graph_scan_ratio"] = sum(n for n, _ in scans) / returned if returned else 0.0
    m["store.classify_calls"] = _calls(agg, "store.classify_resource")
    m["store.classify_s"] = _self(agg, "store.classify_resource")

    m["schemas.compile_s"] = _self(agg, "schemas.compile_schema")

    m["units.partition_calls"] = _calls(agg, "units.partition")
    m["units.partition_s"] = _self(agg, "units.partition")
    m["units.statement_units"] = sum(_values(agg, "units.partition"))
    m["units.label_calls"] = _calls(agg, "units.render_dynamic_label")
    m["units.label_s"] = _self(agg, "units.render_dynamic_label")
    m["units.label_index_calls"] = _calls(agg, "units.label_index")

    m["compound.build_all_s"] = _self(agg, "compound.build_all")
    for short, fn in COMPOUND_BUILDERS.items():
        m[f"compound.{short}_s"] = _self(agg, f"compound.{fn}")
    m["compound.compound_units"] = sum(_values(agg, "compound.build_all"))

    m["logic.parse_rules_s"] = _self(agg, "logic.parse_rules")
    m["logic.ground_s"] = _self(agg, "logic.ground_program")
    m["logic.ground_rules"] = sum(_values(agg, "logic.ground_program"))
    solver = _values(agg, "logic.stable_models")
    rules = sum(v[0] for v in solver)
    m["logic.atoms"] = sum(v[1] for v in solver)
    m["logic.useful_ground_share"] = sum(v[2] for v in solver) / rules if rules else 0.0
    m["logic.solve_s"] = _self(agg, "logic.stable_models", "logic.least_model",
                               "logic.program_atoms")

    m["translate.patterns_s"] = _self(agg, "translate.builtin_patterns",
                                      "translate.parse_patterns")
    m["translate.facts_s"] = _self(agg, "translate.facts_from_units")
    m["translate.facts"] = sum(_values(agg, "translate.facts_from_units"))
    m["translate.owl_s"] = _self(agg, "translate.translate_to_owl")
    m["translate.axioms"] = sum(_values(agg, "translate.translate_to_owl"))
    m["translate.conflicts_s"] = _self(agg, "translate.check_conflicts")

    m["owl.render_s"] = _self(agg, "owl.render_axioms", "owl.render_axiom", "owl.render_expr")

    m["fdo.emit_calls"] = _calls(agg, "fdo.emit_nanopublication")
    m["fdo.emit_s"] = _self(agg, "fdo.emit_nanopublication")
    m["fdo.reconstruct_s"] = _self(agg, "compound.reconstruct_compounds",
                                   "fdo.parse_nanopublication")
    m["fdo.policy_s"] = _self(agg, "fdo.apply_access_policy", "fdo.load_policy")
    m["fdo.redact_s"] = _self(agg, "fdo.redact_dataset")

    aligned = _values(agg, "align.align_graphs")
    correspondences = sum(v[0] for v in aligned)
    m["align.align_s"] = _self(agg, "align.align_graphs", "align.render_report")
    m["align.correspondences"] = correspondences
    m["align.perfect_share"] = (
        sum(v[1] for v in aligned) / correspondences if correspondences else 0.0)
    return m


def layer_self(spans: list[dict]) -> dict[str, float]:
    """Summed self time of every span of each layer module."""
    out = {layer: 0.0 for layer in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        layer = span["name"].split(".", 1)[0]
        if layer in out:
            out[layer] += own
    return out


def exponent(full: float, quarter: float) -> float:
    """Scaling exponent between a quarter-size and a full-size run
    (0 when the layer did no measurable work in either)."""
    if full <= 0 or quarter <= 0:
        return 0.0
    return math.log(full / quarter) / math.log(4)


def missing_names(wrapped: list[str]) -> list[str]:
    present = set(wrapped)
    return [name for name in REQUIRED if name not in present]
