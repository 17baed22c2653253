"""Command-line front end.

``kgunits COMMAND [INPUT ...] [OPTIONS]`` runs one pipeline stage;
``pipeline`` chains them all and is byte-reproducible when seeded. The
``key=value`` lines of a ``--config`` file are read as the options they
name and give what no option gave. A stage reads what it needs (dataset,
partition, facts, models) from one ``Products`` object per input, which
computes each product once, so ``pipeline`` partitions, grounds and solves
its input once and every artifact of a run names the same UPRIs, seeded or
not. The downstream stages (``nanopub``, ``acl``) receive the dataset
``compounds.trig`` holds, in memory, and write the same bytes as a
stage-by-stage run on that file. Every command prints a ``key=value``
summary to stdout and writes artifacts atomically (temp file + rename), so
a failed run never leaves a partial file behind.

Exit codes: 0 success, 1 usage, 2 data error, 3 solver bound exceeded.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from functools import cached_property
from pathlib import Path
from typing import Iterable

from . import vocab
from .align import ProcessedGraph, align_graphs, render_report as render_alignment
from .compound import build_all, compound_quads, reconstruct_compounds, render_report
from .errors import BoundExceededError, KgUnitsError, ParseError, ProvenanceError
from .fdo import (
    AccessPolicy,
    ProvenanceRecord,
    UpriMinter,
    _parse_timestamp,
    apply_access_policy,
    emit_nanopublication,
    load_policy,
    redact_dataset,
    sha256_hex,
)
from .logic import (
    DEFAULT_BOUND,
    LogicProgram,
    ground_program,
    herbrand_size,
    parse_rules,
    render_atoms,
    stable_models,
)
from .rdfio import parse_quads, trig_pieces
from .schemas import compile_schema
from .store import DEFAULT_CATALOG, QuadDataset, is_absolute_iri, load_catalog, setting_lines
from .translate import (
    builtin_patterns,
    check_conflicts,
    default_rules,
    facts_from_units,
    parse_patterns,
    translate_to_owl,
)
from .owl import render_axioms
from .units import label_templates, partition as run_partition, render_dynamic_label


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _help_formatter(prog: str) -> argparse.HelpFormatter:
    """argparse's formatter at the width ``shutil.get_terminal_size`` gives,
    less 2, without importing ``shutil`` (which loads zlib, bz2 and lzma).
    A function, not a subclass: a formatter is in a reference cycle with its
    sections, and a kgunits subclass would leave kgunits objects to the
    cyclic collector."""
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns <= 0:
        try:
            columns = os.get_terminal_size(sys.__stdout__.fileno()).columns or 80
        except (AttributeError, ValueError, OSError):  # no stdout, or not a terminal
            columns = 80
    return argparse.HelpFormatter(prog, width=columns - 2)


def _write_atomic(path: Path, pieces: Iterable[str]):
    """Write ``path`` by renaming a temporary file beside it, so a failed write
    leaves the old file and no temporary one; an unwritable path is a usage error."""
    tmp = path.with_name(f".tmp-{os.getpid()}-{path.name}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)
        os.replace(tmp, path)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None
    finally:
        if os.path.exists(tmp):  # the write failed
            os.unlink(tmp)


def _write_trig(ctx: Context, name: str, dataset: QuadDataset):
    _write_atomic(ctx.out / name, trig_pieces(dataset, dict(ctx.catalog.prefixes)))


def _emit(summary: dict[str, object]):
    for key, value in summary.items():
        print(f"{key}={value}")


def _read_text(path: str) -> str:
    """A file named on the command line or in the config; bytes that are
    not UTF-8 are a data error, an unreadable file a usage error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8: {exc.reason} at byte {exc.start}") from None
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from None


def _parse(path: str) -> QuadDataset:
    return parse_quads(_read_text(path), "nquads" if path.endswith((".nq", ".nquads")) else "trig")


class Context:
    """Resolved configuration for one command invocation."""

    def __init__(self, args):
        self.inputs = args.inputs
        self.schemas_path = args.schemas
        self.catalog_path = args.catalog
        self.rules_paths = args.rules or []
        self.patterns_paths = args.patterns or []
        self.policy_path = args.policy
        self.namespace = vocab.DEFAULT_MINT_NS if args.namespace is None else args.namespace
        self.seed = args.seed
        self.out = Path(args.out or ".")
        self.bound = DEFAULT_BOUND if args.bound is None else args.bound
        if self.bound < 1:
            raise UsageError("--bound must be >= 1")
        self.created = args.created
        self.creator = vocab.SU_NS + "agent/cli" if args.creator is None else args.creator
        self.requester = {}
        for item in args.requester or []:
            key, sep, value = item.partition("=")
            if not sep:
                raise UsageError("--requester must be key=value")
            self.requester[key] = value

        for label, path in (
            [("input", path) for path in self.inputs]
            + [("schemas", self.schemas_path), ("catalog", self.catalog_path),
               ("policy", self.policy_path)]
            + [("rules", path) for path in self.rules_paths]
            + [("patterns", path) for path in self.patterns_paths]
        ):
            if path and not Path(path).exists():
                raise UsageError(f"{label} file does not exist: {path}")
            if path and Path(path).is_dir():
                raise UsageError(f"{label} is a directory: {path}")

        self.catalog = (
            load_catalog(_read_text(self.catalog_path)) if self.catalog_path else DEFAULT_CATALOG
        )
        self.schemas = compile_schema(_read_text(self.schemas_path)) if self.schemas_path else []
        self.products = Products(self, self.inputs)

    def minter(self, stage: str) -> UpriMinter:
        if self.seed is None:
            return UpriMinter(self.namespace)
        return UpriMinter(self.namespace, seed=hash_seed(self.seed, stage))

    def timestamp(self) -> str:
        if self.created:
            return self.created
        if self.seed is not None:
            # Seeded runs must be byte-reproducible; pin a stable stamp.
            return "2023-01-01T00:00:00+00:00"
        from datetime import datetime, timezone  # a seeded run does without it

        return datetime.now(timezone.utc).isoformat(timespec="seconds")

    def patterns(self):
        patterns = builtin_patterns(self.schemas, self.catalog)
        for path in self.patterns_paths:
            patterns.extend(parse_patterns(_read_text(path), self.catalog.prefixes))
        return patterns


class Products:
    """What the stages compute from one input dataset (parsed, or given): the
    dataset, its partition, its compound units, its facts, the rules, and
    their stable models over those facts. Each is computed on first use and
    kept, so every stage of a run reads the same partition (and the same
    UPRIs). It keeps the settings it reads, not the ``Context`` that holds
    it, so a finished run is freed by reference counting."""

    def __init__(self, ctx: Context, paths: list[str] = (), dataset: QuadDataset | None = None):
        self.paths = paths
        self.schemas, self.catalog, self.bound = ctx.schemas, ctx.catalog, ctx.bound
        self.rules_paths = ctx.rules_paths
        self.partition_minter = ctx.minter("partition")
        self.compound_minter = ctx.minter("compound")
        if dataset is not None:
            self.dataset = dataset  # shadows the cached property: nothing is parsed

    @cached_property
    def dataset(self) -> QuadDataset:
        if not self.paths:
            raise UsageError("no input file given")
        first, *rest = (_parse(path) for path in self.paths)
        return first.merge(*rest) if rest else first

    @cached_property
    def partition(self):
        return run_partition(self.dataset, self.schemas, self.catalog, self.partition_minter)

    @cached_property
    def compounds(self):
        """The compound units built over the partition, and the partition's
        dataset merged with their quads (what ``compounds.trig`` holds)."""
        result, catalog = self.partition, self.catalog
        compounds = build_all(result, catalog, self.compound_minter)
        return compounds, result.dataset.merge(compound_quads(list(compounds.all_units()), catalog))

    @cached_property
    def facts(self):
        return facts_from_units(self.partition, self.catalog)

    @cached_property
    def rules(self) -> LogicProgram:
        """The default rules, then those of each ``--rules`` file."""
        rules = list(default_rules(self.catalog).rules)
        for path in self.rules_paths:
            rules.extend(parse_rules(_read_text(path), self.catalog.prefixes).rules)
        return LogicProgram(tuple(rules))

    @cached_property
    def models(self) -> list:
        """The stable models of the relevant ground program (the rule instances
        whose positive body is derivable), which is built and not kept."""
        return stable_models(ground_program(self.rules, self.facts), bound=self.bound)


def hash_seed(seed: int, stage: str) -> int:
    return int(sha256_hex(f"{seed}:{stage}")[:12], 16)


def _with_config(parser: _Parser, args: argparse.Namespace) -> argparse.Namespace:
    """``args`` with each setting that no flag gave read from the config
    file, whose ``key=value`` lines the parser reads as the flags they name
    (``input=`` as an input)."""
    inputs, flags = [], []
    for lineno, line in setting_lines(_read_text(args.config)):
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise UsageError(f"config {args.config}: line {lineno} is not key=value: {line!r}")
        if key == "input":
            inputs.append(value)
        elif key in vars(args).keys() - {"command", "inputs", "config"}:
            flags.append(f"--{key}={value}")
        else:
            raise UsageError(f"config {args.config}: line {lineno}: unknown key {key!r}")
    try:
        given = parser.parse_intermixed_args([args.command, *inputs, *flags])
    except UsageError as exc:
        raise UsageError(f"config {args.config}: {exc}") from None
    for name, value in vars(given).items():
        if getattr(args, name) in (None, []):
            setattr(args, name, value)
    return args


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def stage_ingest(ctx: Context) -> dict:
    dataset = ctx.products.dataset
    data, units = dataset.split_layers(ctx.catalog)
    _write_trig(ctx, "dataset.trig", dataset)
    return {
        "quads": len(dataset),
        "data_quads": len(data),
        "units_quads": len(units),
        "graphs": len(dataset.graph_names()),
    }


def stage_partition(ctx: Context) -> dict:
    result = ctx.products.partition
    _write_trig(ctx, "organized.trig", result.dataset)
    _write_atomic(
        ctx.out / "units.tsv",
        (f"{u.upri}\t{u.subject}\t{','.join(sorted(u.classes))}\n" for u in result.units),
    )
    summary = {
        "statement_units": len(result.units),
        "identification_units": sum(1 for u in result.units if u.is_identification),
        "fallback_units": len(result.fallback_units),
        "adopted_units": sum(1 for u in result.units if u.adopted),
        "warnings": len(result.warnings),
    }
    for name, cls in (
        ("assertional_units", vocab.ASSERTIONAL_STATEMENT_UNIT),
        ("contingent_units", vocab.CONTINGENT_STATEMENT_UNIT),
        ("universal_units", vocab.UNIVERSAL_STATEMENT_UNIT),
        ("negation_units", vocab.NEGATION_UNIT),
        ("cardinality_units", vocab.CARDINALITY_RESTRICTION_UNIT),
        ("disagreement_units", vocab.DISAGREEMENT_UNIT),
        ("is_about_units", vocab.IS_ABOUT_STATEMENT_UNIT),
    ):
        summary[name] = sum(1 for u in result.units if cls in u.classes)
    return summary


def stage_compound(ctx: Context) -> dict:
    compounds, merged = ctx.products.compounds
    _write_trig(ctx, "compounds.trig", merged)
    _write_atomic(ctx.out / "compounds.tsv", [render_report(list(compounds.all_units()))])
    return {
        "typed_units": len(compounds.typed),
        "quality_measurement_units": len(compounds.quality),
        "item_units": len(compounds.items),
        "item_group_units": len(compounds.groups),
        "granularity_tree_units": len(compounds.trees.units),
        "granular_item_group_units": len(compounds.granular),
        "context_units": len(compounds.contexts.units),
        "context_boundaries": len(compounds.contexts.boundaries),
        "tree_cycles": len(compounds.trees.cycles),
        "identification_gaps": len(compounds.gaps),
    }


def stage_label(ctx: Context) -> dict:
    result = ctx.products.partition
    templates = label_templates(ctx.schemas, ctx.catalog)
    rows = []
    warned: set[str] = set()
    for u in result.units:
        label = render_dynamic_label(u, result.dataset, ctx.catalog, templates, warned=warned)
        rows.append(f"{u.upri}\t{label}\n")
    _write_atomic(ctx.out / "labels.tsv", rows)
    return {"labels": len(rows)}


def stage_reason(ctx: Context) -> dict:
    models = ctx.products.models
    # Only this summary reports the size of the Herbrand instantiation.
    ground_rules = herbrand_size(ctx.products.rules, ctx.products.facts)
    lines = []
    for i, model in enumerate(models):
        lines.append(f"# model {i}\n")
        atoms = sorted(model)
        lines.extend(line + "\n" for line in render_atoms(atoms, ctx.catalog.prefixes))
    _write_atomic(ctx.out / "models.txt", lines)
    return {
        "facts": len(ctx.products.facts),
        "ground_rules": ground_rules,
        "models": len(models),
    }


def stage_translate(ctx: Context) -> dict:
    models = ctx.products.models
    prefixes = dict(ctx.catalog.prefixes)
    patterns = ctx.patterns() if models else []
    sections = []
    axiom_count = 0
    for i, model in enumerate(models):
        axioms = translate_to_owl(model, patterns)
        axiom_count += len(axioms)
        if len(models) > 1:
            sections.append(f"# model {i}\n")
        sections.append(render_axioms(axioms, prefixes))
    _write_atomic(ctx.out / "axioms.txt", sections)

    model = models[0] if models else frozenset()
    report = check_conflicts(model, ctx.products.partition.units, prefixes, ctx.catalog)
    _write_atomic(ctx.out / "conflicts.txt", [
        *(f"classical\t{p}\t{n}\n" for p, n in report.classical),
        *(f"dispute\t{d}\t{target}\n" for d, target in report.disputes),
        *(f"suppressed\t{target}\n" for target in report.suppressed),
    ])
    return {
        "models": len(models),
        "axioms": axiom_count,
        "classical_conflicts": len(report.classical),
        "disputes": len(report.disputes),
    }


def stage_nanopub(ctx: Context) -> dict:
    result = ctx.products.partition
    record = ProvenanceRecord(creator=ctx.creator, created=ctx.timestamp())
    nanopubs = [
        emit_nanopublication(unit, record, record, ctx.catalog)
        for unit in [*result.units, *reconstruct_compounds(result.dataset, ctx.catalog)]
    ]
    # Their union is one dataset, whose canonical order fixes the bytes.
    _write_trig(ctx, "nanopubs.trig", QuadDataset(q for np in nanopubs for q in np))
    return {"nanopubs": len(nanopubs)}


def stage_align(ctx: Context) -> dict:
    if len(ctx.inputs) != 2:
        raise UsageError("align needs exactly two input files")
    graphs = []
    for i, path in enumerate(ctx.inputs):
        part = run_partition(
            _parse(path), ctx.schemas, ctx.catalog, ctx.minter(f"align-{i}")
        )
        compounds = build_all(part, ctx.catalog, ctx.minter(f"align-compound-{i}"))
        graphs.append(ProcessedGraph(part, compounds, ctx.catalog))
    report = align_graphs(graphs[0], graphs[1])
    _write_atomic(ctx.out / "alignment.tsv", [render_alignment(report)])
    perfect = sum(1 for c in report.correspondences if c.score == 1)
    return {
        "correspondences": len(report.correspondences),
        "perfect": perfect,
        "unmatched_left": len(report.unmatched_left),
        "unmatched_right": len(report.unmatched_right),
    }


def stage_acl(ctx: Context) -> dict:
    result = ctx.products.partition
    policy = (
        load_policy(_read_text(ctx.policy_path))
        if ctx.policy_path
        else AccessPolicy()
    )
    decision = apply_access_policy(
        list(result.units), policy, result.dataset, ctx.catalog, ctx.requester
    )
    redacted = redact_dataset(result.dataset, decision.hidden, ctx.catalog)
    _write_trig(ctx, "visible.trig", redacted)
    return {
        "visible_units": len(decision.visible),
        "hidden_units": len(decision.hidden),
        "opaque_references": len(decision.opaque_references),
    }


def stage_pipeline(ctx: Context) -> dict:
    summary: dict[str, object] = {}
    for name in ("ingest", "partition", "compound", "label", "reason", "translate"):
        summary.update(_STAGES[name](ctx))
    # Downstream stages receive the dataset compounds.trig holds, in memory:
    # it parses back to the same dataset, so the bytes are those of a
    # stage-by-stage run. The input's other products are dropped with it.
    ctx.products = Products(ctx, dataset=ctx.products.compounds[1])
    for name in ("nanopub", "acl") if ctx.policy_path else ("nanopub",):
        summary.update(_STAGES[name](ctx))
    return summary


_STAGES = {
    "ingest": stage_ingest,
    "partition": stage_partition,
    "compound": stage_compound,
    "label": stage_label,
    "reason": stage_reason,
    "translate": stage_translate,
    "nanopub": stage_nanopub,
    "align": stage_align,
    "acl": stage_acl,
    "pipeline": stage_pipeline,
}


def _absolute_iri(value: str) -> str:
    if not is_absolute_iri(value):
        raise argparse.ArgumentTypeError(f"not an absolute IRI: {value!r}")
    return value


def _timestamp(value: str) -> str:
    try:
        _parse_timestamp(value)
    except ProvenanceError:
        raise argparse.ArgumentTypeError(f"not an ISO-8601 timestamp: {value!r}") from None
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="kgunits", description=__doc__, formatter_class=_help_formatter)
    parser.add_argument("command", choices=list(_STAGES), help="stage to run")
    parser.add_argument("inputs", nargs="*", default=[], help="input dataset file(s)")
    parser.add_argument("--config", help="key=value config file; flags override it")
    parser.add_argument("--schemas", help="statement schema document")
    parser.add_argument("--catalog", help="vocabulary catalog document")
    parser.add_argument("--rules", action="append", help="rule file (repeatable)")
    parser.add_argument("--patterns", action="append", help="pattern file (repeatable)")
    parser.add_argument("--policy", help="access policy document")
    parser.add_argument("--namespace", type=_absolute_iri, help="mint namespace for new identifiers")
    parser.add_argument("--seed", type=int, help="deterministic mint seed")
    parser.add_argument("--out", default=os.environ.get("KGUNITS_OUT") or None,
                        help="output directory (else env KGUNITS_OUT, else config out=, else .)")
    parser.add_argument("--bound", type=int,
                        help=f"most default-negated atoms the solver takes (default {DEFAULT_BOUND})")
    parser.add_argument("--created", type=_timestamp, help="fixed ISO timestamp for provenance")
    parser.add_argument("--creator", help="agent identifier for provenance")
    parser.add_argument(
        "--requester",
        action="append",
        help="requester attribute key=value (repeatable, acl only)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command. The cyclic collector is off while it runs: a run
    builds many small objects, mostly acyclic, and a finished run is freed
    by reference counting. The caller's collector is switched back on."""
    argv = argv if argv is not None else sys.argv[1:]
    parser = build_parser()
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = parser.parse_intermixed_args(argv)
        ctx = Context(_with_config(parser, args) if args.config else args)
        summary = _STAGES[args.command](ctx)
        _emit(summary)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print(parser.format_usage(), file=sys.stderr, end="")
        return 1
    except BoundExceededError as exc:
        print(f"limit error: {exc}", file=sys.stderr)
        return 3
    except KgUnitsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
