from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgunits import cli, compile_schema, load_catalog, parse_quads, partition, units, vocab
from kgunits.cli import _write_trig, main
from kgunits.compound import reconstruct_compounds
from kgunits.errors import CatalogError
from kgunits.fdo import ProvenanceRecord, UpriMinter, emit_nanopublication, load_policy
from kgunits.logic import Atom, render_atoms
from kgunits.owl import ClassAssertion
from kgunits.rdfio import parse_trig, serialize_nquads, serialize_trig
from kgunits.store import _TERMS, DEFAULT_CATALOG, Iri, Literal, Quad, QuadDataset, setting_lines
from kgunits.translate import parse_patterns

from conftest import FIXTURES, benchmark_module, fixture_text

gen = benchmark_module("gen")


def run(capsys, *argv) -> tuple[int, dict[str, str]]:
    code = main(list(argv))
    out = capsys.readouterr().out
    summary = {}
    for line in out.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            summary[key] = value
    return code, summary


def common(tmp_path, *extra):
    return [
        "--schemas",
        str(FIXTURES / "schemas.sus"),
        "--catalog",
        str(FIXTURES / "catalog.cat"),
        "--out",
        str(tmp_path),
        "--seed",
        "1",
        *extra,
    ]


def test_unknown_command_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower()


def test_missing_command_usage_error(capsys):
    assert main([]) == 1


def test_missing_input_file_usage_error(capsys, tmp_path):
    code = main(["partition", str(tmp_path / "nope.trig"), *common(tmp_path)])
    assert code == 1


def test_every_input_is_checked(capsys, tmp_path):
    good = str(FIXTURES / "hand_assertional.trig")
    for extra in (str(tmp_path / "missing.trig"), str(tmp_path)):
        assert main(["ingest", good, extra, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert extra in err and "Traceback" not in err


@pytest.mark.parametrize("where", ["input", "config"])
def test_non_utf8_file_is_data_error(capsys, tmp_path, where):
    latin1 = tmp_path / "latin1.trig"
    latin1.write_bytes("# Gr\u00f6\u00dfe\n".encode("latin-1"))
    good = str(FIXTURES / "hand_assertional.trig")
    argv = ["ingest", str(latin1)] if where == "input" else [
        "ingest", good, "--config", str(latin1)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "not UTF-8" in err and "Traceback" not in err


def test_malformed_input_is_data_error(capsys, tmp_path):
    bad = tmp_path / "bad.trig"
    bad.write_text("ex:s ex:p ex:o .", encoding="utf-8")
    code = main(["partition", str(bad), *common(tmp_path)])
    assert code == 2


def test_truncated_escape_is_data_error(capsys, tmp_path):
    bad = tmp_path / "bad.trig"
    bad.write_text('@prefix ex: <https://example.org/> .\nex:s ex:p "abc\\u12', encoding="utf-8")
    assert main(["partition", str(bad), *common(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "truncated unicode escape" in err and "Traceback" not in err


@pytest.mark.parametrize("obj", ['"x\\u+041"', "<https://example.org/x\\u0_41>", '"x\\uD800"'])
def test_non_hex_escape_digit_is_data_error(capsys, tmp_path, obj):
    bad = tmp_path / "bad.trig"
    bad.write_text(f"@prefix ex: <https://example.org/> .\nex:s ex:p {obj} .\n", encoding="utf-8")
    assert main(["partition", str(bad), *common(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "invalid unicode escape" in err and "Traceback" not in err


def test_unclosed_label_brace_is_data_error(capsys, tmp_path):
    schemas = tmp_path / "bad.sus"
    schemas.write_text(
        fixture_text("schemas.sus").replace('"{s} has part {o}"', '"{s} has part {o"'),
        encoding="utf-8",
    )
    argv = ["label", str(FIXTURES / "hand_assertional.trig"), "--schemas", str(schemas)]
    assert main([*argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "schema https://example.org/su-class/has-part: label" in err
    assert "Traceback" not in err


def test_write_atomic_failing_partway_keeps_the_old_file(tmp_path):
    target = tmp_path / "out.trig"
    target.write_bytes(b"old bytes\n")

    def pieces():
        yield "x" * 100_000  # more than the write buffer: the temp file has bytes
        raise RuntimeError("piece failed")

    with pytest.raises(RuntimeError, match="piece failed"):
        cli._write_atomic(target, pieces())
    assert target.read_bytes() == b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.trig"]


@pytest.mark.parametrize("out", ["some_file/sub", "."], ids=["out-under-a-file", "artifact-is-a-dir"])
def test_unwritable_out_is_usage_error(capsys, tmp_path, out):
    """An ``--out`` under a file, or an artifact name taken by a directory,
    is exit 1 with no traceback and no temporary file left behind."""
    (tmp_path / "some_file").write_text("x")
    (tmp_path / "dataset.trig").mkdir()
    assert main(["ingest", str(FIXTURES / "travel.trig"), "--out", str(tmp_path / out)]) == 1
    err = capsys.readouterr().err
    assert "cannot write" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dataset.trig", "some_file"]
    assert list((tmp_path / "dataset.trig").iterdir()) == []


def test_artifacts_are_written_with_the_umask_mode(capsys, tmp_path):
    argv = ["pipeline", str(FIXTURES / "travel.trig"), "--out", str(tmp_path), "--seed", "1"]
    previous = os.umask(0o022)
    try:
        assert main(argv) == 0
    finally:
        os.umask(previous)
    modes = {p.name: oct(p.stat().st_mode & 0o777) for p in tmp_path.iterdir()}
    assert set(modes.values()) == {"0o644"}, modes


def test_a_stale_temporary_file_does_not_fail_the_write(capsys, tmp_path):
    """A killed run leaves its temporary file; a later run of the same pid
    overwrites it and renames it into place."""
    stale = tmp_path / f".tmp-{os.getpid()}-dataset.trig"
    stale.write_text("left by a killed run\n")
    assert main(["ingest", str(FIXTURES / "travel.trig"), "--out", str(tmp_path)]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["dataset.trig"]
    assert "left by a killed run" not in (tmp_path / "dataset.trig").read_text(encoding="utf-8")


@pytest.mark.parametrize("graphs, groups", [(250, 250), (1, 500)], ids=["many-graphs", "one-graph"])
def test_writing_trig_holds_the_document_about_once(tmp_path, graphs, groups):
    """The TriG writer's peak heap stays under 1.5 times the file it writes,
    on a dataset of many small graphs as ``nanopubs.trig`` has and on one
    graph as a raw ``dataset.trig`` has: it holds pieces of a bounded number
    of lines, not a string per line and then the joined document. The
    compaction memo grows with the distinct IRIs, so they repeat here as
    they do in a knowledge graph."""
    ex = "https://example.org/kg/"
    dataset = QuadDataset(
        Quad(
            f"{ex}r{(g + i) % 50}",
            vocab.RDFS_LABEL if i % 2 else vocab.RDF_TYPE,
            Literal(f"resource {g}-{i}, as one assertion names it") if i % 2 else Iri(f"{ex}C{i}"),
            f"{ex}np{g % graphs}/assertion",
        )
        for g in range(groups)
        for i in range(8)
    )
    assert len(dataset) >= 2000 and len(dataset.graph_names()) == graphs
    ctx = SimpleNamespace(out=tmp_path, catalog=DEFAULT_CATALOG)
    tracemalloc.start()
    try:
        cli._write_trig(ctx, "many.trig", dataset)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = (tmp_path / "many.trig").stat().st_size
    assert peak < 1.5 * size, (peak, size)


def test_partition_summary_and_artifacts(capsys, tmp_path):
    code, summary = run(
        capsys, "partition", str(FIXTURES / "hand_assertional.trig"), *common(tmp_path)
    )
    assert code == 0
    assert summary["statement_units"] == "3"
    assert summary["identification_units"] == "2"
    assert (tmp_path / "organized.trig").exists()
    assert (tmp_path / "units.tsv").exists()


HASH_SEED_RUNS = {
    "pipeline": ["pipeline", FIXTURES / "endangered.trig", "--policy", FIXTURES / "endangered.pol"],
    "translate": ["translate", FIXTURES / "hand_assertional.trig",
                  FIXTURES / "fruit_disagreement.trig", "--rules", FIXTURES / "thumb.lp"],
    "align": ["align", FIXTURES / "antenna_item.trig", FIXTURES / "antenna_triangle.trig"],
}


# The benchmark's generated inputs, as ``workload:seed``, at a size that is
# not a multiple of any workload's record mix.
GENERATED_HASH_SEED_RUNS = [f"{w}:{seed}" for w in gen.WORKLOADS for seed in (2, 5)]


@pytest.mark.parametrize("command", [*sorted(HASH_SEED_RUNS), *GENERATED_HASH_SEED_RUNS])
def test_seeded_runs_are_identical_under_every_hash_seed(tmp_path, command):
    """A seeded run writes the same exit code, stdout, stderr and artifact
    bytes whatever ``PYTHONHASHSEED`` orders its sets and dicts by, on
    fixtures and on each benchmark workload's generated input."""
    src = str(Path(cli.__file__).resolve().parents[1])
    if command in HASH_SEED_RUNS:
        argv, cwd = [*map(str, HASH_SEED_RUNS[command])], None
    else:
        workload, seed = command.split(":")
        cwd = tmp_path / "input"
        argv = gen.generate(workload, int(seed), 13, cwd)["argv"]
    outcomes = []
    for hash_seed in ("0", "1", "2"):
        out = tmp_path / hash_seed
        result = subprocess.run(
            [sys.executable, "-m", "kgunits.cli", *argv,
             *(common(out) if cwd is None else ["--out", str(out)])],
            capture_output=True,
            cwd=cwd,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
        )
        artifacts = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        outcomes.append((result.returncode, result.stdout, result.stderr, artifacts))
    assert outcomes[0][0] == 0 and outcomes[0][3]
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]


_AFFILIATIONS = {vocab.RDF_TYPE, vocab.SOME_INSTANCE_OF, vocab.EVERY_INSTANCE_OF}


def _renamable(path) -> bool:
    """Whether the fixture has class affiliations."""
    return any(q.predicate in _AFFILIATIONS for q in parse_trig(fixture_text(path.name)))


_RENAMABLE = sorted(path.name for path in FIXTURES.glob("*.trig") if _renamable(path))
_RENAMED = "https://example.org/renamed/"
_RENAMING_PATTERNS = (
    "pattern identified-subject\n"
    "when su:NamedIndividualIdentificationUnit(U), su:hasSemanticUnitSubject(U, Y)\n"
    "emit ClassAssertion(<https://example.org/kg/Identified>, Y)\n"
)


@pytest.mark.parametrize("name", _RENAMABLE)
def test_renaming_the_affiliation_terms_changes_no_unit_compound_or_label(tmp_path, capsys, name):
    """Metamorphic: give all 14 catalog terms new IRIs ``ren:<term>`` at
    once, in the catalog, the input quads and the rule and pattern files.
    stdout, the units' classes and subjects, the compounds' kinds and
    classes, ``labels.tsv`` and ``conflicts.txt`` stay the same, and so do
    ``models.txt`` and ``axioms.txt`` once each ``ren:<term>`` reads as the
    old term again (within each model, since the new IRIs sort elsewhere).
    A disagreement unit is found with the catalog's ``type`` too. The new
    IRIs keep their local names, which a fallback label shows."""
    catalog = load_catalog(fixture_text("catalog.cat"))
    old = {key: getattr(catalog, field) for key, field in _TERMS.items()}
    written = {key: render_atoms([Atom(iri)], catalog.prefixes)[0] for key, iri in old.items()}
    renamed = {iri: _RENAMED + key for key, iri in old.items()}

    def rename(iri: str) -> str:
        return renamed.get(iri, iri)

    (tmp_path / "renamed.cat").write_text(
        fixture_text("catalog.cat")
        + f"prefix ren: <{_RENAMED}>\n"
        + "".join(f"term {key} <{_RENAMED}{key}>\n" for key in old),
        encoding="utf-8",
    )
    (tmp_path / "renamed.trig").write_text(serialize_trig(QuadDataset(
        Quad(rename(q.subject), rename(q.predicate),
             Iri(rename(q.object.value)) if isinstance(q.object, Iri) else q.object, rename(q.graph))
        for q in parse_trig(fixture_text(name))
    )), encoding="utf-8")
    (tmp_path / "catalog.pat").write_text(_RENAMING_PATTERNS, encoding="utf-8")
    for settings, text in (("lp", fixture_text("thumb.lp")), ("pat", _RENAMING_PATTERNS)):
        for key, before in written.items():
            text = text.replace(f"{before}(", f"ren:{key}(")
        (tmp_path / f"renamed.{settings}").write_text(text, encoding="utf-8")

    def as_before(path) -> list[list[str]]:
        """The file's lines with each ``ren:<term>`` read as the old term,
        sorted within each ``# model`` section."""
        text = re.sub(r"ren:(\w+)", lambda m: written[m.group(1)], path.read_text(encoding="utf-8"))
        sections = re.split(r"^# model \d+\n", text, flags=re.M)
        return [sorted(section.splitlines()) for section in sections]

    runs = []
    for path, settings in ((FIXTURES / name, "catalog"), (tmp_path / "renamed.trig", "renamed")):
        out = tmp_path / settings
        cat = tmp_path / f"{settings}.cat" if settings == "renamed" else FIXTURES / "catalog.cat"
        rules = tmp_path / "renamed.lp" if settings == "renamed" else FIXTURES / "thumb.lp"
        argv = ["--schemas", str(FIXTURES / "schemas.sus"), "--catalog", str(cat),
                "--rules", str(rules), "--patterns", str(tmp_path / f"{settings}.pat"),
                "--seed", "1", "--out", str(out)]
        assert main(["pipeline", str(path), *argv]) == 0
        stdout = capsys.readouterr().out
        compounds = reconstruct_compounds(
            parse_trig((out / "compounds.trig").read_text(encoding="utf-8")),
            load_catalog(cat.read_text(encoding="utf-8")),
        )
        runs.append((
            stdout,
            *((out / f).read_bytes() for f in ("units.tsv", "compounds.tsv", "labels.tsv", "conflicts.txt")),
            [(c.upri, c.kind, c.classes) for c in compounds],
            as_before(out / "models.txt"),
            as_before(out / "axioms.txt"),
        ))
    assert runs[1] == runs[0]


@pytest.mark.parametrize("columns", ["40", "80", "120", None])
def test_help_is_argparse_default_help_at_every_width(columns):
    """``--help`` prints what argparse's own formatter prints, at the width
    it takes from ``$COLUMNS``, or from stdout when that is not a terminal."""
    env = {k: v for k, v in os.environ.items() if k != "COLUMNS"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    if columns is not None:
        env["COLUMNS"] = columns
    default = (
        "import argparse; from kgunits import cli; parser = cli.build_parser(); "
        "parser.formatter_class = argparse.HelpFormatter; parser.print_help()"
    )
    ours, theirs = (
        subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, check=True)
        for argv in (["-m", "kgunits.cli", "--help"], ["-c", default])
    )
    assert ours.stdout == theirs.stdout
    assert "{ingest,partition," in ours.stdout


def test_partition_seeded_runs_byte_identical(capsys, tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["partition", str(FIXTURES / "hand_assertional.trig"), *common(out1)]) == 0
    assert main(["partition", str(FIXTURES / "hand_assertional.trig"), *common(out2)]) == 0
    for name in ("organized.trig", "units.tsv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_options_may_come_before_between_or_after_inputs(capsys, tmp_path):
    bare, weight = str(FIXTURES / "hand_bare.trig"), str(FIXTURES / "weight.trig")
    argvs = {
        "after": ["partition", bare, weight, "--seed", "1"],
        "before": ["partition", "--seed", "1", bare, weight],
        "between": ["partition", bare, "--seed", "1", weight],
        "first": ["--seed", "1", "partition", bare, weight],
    }
    for name, argv in argvs.items():
        assert main([*argv, "--out", str(tmp_path / name)]) == 0, name
    capsys.readouterr()
    units = {(tmp_path / name / "units.tsv").read_bytes() for name in argvs}
    assert len(units) == 1


def test_pipeline_reports_three_context_units(capsys, tmp_path):
    code, summary = run(
        capsys, "pipeline", str(FIXTURES / "publication_frames.trig"), *common(tmp_path)
    )
    assert code == 0
    assert summary["context_units"] == "3"
    for artifact in (
        "dataset.trig",
        "organized.trig",
        "compounds.trig",
        "compounds.tsv",
        "labels.tsv",
        "models.txt",
        "axioms.txt",
        "conflicts.txt",
        "nanopubs.trig",
    ):
        assert (tmp_path / artifact).exists(), artifact



def test_pipeline_travel_without_adjunct(capsys, tmp_path):
    text = (FIXTURES / "travel.trig").read_text(encoding="utf-8")
    text = text.replace(' ;\n        rel:travels-on "29th of June 2022"', "")
    assert "travels-on" not in text
    source = tmp_path / "travel.trig"
    source.write_text(text, encoding="utf-8")
    code, _ = run(capsys, "pipeline", str(source), *common(tmp_path / "out"))
    assert code == 0
    labels = (tmp_path / "out" / "labels.tsv").read_text(encoding="utf-8")
    assert "\tCarla travels by train from Paris to Berlin\n" in labels

STAGEWISE_ARTIFACTS = (
    "dataset.trig",
    "organized.trig",
    "units.tsv",
    "compounds.trig",
    "compounds.tsv",
    "labels.tsv",
    "models.txt",
    "axioms.txt",
    "conflicts.txt",
    "nanopubs.trig",
)


def assert_pipeline_matches_stages(capsys, tmp_path, source, extra=(), artifacts=()):
    """``pipeline`` writes the same bytes as the stages run one by one, the
    downstream ones on the compound stage's ``compounds.trig``. Returns the
    sha256 of each pipeline artifact and of the pipeline's stdout."""
    pipe_out = tmp_path / "pipe"
    stage_out = tmp_path / "stages"
    assert main(["pipeline", source, *common(pipe_out, *extra)]) == 0
    digests = {p.name: sha256(p.read_bytes()) for p in sorted(pipe_out.iterdir())}
    digests["stdout"] = sha256(capsys.readouterr().out.encode("utf-8"))
    for stage in ("ingest", "partition", "compound", "label", "reason", "translate"):
        assert main([stage, source, *common(stage_out, *extra)]) == 0, stage
    downstream = ("nanopub", "acl") if "--policy" in extra else ("nanopub",)
    for stage in downstream:
        compounds = str(stage_out / "compounds.trig")
        assert main([stage, compounds, *common(stage_out, *extra)]) == 0, stage
    capsys.readouterr()
    for name in STAGEWISE_ARTIFACTS + tuple(artifacts):
        assert (pipe_out / name).read_bytes() == (stage_out / name).read_bytes(), name
    return digests


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# Recorded with Python 3.11. A mismatch on another interpreter is a
# determinism bug in the pipeline, not a reason to re-record.
PIPELINE_DIGESTS = json.loads((FIXTURES / "pipeline_digests.json").read_text(encoding="utf-8"))


def test_pipeline_matches_stagewise_composition(capsys, tmp_path):
    assert_pipeline_matches_stages(capsys, tmp_path, str(FIXTURES / "weight.trig"))


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.trig")))
def test_pipeline_with_policy_matches_stagewise_composition(capsys, tmp_path, fixture):
    """``pipeline`` hands ``nanopub`` and ``acl`` the compound dataset in
    memory; on every fixture that must write what the stages write when
    they read ``compounds.trig``. Its artifacts and stdout also keep the
    bytes recorded in ``pipeline_digests.json``."""
    digests = assert_pipeline_matches_stages(
        capsys,
        tmp_path,
        str(FIXTURES / fixture),
        extra=("--policy", str(FIXTURES / "endangered.pol")),
        artifacts=("visible.trig",),
    )
    assert digests == PIPELINE_DIGESTS[fixture]


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.trig")))
def test_pipeline_trig_artifacts_are_serializer_fixpoints(capsys, tmp_path, catalog, fixture):
    """Every TriG artifact ``pipeline`` writes parses and serializes back to
    the same bytes under the catalog's prefixes."""
    code = main([
        "pipeline", str(FIXTURES / fixture),
        "--schemas", str(FIXTURES / "schemas.sus"),
        "--catalog", str(FIXTURES / "catalog.cat"),
        "--policy", str(FIXTURES / "endangered.pol"),
        "--out", str(tmp_path),
        "--seed", "3",
    ])
    capsys.readouterr()
    assert code == 0
    written = sorted(tmp_path.glob("*.trig"))
    assert [p.name for p in written] == [
        "compounds.trig", "dataset.trig", "nanopubs.trig", "organized.trig", "visible.trig",
    ]
    for path in written:
        text = path.read_text(encoding="utf-8")
        assert serialize_trig(parse_trig(text), dict(catalog.prefixes)) == text, path.name


def first_column(path: Path) -> list[str]:
    return [line.split("\t", 1)[0] for line in path.read_text(encoding="utf-8").splitlines()]


def test_unseeded_pipeline_artifacts_name_the_same_units(capsys, tmp_path):
    """Without a seed the UPRIs are random, so every artifact must come
    from one partition for them to agree."""
    code = main([
        "pipeline", str(FIXTURES / "weight.trig"),
        "--schemas", str(FIXTURES / "schemas.sus"),
        "--catalog", str(FIXTURES / "catalog.cat"),
        "--out", str(tmp_path),
    ])
    capsys.readouterr()
    assert code == 0
    labelled = first_column(tmp_path / "labels.tsv")
    units = first_column(tmp_path / "units.tsv")
    assert len(labelled) == 5 and sorted(labelled) == sorted(units)
    organized = parse_quads((tmp_path / "organized.trig").read_text(encoding="utf-8"), "trig")
    compounds = parse_quads((tmp_path / "compounds.trig").read_text(encoding="utf-8"), "trig")
    assert set(units) <= set(organized.graph_names())
    assert set(units) <= set(compounds.graph_names())
    unit_graphs = organized.unit_graphs(load_catalog(fixture_text("catalog.cat")))
    assert set(units) == set(unit_graphs)


def counting(monkeypatch, calls, name):
    original = getattr(cli, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, counted)


@pytest.mark.parametrize(
    "stage, expected",
    [
        ("pipeline", {"_parse": 1, "run_partition": 2, "ground_program": 1, "stable_models": 1}),
        ("reason", {"_parse": 1, "run_partition": 1, "ground_program": 1, "stable_models": 1}),
        ("translate", {"_parse": 1, "run_partition": 1, "ground_program": 1, "stable_models": 1}),
    ],
)
def test_each_product_is_computed_once(capsys, tmp_path, monkeypatch, stage, expected):
    """``pipeline`` parses its input once, partitions it and the compound
    dataset once each (the latter in memory, never parsed back from
    ``compounds.trig``) and grounds and solves once; a lone stage parses and
    partitions once."""
    calls: Counter = Counter()
    for name in expected:
        counting(monkeypatch, calls, name)
    extra = ("--policy", str(FIXTURES / "endangered.pol")) if stage == "pipeline" else ()
    assert main([stage, str(FIXTURES / "endangered.trig"), *common(tmp_path, *extra)]) == 0
    capsys.readouterr()
    assert dict(calls) == expected


def test_nanopub_stage_writes_the_union_of_each_nanopublication(
    capsys, tmp_path, catalog, schemas
):
    """One final dataset sorts the quads of all nanopublications; it holds
    exactly the quads of each one's own dataset, recomputed here from the
    compound dataset the downstream stages receive."""
    code, summary = run(capsys, "pipeline", str(FIXTURES / "travel.trig"), *common(tmp_path))
    assert code == 0
    compounds = parse_trig((tmp_path / "compounds.trig").read_text(encoding="utf-8"))
    minter = UpriMinter(seed=cli.hash_seed(1, "partition"))
    result = partition(compounds, schemas, catalog, minter)
    record = ProvenanceRecord(vocab.SU_NS + "agent/cli", "2023-01-01T00:00:00+00:00")
    emitted = [
        emit_nanopublication(unit, record, record, catalog)
        for unit in result.units
    ] + [
        emit_nanopublication(compound, record, record, catalog)
        for compound in reconstruct_compounds(result.dataset, catalog)
    ]
    assert int(summary["nanopubs"]) == len(emitted) > 1
    assert any(len(np.graph_names()) == 3 for np in emitted)  # compound units too
    written = parse_trig((tmp_path / "nanopubs.trig").read_text(encoding="utf-8"))
    assert written == emitted[0].merge(*emitted[1:])


def test_label_stage_resolves_templates_once(capsys, tmp_path, monkeypatch):
    """The label stage resolves the label templates once for all its
    units, not once per unit."""
    calls: Counter = Counter()
    real = units.label_templates

    def counted(*args, **kwargs):
        calls["resolved"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(units, "label_templates", counted)
    monkeypatch.setattr(cli, "label_templates", counted)
    code, summary = run(capsys, "label", str(FIXTURES / "weight.trig"), *common(tmp_path))
    assert code == 0 and int(summary["labels"]) > 1
    assert calls["resolved"] == 1


def test_reason_with_rule_file(capsys, tmp_path):
    code, summary = run(
        capsys,
        "reason",
        str(FIXTURES / "identify_named.trig"),
        *common(tmp_path, "--rules", str(FIXTURES / "thumb.lp"), "--bound", "64"),
    )
    assert code == 0
    assert summary["models"] == "1"
    models = (tmp_path / "models.txt").read_text(encoding="utf-8")
    assert "has-part" in models and "Thumb" in models


def test_acl_stage_hides_locations(capsys, tmp_path):
    code, summary = run(
        capsys,
        "acl",
        str(FIXTURES / "endangered.trig"),
        *common(tmp_path, "--policy", str(FIXTURES / "endangered.pol")),
    )
    assert code == 0
    assert summary["hidden_units"] == "2"
    visible = (tmp_path / "visible.trig").read_text(encoding="utf-8")
    assert "siteC" in visible


def test_align_needs_two_inputs(capsys, tmp_path):
    code = main(["align", str(FIXTURES / "hand_assertional.trig"), *common(tmp_path)])
    assert code == 1


def test_align_self(capsys, tmp_path):
    code, summary = run(
        capsys,
        "align",
        str(FIXTURES / "hand_assertional.trig"),
        str(FIXTURES / "hand_assertional.trig"),
        *common(tmp_path),
    )
    assert code == 0
    assert int(summary["correspondences"]) > 0
    assert summary["unmatched_left"] == "0"


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.trig")))
def test_fixture_aligns_perfectly_with_its_organized_graph(capsys, tmp_path, fixture):
    """The units ``pipeline`` declares in ``organized.trig`` are adopted
    back as the units of the raw input, so every correspondence scores 1."""
    source = str(FIXTURES / fixture)
    assert main(["pipeline", source, *common(tmp_path / "pipeline")]) == 0
    organized = str(tmp_path / "pipeline" / "organized.trig")
    code, summary = run(capsys, "align", source, organized, *common(tmp_path / "align"))
    assert code == 0
    rows = (tmp_path / "align" / "alignment.tsv").read_text(encoding="utf-8").splitlines()
    assert rows and all(row.endswith("\t1") for row in rows)
    assert summary["perfect"] == summary["correspondences"] == str(len(rows))


def test_env_var_output_dir(capsys, tmp_path, monkeypatch):
    """``--out`` beats ``KGUNITS_OUT``, which beats the config's ``out=``."""
    config = tmp_path / "run.cfg"
    config.write_text(f"out={tmp_path / 'config'}\n", encoding="utf-8")
    argv = ["partition", str(FIXTURES / "hand_bare.trig"), "--config", str(config), "--seed", "1"]
    monkeypatch.setenv("KGUNITS_OUT", str(tmp_path / "env"))
    assert main([*argv, "--out", str(tmp_path / "flag")]) == 0
    assert main(argv) == 0
    monkeypatch.delenv("KGUNITS_OUT")
    assert main(argv) == 0
    capsys.readouterr()
    for name in ("flag", "env", "config"):
        assert (tmp_path / name / "organized.trig").exists()
    assert len(list((tmp_path / "env").iterdir())) == 2  # organized.trig, units.tsv


def test_config_file_with_flag_override(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        f"schemas={FIXTURES / 'schemas.sus'}\n"
        f"catalog={FIXTURES / 'catalog.cat'}\n"
        f"seed=1\n"
        f"out={tmp_path / 'from-config'}\n",
        encoding="utf-8",
    )
    code, summary = run(
        capsys,
        "partition",
        str(FIXTURES / "hand_bare.trig"),
        "--config",
        str(config),
        "--out",
        str(tmp_path / "flag-wins"),
    )
    assert code == 0
    assert (tmp_path / "flag-wins" / "organized.trig").exists()
    assert not (tmp_path / "from-config").exists()


def _config_run(capsys, tmp_path, text: str, *argv) -> tuple[int, str]:
    config = tmp_path / "run.cfg"
    config.write_text(text, encoding="utf-8")
    code = main(["partition", *argv, "--config", str(config)])
    return code, capsys.readouterr().err


def test_config_values_are_checked_like_flags(capsys, tmp_path):
    good = str(FIXTURES / "hand_bare.trig")
    for text, message in [
        ("seed=abc\n", "argument --seed: invalid int value: 'abc'"),
        ("bound=x\n", "argument --bound: invalid int value: 'x'"),
        ("sed=1\n", "line 1: unknown key 'sed'"),
        ("# settings\nconfig=other.cfg\n", "line 2: unknown key 'config'"),
        ("seed 1\n", "line 1 is not key=value"),
    ]:
        code, err = _config_run(capsys, tmp_path, text, good, "--out", str(tmp_path))
        assert code == 1 and "Traceback" not in err
        assert f"usage error: config {tmp_path / 'run.cfg'}: {message}" in err


@pytest.mark.parametrize("where", ["flag", "config"])
@pytest.mark.parametrize(
    "key, value, message",
    [
        ("namespace", "foo", "argument --namespace: not an absolute IRI: 'foo'"),
        ("namespace", "https://exa mple.org/", "argument --namespace: not an absolute IRI"),
        ("created", "yesterday", "argument --created: not an ISO-8601 timestamp: 'yesterday'"),
        ("created", "2023-13-01", "argument --created: not an ISO-8601 timestamp"),
    ],
)
def test_ill_formed_namespace_or_created_is_usage_error(capsys, tmp_path, where, key, value, message):
    """Checked for every stage, also one that mints nothing or emits no
    provenance."""
    bare = str(FIXTURES / "hand_bare.trig")
    for stage in ("ingest", "nanopub"):
        if where == "flag":
            argv = [stage, bare, f"--{key}", value]
        else:
            (tmp_path / "run.cfg").write_text(f"{key}={value}\n", encoding="utf-8")
            argv = [stage, bare, "--config", str(tmp_path / "run.cfg")]
        code = main([*argv, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err
        assert err.startswith("usage error: ") and message in err


def test_config_input_lines_are_inputs(capsys, tmp_path):
    """Each ``input=`` line adds an input; inputs on the command line
    replace them."""
    bare, weight = FIXTURES / "hand_bare.trig", FIXTURES / "weight.trig"
    text = f"input={bare}\ninput={weight}\n"
    assert _config_run(capsys, tmp_path, text, *common(tmp_path / "both"))[0] == 0
    assert _config_run(capsys, tmp_path, text, str(bare), *common(tmp_path / "flag"))[0] == 0
    assert main(["partition", str(bare), str(weight), *common(tmp_path / "flags")]) == 0
    capsys.readouterr()
    read = lambda name: (tmp_path / name / "units.tsv").read_text(encoding="utf-8")
    assert read("both") == read("flags") != read("flag")


def test_requester_without_value_is_usage_error(capsys, tmp_path):
    code = main([
        "acl", str(FIXTURES / "endangered.trig"),
        *common(tmp_path, "--policy", str(FIXTURES / "endangered.pol"), "--requester", "role"),
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert "usage error: --requester must be key=value" in err and "Traceback" not in err


_OPTION_NAMES = ["input", "schemas", "catalog", "rules", "patterns", "policy", "namespace",
                 "seed", "out", "bound", "created", "creator", "requester"]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(_OPTION_NAMES) | st.sampled_from(_OPTION_NAMES).map(lambda k: k[:-1])
            | st.from_regex(r"[a-z]{1,8}", fullmatch=True),
            st.integers(-3, 99).map(str)
            | st.from_regex(r"[a-z]{1,8}", fullmatch=True)
            | st.from_regex(r"https://example\.org/[a-z]{1,5}#[a-z]{0,5}", fullmatch=True),
            st.sampled_from(["", " # note"]),
        ),
        max_size=5,
    )
)
def test_any_config_file_exits_without_traceback(lines):
    """A config file of option names, misspelled keys and any values ends
    in exit 0, 1 or 2 with a message, never a traceback."""
    text = "".join(f"{key}={value}{comment}\n" for key, value, comment in lines)
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.cfg"
        config.write_text(text, encoding="utf-8")
        argv = ["partition", str(FIXTURES / "hand_bare.trig"), "--config", str(config),
                "--out", str(Path(tmp) / "out")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert code == 0 or err.getvalue().strip()


# The file each fuzzed run reads, by suffix, and its text before mutation;
# the input is a fixture, as TriG or as N-Quads.
_FUZZ_SETTINGS = {
    "sus": fixture_text("schemas.sus"),
    "cat": fixture_text("catalog.cat"),
    "pol": fixture_text("endangered.pol"),
    "lp": fixture_text("thumb.lp"),
    "pat": "pattern p\nwhen su:NegationUnit(X)\n"
           "emit ClassAssertion(<https://example.org/kg/Negated>, X)\n"
           "pattern q\nwhen rdf:type(X, C)\n"
           "emit SubClassOf(C, QualifiedCardinality(rel:has-part, 2, C))\n",
}
_FUZZ_INPUTS = ["endangered.trig", "fruit_disagreement.trig", "head_cardinality.trig",
                "identify_some.trig", "publication_frames.trig", "weight.trig"]
_FUZZ_TOKENS = [".", ";", ",", "{", "}", "<", ">", '"', "'", ":", "a", "_:b0", "^^", "@en", "#",
                "\\", "\\u00", "?x", "(", ")", ":-", "not ", "-1", "0", "1.5e3", "\n", " ",
                "@prefix", "PREFIX", "GRAPH", "prefix", "term", "unit", "template", "arg",
                "adjunct", "subject", "anchor", "label", "deny", "allow", "pattern", "when", "emit"]
_FUZZ_COMMANDS = ["pipeline", "compound", "reason", "translate", "nanopub", "acl", "align"]
# Catalog lines that once ended a run in a ``KeyError`` (``po:-:``) or
# wrote TriG that the reader refused (``1x:``).
_BAD_PREFIXES = [f"prefix {name} <https://example.org/plant/>\n" for name in ("po:-:", "1x:")]


def _mutated(text: str, edit) -> str:
    """``text`` with one edit: cut a span of up to 24 characters, insert a
    token, or duplicate or swap lines. Positions wrap around the text."""
    op, i, j, token = edit
    if op == "cut":
        i %= len(text) + 1
        return text[:i] + text[i + 1 + j % 24:]
    if op == "insert":
        i %= len(text) + 1
        return text[:i] + token + text[i:]
    lines = text.splitlines(keepends=True) or [""]
    i, j = i % len(lines), j % len(lines)
    if op == "duplicate":
        lines.insert(i, lines[i])
    else:
        lines[i], lines[j] = lines[j], lines[i]
    return "".join(lines)


@settings(max_examples=500, deadline=None)
@given(
    st.sampled_from(_FUZZ_INPUTS),
    st.sampled_from(["trig", "nq", *_FUZZ_SETTINGS]),
    st.tuples(st.sampled_from(["cut", "insert", "duplicate", "swap"]),
              st.integers(0, 10**4), st.integers(0, 10**4), st.sampled_from(_FUZZ_TOKENS)),
    st.sampled_from(_FUZZ_COMMANDS),
)
@example("fruit_negation.trig", "cat", ("insert", 0, 0, _BAD_PREFIXES[0]), "pipeline")
@example("fruit_negation.trig", "cat", ("insert", 0, 0, _BAD_PREFIXES[1]), "pipeline")
def test_any_mutated_input_or_settings_file_exits_without_traceback(fixture, target, edit, command):
    """One edit to the input (TriG or N-Quads) or to a schema, catalog,
    policy, rule or pattern file ends any command in exit 0, 1, 2 or 3,
    never a traceback; on exit 0, every TriG artifact written parses back to
    the dataset it was written from."""
    texts = {"trig": fixture_text(fixture), **_FUZZ_SETTINGS}
    texts["nq"] = serialize_nquads(parse_trig(texts["trig"]))
    texts[target] = _mutated(texts[target], edit)
    written = {}

    def write_trig(ctx, name, dataset):
        written[name] = dataset
        _write_trig(ctx, name, dataset)

    with tempfile.TemporaryDirectory() as tmp:
        paths = {suffix: Path(tmp) / f"input.{suffix}" for suffix in texts}
        for suffix, path in paths.items():
            path.write_text(texts[suffix], encoding="utf-8")
        inputs = [paths["nq" if target == "nq" else "trig"]]
        if command == "align":
            inputs.append(FIXTURES / fixture)
        argv = [command, *map(str, inputs), "--seed", "1", "--out", str(Path(tmp) / "out")]
        for option, suffix in (("--schemas", "sus"), ("--catalog", "cat"), ("--policy", "pol"),
                               ("--rules", "lp"), ("--patterns", "pat")):
            argv += [option, str(paths[suffix])]
        err = io.StringIO()
        with mock.patch.object(cli, "_write_trig", write_trig), \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        assert code == 0 or err.getvalue().strip()
        if code == 0:
            for name, dataset in written.items():
                assert parse_trig((Path(tmp) / "out" / name).read_text(encoding="utf-8")) == dataset


_SKOS = "http://www.w3.org/2004/02/skos/core#"
_RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"


def _catalog_keeps_hash(tmp_path, capsys):
    catalog = load_catalog(f"prefix skos: <{_SKOS}>\nterm type <{_RDF_TYPE}>  # rdf:type\n")
    assert catalog.prefixes["skos"] == _SKOS and catalog.type == _RDF_TYPE


def _policy_keeps_hash(tmp_path, capsys):
    policy = load_policy("deny <http://example.org/onto#Secret>  # hidden class\n")
    assert policy.rules[0].unit_class == "http://example.org/onto#Secret"


def _pattern_keeps_hash(tmp_path, capsys):
    patterns = parse_patterns(
        "pattern p\nwhen su:NegationUnit(X)\nemit ClassAssertion(<http://example.org/onto#C>, X)\n",
        DEFAULT_CATALOG.prefixes,
    )
    assert patterns[0].outputs[0] == ClassAssertion("http://example.org/onto#C", "X")


def _config_keeps_hash(tmp_path, capsys):
    namespace = "https://example.org/ids#"
    bare = str(FIXTURES / "hand_bare.trig")
    code, _ = _config_run(capsys, tmp_path, f"namespace={namespace} # fragment IDs\n",
                          bare, *common(tmp_path / "config"))
    assert code == 0
    assert main(["partition", bare, *common(tmp_path / "flag", "--namespace", namespace)]) == 0
    capsys.readouterr()
    units = (tmp_path / "config" / "units.tsv").read_text(encoding="utf-8")
    assert units.startswith(namespace + "u")
    assert units == (tmp_path / "flag" / "units.tsv").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "check", [_catalog_keeps_hash, _policy_keeps_hash, _pattern_keeps_hash, _config_keeps_hash],
    ids=["catalog", "policy", "pattern", "config"],
)
def test_iri_with_hash_survives_every_settings_format(tmp_path, capsys, check):
    check(tmp_path, capsys)


def test_comments_in_settings_files():
    """A ``#`` at the start of a line or after whitespace starts a comment,
    unless it is inside a ``"..."`` string."""
    text = '# head\n  # indented\nterm isAbout <http://x/y#z>  # trailing\nlabel "a # b" # c\n'
    assert list(setting_lines(text)) == [
        (3, "term isAbout <http://x/y#z>"),
        (4, 'label "a # b"'),
    ]
    (schema,) = compile_schema(
        "# has-part\n"
        "unit <https://example.org/c/hp> anchor <https://example.org/r/hp>  # the class\n"
        "template ?s <https://example.org/r/hp> ?o\n"
        "subject ?s  # the whole\n"
        "arg ?o # the part\n"
        'label "{s} is #1 in {o}"  # rank\n'
    )
    assert schema.label_template == "{s} is #1 in {o}"
    assert schema.argument_vars == ("o",)


def test_unknown_catalog_term_is_data_error(capsys, tmp_path):
    bad = tmp_path / "bad.cat"
    bad.write_text("term isAboutt <http://purl.obolibrary.org/obo/IAO_0000136>\n", encoding="utf-8")
    code = main(["ingest", str(FIXTURES / "hand_bare.trig"), "--catalog", str(bad),
                 "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 1: unknown catalog term: isAboutt" in err and "Traceback" not in err


@pytest.mark.parametrize("name", ["po:-:", "1x:"])
def test_catalog_prefix_outside_pn_prefix_is_data_error(capsys, tmp_path, name):
    """``po:-`` once ended ``ingest`` in a ``KeyError`` when the TriG writer
    split ``po:-:x`` at its first colon; ``1x`` was written as ``1x:x``, which
    the reader reads as a number and so refused the written dataset."""
    bad = tmp_path / "bad.cat"
    bad.write_text(f"# plant ontology\nprefix {name} <https://example.org/plant/>\n", encoding="utf-8")
    code = main(["ingest", str(FIXTURES / "fruit_negation.trig"), "--catalog", str(bad),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"line 2: prefix name is not a TriG PN_PREFIX: {name[:-1]!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name, allowed", [
    ("", True), ("po", True), ("a.b-c_1", True), ("a.", False), ("-a", False),
    ("_a", False), ("1x", False), ("po:-", False), ("\u00e9", False),
])
def test_catalog_prefix_names_are_ascii_pn_prefix_or_empty(name, allowed):
    text = f"prefix {name}: <https://example.org/plant/>\n"
    if allowed:
        assert load_catalog(text).prefixes[name] == "https://example.org/plant/"
    else:
        with pytest.raises(CatalogError, match="line 1: prefix name"):
            load_catalog(text)


def test_translate_with_custom_pattern_file(capsys, tmp_path):
    pattern_file = tmp_path / "extra.pat"
    pattern_file.write_text(
        "pattern label-as-annotation\n"
        "when su:NamedIndividualIdentificationUnit(U), "
        "su:hasSemanticUnitSubject(U, Y)\n"
        "emit ClassAssertion(<https://example.org/kg/Labelled>, Y)\n",
        encoding="utf-8",
    )
    code, summary = run(
        capsys,
        "translate",
        str(FIXTURES / "hand_assertional.trig"),
        *common(tmp_path, "--patterns", str(pattern_file)),
    )
    assert code == 0
    axioms = (tmp_path / "axioms.txt").read_text(encoding="utf-8")
    assert "ex:Labelled" in axioms


_WHEN = "su:NegationUnit(U), su:hasSemanticUnitSubject(U, Y)"


@pytest.mark.parametrize(
    "when, emit, bad_line",
    [
        (_WHEN, "ClassAssertion(<http://x, Y)", 3),
        (_WHEN, "ClassAssertion(ex:C, \u00b2)", 3),
        (_WHEN, "<http://x/C>", 3),
        (_WHEN, "fresh(t, U)", 3),
        (_WHEN, "ClassAssertion(SubClassOf(ex:A, ex:B), U)", 3),
        # A guard is parsed as a rule; its error names its line in the file.
        ("su:NegationUnit(U", "ClassAssertion(ex:C, U)", 2),
    ],
)
def test_malformed_pattern_file_is_data_error(capsys, tmp_path, when, emit, bad_line):
    pattern_file = tmp_path / "bad.pat"
    pattern_file.write_text(
        f"pattern bad\nwhen {when}\nemit {emit}\n",
        encoding="utf-8",
    )
    code = main([
        "translate", str(FIXTURES / "fruit_negation.trig"),
        *common(tmp_path, "--patterns", str(pattern_file)),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert f"line {bad_line}:" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "text",
    [
        "p(X) :- q(X).\nr(X) :- p(X)\n",
        # The error names the line of the last token, not the last line.
        "p(X) :- q(X).\nr(X) :- p(X)\n\n% no final dot\n",
    ],
)
def test_rule_file_ending_inside_a_rule_is_data_error(capsys, tmp_path, text):
    rules = tmp_path / "unterminated.lp"
    rules.write_text(text, encoding="utf-8")
    code = main(["reason", str(FIXTURES / "weight.trig"), *common(tmp_path, "--rules", str(rules))])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 2: expected '.' to end rule" in err and "Traceback" not in err


def test_bound_exceeded_exit_code(capsys, tmp_path):
    """Even negative loops over six constants leave twelve atoms under
    default negation in the relevant program, more than the bound."""
    rules = tmp_path / "loops.lp"
    rules.write_text(
        "p(X) :- r(X), not q(X).\nq(X) :- r(X), not p(X).\n"
        + "".join(f"r(c{i}).\n" for i in range(6)),
        encoding="utf-8",
    )
    code = main(
        [
            "reason",
            str(FIXTURES / "publication_frames.trig"),
            *common(tmp_path, "--rules", str(rules), "--bound", "4"),
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "default-negation support has 12 atoms, solver bound is 4" in err


def test_finished_runs_leave_no_kgunits_object_to_the_collector(capsys, tmp_path):
    """A finished ``main`` frees its datasets, partition and products by
    reference counting, after an exit 0 and after an exit 3: no kgunits
    object is left in a reference cycle for the collector."""
    rules = tmp_path / "loops.lp"
    rules.write_text(
        "p(X) :- r(X), not q(X).\nq(X) :- r(X), not p(X).\n"
        + "".join(f"r(c{i}).\n" for i in range(6)),
        encoding="utf-8",
    )
    runs = [
        (0, ["pipeline", str(FIXTURES / "endangered.trig"),
             *common(tmp_path / "pipeline", "--policy", str(FIXTURES / "endangered.pol"))]),
        (3, ["reason", str(FIXTURES / "publication_frames.trig"),
             *common(tmp_path / "reason", "--rules", str(rules), "--bound", "4")]),
    ]
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for code, argv in runs:
            assert main(argv) == code, argv[0]
            gc.collect()
            left = Counter(
                type(o).__qualname__ for o in gc.garbage
                if type(o).__module__.startswith("kgunits")
            )
            assert not left, (argv[0], left)
            gc.garbage.clear()
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    capsys.readouterr()


@pytest.mark.parametrize("collecting", [True, False], ids=["collector-on", "collector-off"])
def test_main_gives_the_caller_back_its_collector(capsys, tmp_path, monkeypatch, collecting):
    """A command runs with the cyclic collector off. After an exit 0, 1, 2
    or 3 the caller's collector is on or off as it was, with its thresholds."""
    rules = tmp_path / "loops.lp"
    rules.write_text("p(X) :- r(X), not q(X).\nq(X) :- r(X), not p(X).\nr(c0).\nr(c1).\nr(c2).\n",
                     encoding="utf-8")
    broken = tmp_path / "broken.trig"
    broken.write_text("<https://example.org/a> {\n", encoding="utf-8")
    runs = [
        (0, ["reason", str(FIXTURES / "weight.trig"), *common(tmp_path)]),
        (1, ["frobnicate"]),
        (2, ["partition", str(broken), *common(tmp_path)]),
        (3, ["reason", str(FIXTURES / "weight.trig"), *common(tmp_path, "--rules", str(rules),
                                                              "--bound", "2")]),
    ]
    during = []
    monkeypatch.setattr(cli, "_emit", lambda summary: during.append(gc.isenabled()))
    enabled, threshold = gc.isenabled(), gc.get_threshold()
    try:
        gc.set_threshold(555, 7, 9)
        gc.enable() if collecting else gc.disable()
        before = gc.isenabled(), gc.get_threshold()
        for code, argv in runs:
            assert main(argv) == code, argv[0]
            assert (gc.isenabled(), gc.get_threshold()) == before, code
    finally:
        gc.set_threshold(*threshold)
        gc.enable() if enabled else gc.disable()
    assert during == [False]  # the exit-0 run printed its summary with the collector off
    capsys.readouterr()


def test_only_reason_counts_the_herbrand_instantiation(capsys, tmp_path, monkeypatch):
    """``translate`` writes the same files and summary without the Herbrand
    count; ``reason``, whose summary reports it, prints the same count."""
    thumb = str(FIXTURES / "thumb.lp")
    outputs = {}
    for counting in (True, False):
        if not counting:
            def refuse(*args):
                raise AssertionError("translate counted the Herbrand instantiation")

            monkeypatch.setattr(cli, "herbrand_size", refuse)
        for fixture in sorted(FIXTURES.glob("*.trig")):
            out = tmp_path / str(counting) / fixture.stem
            assert main(["translate", str(fixture), *common(out, "--rules", thumb)]) == 0
            files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
            outputs.setdefault(fixture.name, []).append((capsys.readouterr().out, files))
    assert all(counted == uncounted for counted, uncounted in outputs.values())
    monkeypatch.undo()
    for fixture, ground_rules in (("hand_universal.trig", 64), ("weight.trig", 107),
                                  ("travel.trig", 122)):
        code, summary = run(capsys, "reason", str(FIXTURES / fixture),
                            *common(tmp_path / "reason", "--rules", thumb))
        assert (code, summary["ground_rules"]) == (0, str(ground_rules)), fixture


def test_bound_counts_only_the_relevant_negated_atoms(capsys, tmp_path):
    """The thumb default is grounded only for hands; this input has none,
    so nothing sits under default negation and a small bound suffices."""
    code, summary = run(
        capsys,
        "reason",
        str(FIXTURES / "publication_frames.trig"),
        *common(tmp_path, "--rules", str(FIXTURES / "thumb.lp"), "--bound", "4"),
    )
    assert code == 0
    assert summary["models"] == "1"
