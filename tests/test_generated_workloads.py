"""The benchmark's three workloads on generated inputs, run in-process.

``perfbench/gen.py`` writes a valid input for each workload from any seed
and size, and ``perfbench/checks.py`` checks a finished run from outside:
the summary counts, the partition law on ``organized.trig``, the units of
each schema and the line counts. Here they run over fixed seeds at sizes
that are not multiples of a workload's record mix (8 organize kinds, 5
reason kinds), so a run also sees a mix that is not balanced. On the same
inputs, ``pipeline`` must write what the stages write one by one.
"""

from __future__ import annotations

import pytest

from kgunits.cli import main

from conftest import benchmark_module

gen = benchmark_module("gen")
checks = benchmark_module("checks")

SEEDS = range(1, 17)
SIZES = (5, 13)


def _run(capsys, argv) -> str:
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, argv[0]
    return out


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generated_workload_passes_the_benchmark_checks(
    capsys, tmp_path, monkeypatch, workload, seed, size
):
    spec = gen.generate(workload, seed, size, tmp_path)
    monkeypatch.chdir(tmp_path)
    stdout = _run(capsys, [*spec["argv"], "--out", "out"])
    assert checks.check_outputs(spec, tmp_path, stdout) == []


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_generated_pipeline_matches_stagewise_composition(
    capsys, tmp_path, monkeypatch, seed, size
):
    """The stages up to ``translate`` read the generated input; ``nanopub``
    and ``acl`` read the ``compounds.trig`` the compound stage wrote. Every
    artifact they write is byte for byte the one ``pipeline`` writes."""
    spec = gen.generate("organize-large", seed, size, tmp_path)
    monkeypatch.chdir(tmp_path)
    command, source, *options = spec["argv"]
    assert command == "pipeline"
    _run(capsys, [command, source, *options, "--out", "pipe"])
    for stage in ("ingest", "partition", "compound", "label", "reason", "translate"):
        _run(capsys, [stage, source, *options, "--out", "stages"])
    for stage in ("nanopub", "acl"):
        _run(capsys, [stage, "stages/compounds.trig", *options, "--out", "stages"])
    staged = sorted(p.name for p in (tmp_path / "stages").iterdir())
    assert staged == sorted(p.name for p in (tmp_path / "pipe").iterdir())
    for name in staged:
        assert (tmp_path / "pipe" / name).read_bytes() == (
            tmp_path / "stages" / name
        ).read_bytes(), name
