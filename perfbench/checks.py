"""Output checks for one operation, made from outside the program.

Every check returns a list of problems; an empty list means the
operation's outputs are correct.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

from gen import SU, UNITS_GRAPH

HAS_SUBJECT = SU + "hasSemanticUnitSubject"

_PREFIX_RE = re.compile(r"^@prefix ([A-Za-z][\w.-]*): <([^>]*)> \.$")


def parse_summary(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key] = value
    return out


def check_summary(stdout: str, expected: dict[str, int]) -> list[str]:
    got = parse_summary(stdout)
    return [f"summary {key}={got.get(key)} expected {value}"
            for key, value in sorted(expected.items()) if got.get(key) != str(value)]


def _term(token: str, prefixes: dict[str, str]) -> str:
    """Normalize a serialized TriG term to N-Triples form. Literal datatypes
    and prefixed names expand against the document's prefixes."""
    if token.startswith("<"):
        return token
    if token.startswith('"'):
        end = token.rindex('"')
        lexical, suffix = token[: end + 1], token[end + 1:]
        if suffix.startswith("^^"):
            return f"{lexical}^^{_term(suffix[2:], prefixes)}"
        return token
    prefix, _, local = token.partition(":")
    return f"<{prefixes[prefix]}{local}>"


def read_trig(text: str) -> list[tuple[str, str, str, str]]:
    """Quads of a TriG document as kgunits serializes it: prefix lines,
    then ``graph {`` blocks with one ``s p o .`` triple per line."""
    prefixes: dict[str, str] = {}
    quads = []
    graph = None
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        m = _PREFIX_RE.match(stripped)
        if m:
            prefixes[m.group(1)] = m.group(2)
        elif stripped.endswith("{"):
            graph = _term(stripped[:-1].strip(), prefixes)
        elif stripped == "}":
            graph = None
        else:
            if graph is None or not stripped.endswith(" ."):
                raise ValueError(f"unexpected TriG line: {line!r}")
            s, p, o = stripped[:-2].split(" ", 2)
            quads.append((_term(s, prefixes), _term(p, prefixes), _term(o, prefixes), graph))
    return quads


def check_partition_law(organized_trig: str, data_triples, unit_count: int) -> list[str]:
    """Every input data triple sits in exactly one unit data graph, and
    the unit data graphs hold nothing else."""
    quads = read_trig(organized_trig)
    unit_graphs = {s for s, p, _, g in quads if p == f"<{HAS_SUBJECT}>" and g == f"<{UNITS_GRAPH}>"}
    homes: dict[tuple, list[str]] = {}
    for s, p, o, g in quads:
        if g in unit_graphs:
            homes.setdefault((s, p, o), []).append(g)
    problems = []
    wanted = set(data_triples)
    for triple in sorted(wanted):
        count = len(homes.get(triple, ()))
        if count != 1:
            problems.append(f"partition law: {triple} sits in {count} unit data graphs")
    extra = set(homes) - wanted
    if extra:
        problems.append(f"partition law: {len(extra)} unit data triples not in the input")
    if len(unit_graphs) != unit_count:
        problems.append(f"partition law: {len(unit_graphs)} unit graphs, expected {unit_count}")
    return problems[:5]


def check_schema_units(units_tsv: str, expected: dict[str, int]) -> list[str]:
    """Per-schema statement-unit counts from the `units.tsv` class column."""
    counts: dict[str, int] = {}
    for line in units_tsv.splitlines():
        for cls in line.split("\t")[2].split(","):
            counts[cls] = counts.get(cls, 0) + 1
    return [f"units.tsv {cls}: {counts.get(cls, 0)} expected {n}"
            for cls, n in sorted(expected.items()) if counts.get(cls, 0) != n]


def check_line_counts(out: Path, expected: dict[str, int]) -> list[str]:
    problems = []
    for name, n in sorted(expected.items()):
        lines = (out / name).read_text(encoding="utf-8").splitlines()
        if name == "conflicts.txt":
            lines = [line for line in lines if line.startswith("dispute\t")]
        if len(lines) != n:
            problems.append(f"{name}: {len(lines)} lines expected {n}")
    return problems


def artifact_hashes(out: Path, stdout: str) -> dict[str, str]:
    hashes = {"stdout": hashlib.sha256(stdout.encode("utf-8")).hexdigest()}
    for path in sorted(out.iterdir()):
        hashes[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def check_outputs(spec: dict, cwd: Path, stdout: str) -> list[str]:
    """All workload-specific checks of one finished operation."""
    out = cwd / "out"
    problems = check_summary(stdout, spec["summary"])
    if spec["workload"] == "organize-large":
        problems += check_schema_units(
            (out / "units.tsv").read_text(encoding="utf-8"), spec["schema_units"])
        problems += check_partition_law(
            (out / "organized.trig").read_text(encoding="utf-8"), spec["data_triples"],
            spec["summary"]["statement_units"])
    elif spec["workload"] == "reason-organized":
        problems += check_line_counts(out, spec["files"])
    else:
        s = spec["summary"]
        problems += check_line_counts(out, {"alignment.tsv": s["correspondences"]
                                            + s["unmatched_left"] + s["unmatched_right"]})
    return problems
