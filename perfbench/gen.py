"""Seeded, stdlib-only input generator for the kgunits benchmark.

``generate(workload, seed, size, directory)`` writes one workload's inputs
(datasets, schemas, catalog, policy, rules and the known-defect probe) and
returns the argv of the command to run plus the outputs the generator
knows by construction. The same workload, seed and size always give the
same bytes.

Every record uses resources of its own, so each record's contribution to
the expected counts is fixed by its kind and a few seeded flags.
"""

from __future__ import annotations

import random
from collections import Counter
from pathlib import Path

EX = "https://example.org/kg/"
EX2 = "https://example.org/kg-v2/"
REL = "https://example.org/rel/"
SUC = "https://example.org/su-class/"
SU = "https://vocab.kgunits.org/"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
LABEL = "http://www.w3.org/2000/01/rdf-schema#label"
XSD = "http://www.w3.org/2001/XMLSchema#"
IS_ABOUT = "http://purl.obolibrary.org/obo/IAO_0000136"
CARDINALITY = "http://www.w3.org/2002/07/owl#qualifiedCardinality"
UNITS_GRAPH = SU + "graph/units"

WORKLOADS = ("organize-large", "reason-organized", "align-versions")

# Records per full-size run; the traced run adds a quarter-size run.
FULL_SIZE = {"organize-large": 40, "reason-organized": 24, "align-versions": 40}
# Small fixed inputs whose artifacts are hashed against the recorded ones.
GUARD_SEED = 1
GUARD_SIZE = {"organize-large": 8, "reason-organized": 3, "align-versions": 6}

CATALOG = """\
# Vocabulary catalog of the benchmark corpus.
prefix ex: <https://example.org/kg/>
prefix rel: <https://example.org/rel/>
prefix suc: <https://example.org/su-class/>
prefix uberon: <https://example.org/uberon/>
prefix pato: <https://example.org/quality/>
prefix uo: <https://example.org/unit/>
prefix iucn: <https://example.org/iucn/>
partial-order <https://example.org/rel/has-part>
"""

_BINARY = (
    ("has-part", "{s} has part {o}"),
    ("part-of", "{s} is part of {o}"),
    ("has-quality", "{s} has quality {o}"),
    ("found-at", "{s} occurs at {o}"),
)

SCHEMAS = "".join(
    f"unit <{SUC}{name}> anchor <{REL}{name}>\nrelation qualitative\n"
    f"template ?s <{REL}{name}> ?o\nsubject ?s\narg ?o\nlabel \"{label}\"\n\n"
    for name, label in _BINARY
) + (
    f"unit <{SUC}quality-measurement> anchor <{REL}has-value>\n"
    "relation quantitative\n"
    f"template ?q <{REL}has-value> ?v\ntemplate ?q <{REL}has-unit> ?u\n"
    "subject ?q\narg ?v numeric\narg ?u\nlabel \"{q} measures {v} {u}\"\n\n"
    f"unit <{SUC}travel> anchor <{REL}travels-by>\nrelation qualitative\n"
    f"template ?s <{REL}travels-by> ?m\ntemplate ?s <{REL}travels-from> ?b\n"
    f"template ?s <{REL}travels-to> ?c\ntemplate ?s <{REL}travels-on> ?d\n"
    "subject ?s\narg ?m\narg ?b\narg ?c\nadjunct ?d\n"
    "label \"{s} travels by {m} from {b} to {c} on the {d}\"\n"
)

POLICY = f"""\
# Locations of endangered species are restricted.
deny <{SUC}found-at> when subject.threatStatus=<https://example.org/iucn/Endangered>
allow *
"""

# Negation-free user rules: a two-variable inverse-property rule and a
# one-variable class rule.
RULES = """\
% part-of is the inverse of has-part.
rel:part-of(Y, X) :- rel:has-part(X, Y).
% every fruit is a specimen.
ex:Specimen(X) :- rdf:type(X, ex:Fruit).
"""


def _mix(rng: random.Random, kinds, size: int) -> list:
    """Each kind equally often (the first records cover every kind), in a
    seeded order, so every seed asks for the same amount of work."""
    mix = [kinds[i % len(kinds)] for i in range(size)]
    head, tail = mix[: len(kinds)], mix[len(kinds):]
    rng.shuffle(tail)
    return head + tail


def _iri(value: str) -> str:
    return f"<{value}>"


def _lit(lexical: str, datatype: str | None = None) -> str:
    if datatype:
        return f'"{lexical}"^^<{datatype}>'
    return f'"{lexical}"'


class _Graph:
    """Collects (subject, predicate, object) triples as N-Triples terms."""

    def __init__(self):
        self.triples: list[tuple[str, str, str]] = []

    def add(self, s: str, p: str, o: str):
        self.triples.append((_iri(s), _iri(p), o))

    def typed(self, s: str, cls: str, label: str | None):
        self.add(s, RDF_TYPE, _iri(cls))
        if label is not None:
            self.add(s, LABEL, _lit(label))


def _trig(graph_name: str, triples, prefixes: dict[str, str]) -> str:
    """One TriG graph block; IRIs under a prefix are written prefixed
    unless their local name contains '.'."""

    def term(t: str) -> str:
        if t.startswith("<"):
            iri = t[1:-1]
            for name, ns in prefixes.items():
                local = iri[len(ns):]
                if iri.startswith(ns) and local and "." not in local:
                    return f"{name}:{local}"
        return t

    head = "".join(f"@prefix {n}: <{ns}> .\n" for n, ns in prefixes.items())
    body = "".join(f"    {term(s)} {term(p)} {term(o)} .\n" for s, p, o in triples)
    return f"{head}\n{term(_iri(graph_name))} {{\n{body}}}\n"


_TRIG_PREFIXES = {"ex": EX, "rel": REL, "rdfs": "http://www.w3.org/2000/01/rdf-schema#"}


# ---------------------------------------------------------------------------
# organize-large: one raw graph through `pipeline`
# ---------------------------------------------------------------------------

ORGANIZE_KINDS = (
    "chain", "measure", "travel", "occurrence", "frame", "class", "unlabelled", "fallback",
)


def _organize_graph(seed: int, size: int):
    rng = random.Random(seed)
    g = _Graph()
    want: Counter = Counter()
    schema_units: Counter = Counter()
    kilogram, kilogram_typed = "https://example.org/unit/Kilogram", False
    seen: Counter = Counter()  # records of each kind so far, for the balanced flags
    for i, kind in enumerate(_mix(rng, ORGANIZE_KINDS, size)):
        seen[kind] += 1
        r = f"{EX}r{i}-"
        if kind == "chain":
            depth = 2 + seen[kind] % 3
            nodes = [f"{r}node{k}" for k in range(depth + 1)]
            for k, node in enumerate(nodes):
                g.typed(node, f"{EX}Level{k}", f"node {k} of record {i}")
            for a, b in zip(nodes, nodes[1:]):
                g.add(a, REL + "has-part", _iri(b))
            want["identification_units"] += depth + 1
            schema_units["has-part"] += depth
            want["granularity_tree_units"] += 1
        elif kind == "measure":
            obj, quality = r + "object", r + "weight"
            g.typed(obj, EX + "MaterialEntity", f"object {i}")
            g.typed(quality, "https://example.org/quality/Weight", f"weight of object {i}")
            g.add(obj, REL + "has-quality", _iri(quality))
            value = f"{rng.randint(1, 999)}.{rng.randint(0, 9)}"
            g.add(quality, REL + "has-value", _lit(value, XSD + "decimal"))
            g.add(quality, REL + "has-unit", _iri(kilogram))
            if not kilogram_typed:
                g.typed(kilogram, "https://example.org/unit/MassUnit", "kilogram")
                kilogram_typed = True
                want["identification_units"] += 1
            want["identification_units"] += 2
            schema_units["has-quality"] += 1
            schema_units["quality-measurement"] += 1
            want["quality_measurement_units"] += 1
        elif kind == "travel":
            person, train, a, b = r + "person", r + "train", r + "cityA", r + "cityB"
            g.typed(person, EX + "Person", f"person {i}")
            g.typed(train, EX + "Train", f"train {i}")
            g.typed(a, EX + "City", f"city {i}a")
            g.typed(b, EX + "City", f"city {i}b")
            g.add(person, REL + "travels-by", _iri(train))
            g.add(person, REL + "travels-from", _iri(a))
            g.add(person, REL + "travels-to", _iri(b))
            g.add(person, REL + "travels-on", _lit(f"day {rng.randint(1, 28)} of June"))
            want["identification_units"] += 4
            schema_units["travel"] += 1
        elif kind == "occurrence":
            species = r + "species"
            g.typed(species, EX + "Species", f"species {i}")
            endangered = seen[kind] % 2 == 1
            status = "Endangered" if endangered else "LeastConcern"
            g.add(species, "https://example.org/iucn/threatStatus", _iri(f"https://example.org/iucn/{status}"))
            sites = 1 + seen[kind] // 2 % 2
            for k in range(sites):
                site = f"{r}site{k}"
                g.typed(site, EX + "Site", f"site {k} of record {i}")
                g.add(species, REL + "found-at", _iri(site))
            want["identification_units"] += 1 + sites
            want["fallback_units"] += 1
            schema_units["found-at"] += sites
            want["hidden_units"] += sites if endangered else 0
        elif kind == "frame":
            desc, subject = r + "description", r + "specimen"
            g.typed(desc, EX + "Description", f"description {i}")
            g.typed(subject, EX + "Specimen", f"specimen {i}")
            g.add(desc, IS_ABOUT, _iri(subject))
            want["identification_units"] += 2
            want["is_about_units"] += 1
        elif kind == "class":
            every, some = r + "everyAntenna", r + "someFlagellum"
            g.add(every, SU + "everyInstanceOf", _iri(EX + "AntennaType"))
            g.add(every, LABEL, _lit(f"every antenna of type {i}"))
            g.add(some, SU + "someInstanceOf", _iri("https://example.org/uberon/Flagellum"))
            g.add(some, LABEL, _lit(f"some flagellum {i}"))
            g.add(some, CARDINALITY, _lit(str(rng.randint(1, 5)), XSD + "integer"))
            g.add(every, REL + "has-part", _iri(some))
            want["identification_units"] += 2
            want["cardinality_units"] += 1
            want["contingent_units"] += 1
            want["universal_units"] += 2
            schema_units["has-part"] += 1
            want["granularity_tree_units"] += 1
        elif kind == "unlabelled":
            thing, other = r + "thing", r + "neighbour"
            g.typed(thing, EX + "Thing", None)
            g.add(thing, REL + "adjacent-to", _iri(other))
            want["identification_units"] += 1
            want["fallback_units"] += 1
        else:
            spec = r + "sample"
            g.typed(spec, EX + "Specimen", f"sample {i}")
            g.add(spec, REL + "colour", _lit(rng.choice(("red", "green", "blue"))))
            g.add(spec, REL + "mass-class", _lit(str(rng.randint(1, 9)), XSD + "integer"))
            want["identification_units"] += 1
            want["fallback_units"] += 2
    want["statement_units"] = (
        want["identification_units"] + want["fallback_units"] + sum(schema_units.values())
        + want["is_about_units"]
    )
    want["visible_units"] = want["statement_units"] - want["hidden_units"]
    for key in ("adopted_units", "negation_units", "disagreement_units", "tree_cycles",
                "classical_conflicts", "disputes"):
        want[key] = 0
    want["models"] = 1
    return g, dict(want), {SUC + k: v for k, v in schema_units.items()}


def _write_organize(seed: int, size: int, d: Path) -> dict:
    g, summary, schema_units = _organize_graph(seed, size)
    (d / "input.trig").write_text(_trig(EX + "g1", g.triples, _TRIG_PREFIXES), encoding="utf-8")
    (d / "policy.pol").write_text(POLICY, encoding="utf-8")
    return {
        "argv": ["pipeline", "input.trig", "--schemas", "schemas.sus", "--catalog",
                 "catalog.cat", "--policy", "policy.pol", "--seed", str(seed)],
        "summary": summary,
        "schema_units": schema_units,
        "data_triples": sorted(g.triples),
    }


# ---------------------------------------------------------------------------
# reason-organized: a pre-organized N-Quads dataset through `translate`
# ---------------------------------------------------------------------------

REASON_KINDS = ("assert", "negation", "disagreement", "cardinality", "universal")
_ID = SU + "NamedIndividualIdentificationUnit"
_ASSERTIONAL = SU + "AssertionalStatementUnit"


def _dotted(rng: random.Random, base: str) -> str:
    """A local name with '.' in it (a version or DOI-like suffix) for
    roughly a third of the resources."""
    if rng.random() < 0.35:
        return f"{base}-v{rng.randint(1, 9)}.{rng.randint(0, 9)}"
    return base


def _reason_dataset(seed: int, size: int):
    rng = random.Random(seed)
    quads: list[tuple[str, str, str, str]] = []
    want = Counter()

    def unit(graph: str, subject: str, classes, triples):
        for s, p, o in triples:
            quads.append((_iri(s), _iri(p), o, _iri(graph)))
        quads.append((_iri(graph), _iri(SU + "hasSemanticUnitSubject"), _iri(subject), _iri(UNITS_GRAPH)))
        for cls in classes:
            quads.append((_iri(graph), _iri(RDF_TYPE), _iri(cls), _iri(UNITS_GRAPH)))

    seen: Counter = Counter()
    for i, kind in enumerate(_mix(rng, REASON_KINDS, size)):
        seen[kind] += 1
        r = f"{EX}r{i}-"
        if kind == "assert":
            fruit = r + _dotted(rng, "fruit")
            plant = r + _dotted(rng, "plant")
            unit(r + "unit-fruit", fruit, (_ID, _ASSERTIONAL),
                 [(fruit, RDF_TYPE, _iri(EX + "Fruit")), (fruit, LABEL, _lit(f"fruit {i}"))])
            unit(r + "unit-plant", plant, (_ID, _ASSERTIONAL),
                 [(plant, RDF_TYPE, _iri(EX + "Plant")), (plant, LABEL, _lit(f"plant {i}"))])
            unit(r + "unit-haspart", plant, (SUC + "has-part", _ASSERTIONAL),
                 [(plant, REL + "has-part", _iri(fruit))])
            want["axioms"] += 3  # two class assertions, one property assertion
        elif kind == "negation":
            fruit = r + _dotted(rng, "fruit")
            plant = r + _dotted(rng, "plant")
            unit(r + "unit-fruit", fruit, (_ID, _ASSERTIONAL),
                 [(fruit, RDF_TYPE, _iri(EX + "Fruit")), (fruit, LABEL, _lit(f"fruit {i}"))])
            unit(r + "unit-plant", plant, (_ID, _ASSERTIONAL),
                 [(plant, RDF_TYPE, _iri(EX + "Plant")), (plant, LABEL, _lit(f"plant {i}"))])
            unit(r + "unit-partof", fruit, (SUC + "part-of", _ASSERTIONAL, SU + "NegationUnit"),
                 [(fruit, REL + "part-of", _iri(plant))])
            want["axioms"] += 3  # two class assertions, one negative assertion
        elif kind == "disagreement":
            fruit = r + _dotted(rng, "fruit")
            claim, dissent = r + "unit-claim", r + "unit-dissent"
            unit(claim, fruit, (_ID, _ASSERTIONAL),
                 [(fruit, RDF_TYPE, _iri(EX + "PomeFruit")), (fruit, LABEL, _lit(f"fruit {i}"))])
            unit(dissent, claim, (_ASSERTIONAL,),
                 [(claim, RDF_TYPE, _iri(SU + "NegationUnit"))])
            want["axioms"] += 1  # the complement class assertion
            want["disputes"] += 1
        elif kind == "cardinality":
            head = r + _dotted(rng, "head")
            eyes = r + "someEyes"
            unit(r + "unit-head", head, (_ID, _ASSERTIONAL),
                 [(head, RDF_TYPE, _iri(EX + "Head")), (head, LABEL, _lit(f"head {i}"))])
            unit(r + "unit-eyes", eyes,
                 (SU + "SomeInstanceIdentificationUnit", SU + "ContingentStatementUnit"),
                 [(eyes, SU + "someInstanceOf", _iri(EX + "Eye")),
                  # Cycled, not drawn: every seed then has the same set of
                  # constants, and grounding grows with its square.
                  (eyes, CARDINALITY, _lit(str(1 + seen[kind] % 5), XSD + "integer")),
                  (eyes, LABEL, _lit(f"eyes of head {i}"))])
            unit(r + "unit-partof", head, (SUC + "part-of", _ASSERTIONAL),
                 [(head, REL + "part-of", _iri(eyes))])
            want["axioms"] += 3  # head class, cardinality, property to the Skolem eye
        else:
            every = r + _dotted(rng, "everyAntenna")
            some = r + "someFlagellum"
            unit(r + "unit-every", every,
                 (SU + "EveryInstanceIdentificationUnit", SU + "UniversalStatementUnit"),
                 [(every, SU + "everyInstanceOf", _iri(f"{EX}AntennaType{i}")),
                  (every, LABEL, _lit(f"every antenna {i}"))])
            unit(r + "unit-some", some,
                 (SU + "SomeInstanceIdentificationUnit", SU + "ContingentStatementUnit"),
                 [(some, SU + "someInstanceOf", _iri(f"{EX}Flagellum{i}")),
                  (some, LABEL, _lit(f"some flagellum {i}"))])
            unit(r + "unit-haspart", every, (SUC + "has-part", SU + "UniversalStatementUnit"),
                 [(every, REL + "has-part", _iri(some))])
            want["axioms"] += 5  # collection theory (3), Skolem class, subclass axiom
    summary = {"models": 1, "axioms": want["axioms"], "classical_conflicts": 0,
               "disputes": want["disputes"]}
    return quads, summary


def _write_reason(seed: int, size: int, d: Path) -> dict:
    quads, summary = _reason_dataset(seed, size)
    text = "".join(f"{s} {p} {o} {g} .\n" for s, p, o, g in quads)
    (d / "organized.nq").write_text(text, encoding="utf-8")
    (d / "rules.lp").write_text(RULES, encoding="utf-8")
    return {
        "argv": ["translate", "organized.nq", "--schemas", "schemas.sus", "--catalog",
                 "catalog.cat", "--rules", "rules.lp", "--seed", str(seed)],
        "summary": summary,
        "files": {"conflicts.txt": summary["disputes"], "axioms.txt": summary["axioms"]},
    }


# ---------------------------------------------------------------------------
# align-versions: two versions of one graph through `align`
# ---------------------------------------------------------------------------

EDITS = ("drop", "change", "add")


def _align_versions(seed: int, size: int):
    """Version B renames every instance IRI and edits about a tenth of the
    records: a dropped, a changed or an added statement."""
    rng = random.Random(seed)
    left, right = _Graph(), _Graph()
    want = Counter()
    edited = rng.sample(range(size), max(1, round(size / 10)))
    edit_of = {i: EDITS[k % len(EDITS)] for k, i in enumerate(sorted(edited))}
    for i in range(size):
        edit = edit_of.get(i)
        rec = []  # (subject local, predicate, object) with instance locals tagged
        names = {
            "top": _dotted(rng, f"r{i}-organism"),
            "mid": f"r{i}-organ",
            "low": _dotted(rng, f"r{i}-tissue"),
        }
        for role, cls in (("top", "Organism"), ("mid", "Organ"), ("low", "Tissue")):
            rec.append((role, RDF_TYPE, ("class", f"{EX}{cls}{i}")))
            rec.append((role, LABEL, ("lit", f"{role} of record {i}")))
        rec.append(("top", REL + "has-part", ("inst", "mid")))
        rec.append(("mid", REL + "has-part", ("inst", "low")))
        colour = rng.choice(("red", "green", "blue"))
        count = rng.randint(1, 90)
        rec.append(("top", REL + "colour", ("lit", colour)))
        rec.append(("top", REL + "count", ("int", str(count))))
        rec_b = list(rec)
        if edit == "drop":
            rec_b.remove(("top", REL + "colour", ("lit", colour)))
        elif edit == "change":
            rec_b[rec_b.index(("top", REL + "count", ("int", str(count))))] = (
                "top", REL + "count", ("int", str(count + 100)))
        elif edit == "add":
            rec_b.append(("top", REL + "note", ("lit", f"note {i}")))
        for graph, ns, triples in ((left, EX, rec), (right, EX2, rec_b)):
            for role, p, (tag, value) in triples:
                if tag == "class":
                    o = _iri(value)
                elif tag == "inst":
                    o = _iri(ns + names[value])
                elif tag == "int":
                    o = _lit(value, XSD + "integer")
                else:
                    o = _lit(value)
                graph.add(ns + names[role], p, o)
        # Each record: 1 group, 2 items, 7 statement units, 10 triples.
        want["perfect"] += 1 + 2 + 7 + 10
        want["correspondences"] += 1 + 2 + 7 + 10
        if edit == "drop":
            want["perfect"] -= 1 + 1 + 1  # subject item, dropped unit and its triple
            want["correspondences"] -= 1 + 1
            want["unmatched_left"] += 1
        elif edit == "change":
            want["perfect"] -= 1 + 1  # changed unit and its triple
            want["correspondences"] -= 1
        elif edit == "add":
            want["perfect"] -= 1  # subject item
            want["unmatched_right"] += 1
    # Standalone resources sit outside every item group.
    for k in range(max(1, size // 8)):
        local = _dotted(rng, f"lone{k}")
        for graph, ns in ((left, EX), (right, EX2)):
            graph.typed(ns + local, f"{EX}Standalone{k}", f"standalone {k}")
        want["perfect"] += 1 + 2
        want["correspondences"] += 1 + 2
    return left, right, want


def _write_align(seed: int, size: int, d: Path) -> dict:
    left, right, want = _align_versions(seed, size)
    (d / "version-a.trig").write_text(_trig(EX + "g1", left.triples, _TRIG_PREFIXES), encoding="utf-8")
    prefixes_b = dict(_TRIG_PREFIXES, ex=EX2)
    (d / "version-b.trig").write_text(_trig(EX2 + "g1", right.triples, prefixes_b), encoding="utf-8")
    summary = {k: want[k] for k in ("correspondences", "perfect", "unmatched_left", "unmatched_right")}
    return {
        "argv": ["align", "version-a.trig", "version-b.trig", "--schemas", "schemas.sus",
                 "--catalog", "catalog.cat", "--seed", str(seed)],
        "summary": summary,
    }


# ---------------------------------------------------------------------------
# Known-defect probe (local names with '.')
# ---------------------------------------------------------------------------

_PROBE = f"""\
@prefix ex: <{EX}> .
@prefix rel: <{REL}> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .

ex:probe {{
    ex:sample-v1.2 a ex:Specimen ;
        rdfs:label "sample version 1.2" .
    ex:doi10.1000.182 a ex:Article ;
        rdfs:label "article 10.1000/182" .
    ex:doi10.1000.182 rel:has-part ex:sample-v1.2 .
}}
"""


def _write_probe(workload: str, seed: int, d: Path) -> list[str]:
    """A small document whose local names contain '.'. For `pipeline` the
    names are written as full IRIs; the pipeline must read its own TriG
    back, which writes them prefixed. The other commands read the prefixed
    form directly, as kgunits itself serializes it."""
    if workload == "organize-large":
        text = _PROBE.replace("ex:sample-v1.2", f"<{EX}sample-v1.2>").replace(
            "ex:doi10.1000.182", f"<{EX}doi10.1000.182>")
        (d / "probe.trig").write_text(text, encoding="utf-8")
        return ["pipeline", "probe.trig", "--schemas", "schemas.sus", "--catalog",
                "catalog.cat", "--seed", str(seed)]
    (d / "probe.trig").write_text(_PROBE, encoding="utf-8")
    if workload == "reason-organized":
        return ["translate", "probe.trig", "--schemas", "schemas.sus", "--catalog",
                "catalog.cat", "--rules", "rules.lp", "--seed", str(seed)]
    return ["align", "probe.trig", "probe.trig", "--schemas", "schemas.sus",
            "--catalog", "catalog.cat", "--seed", str(seed)]


_WRITERS = {
    "organize-large": _write_organize,
    "reason-organized": _write_reason,
    "align-versions": _write_align,
}


def generate(workload: str, seed: int, size: int, directory: Path) -> dict:
    """Write one workload's inputs into ``directory`` and return its spec:
    ``argv`` (relative to the directory), the expected ``summary`` and any
    workload-specific expectations, plus the probe's ``probe_argv``."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "catalog.cat").write_text(CATALOG, encoding="utf-8")
    (directory / "schemas.sus").write_text(SCHEMAS, encoding="utf-8")
    spec = _WRITERS[workload](seed, size, directory)
    spec["probe_argv"] = _write_probe(workload, seed, directory)
    spec["workload"] = workload
    return spec


def config_files(workload: str) -> dict[str, str]:
    """Configuration documents the workload's command loads at start-up."""
    out = {"catalog": "catalog.cat", "schemas": "schemas.sus"}
    if workload == "organize-large":
        out["policy"] = "policy.pol"
    if workload == "reason-organized":
        out["rules"] = "rules.lp"
    return out
