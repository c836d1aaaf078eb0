"""The three workloads: their documents, their jobs, and how to check them.

A workload's ``setup`` writes documents with ``shellcert.generators``, and
``plan`` turns them into one *round*: a seeded sequence of CLI jobs on
documents whose properties are known. The runner repeats the round, so a
run measures whole rounds, and its latency percentiles are taken over
the same multiset of jobs whatever the machine's speed.

Jobs are grouped into classes. Each workload names a ``light`` class (the
majority, which holds the median) and a ``heavy`` class (which holds the
tail percentile); ``CLASSES`` lists them. Every job of a round is distinct:
where a class needs more inputs than the generators give, setup derives
them (relabelled or rotated copies of a document, shortened certificates),
so the jobs beyond each percentile are different inputs, not repeats.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import time
from dataclasses import dataclass, field

import checks

# workload -> (light class, heavy class)
CLASSES = {
    "analyze": ("single", "auto"),
    "certify": ("verify", "negative"),
    "ingest": ("straight", "polyline"),
}

# workload -> the tail percentile reported as job_tail_ms: the highest
# whole percentile with at least ten of the round's distinct jobs beyond it
# (45, 134 and 55 jobs a round).
TAIL_PERCENTILE = {"analyze": 77, "certify": 92, "ingest": 81}

# Copies of each negative certify document, by n, the original included;
# the others are vertex relabellings. A relabelling is an isomorphic
# drawing, so the verdict stays negative, but the search visits faces and
# candidates in another order. Fixed, not seeded: the negatives are the
# same in every run.
NEGATIVE_COPIES = {12: 1, 14: 9, 16: 3}
# Orientations of each cylindrical ingest document (0, 1 and 2 quarter
# turns): the same drawing with its long polylines running in other
# directions.
POLYLINE_TURNS = 3

EXPECTED_VERDICTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                 "expected_verdicts.json")


@dataclass
class Doc:
    name: str
    family: str
    n: int
    path: str
    crossings: int = 0
    faces: int = 0
    points: dict | None = None   # vertex -> (x, y) for straight-line families
    sha256: str = ""
    copy: int = 0                # which copy of its family and n


@dataclass
class Job:
    klass: str
    argv: list
    doc: Doc
    output: str | None = None
    expect: dict = field(default_factory=dict)
    prepare: object = None       # untimed callable run before the job


def _timed_generate(timings, family, fn, *args):
    start = time.perf_counter()
    doc = fn(*args)
    timings[family] = timings.get(family, 0.0) + time.perf_counter() - start
    return doc


def _geometric_docs(shellcert, work, spec, seed, timings):
    """spec: (family, n, copies). Rectilinear copies get distinct point sets."""
    docs = []
    for family, n, copies in spec:
        for copy in range(copies):
            if family == "convex":
                raw = _timed_generate(timings, family, shellcert.convex_document, n)
            elif family == "cylindrical":
                raw = _timed_generate(timings, family, shellcert.cylindrical_document, n)
            else:
                raw = _timed_generate(timings, family, shellcert.rectilinear_document,
                                      n, seed * 16 + copy)
            name = f"{family}-k{n}" + (f"-{copy}" if copies > 1 else "")
            path = os.path.join(work, name + ".json")
            shellcert.dump_document(raw, path)
            docs.append((Doc(name, family, n, path, copy=copy), raw))
    return docs


def relabel(document: dict, perm: dict) -> dict:
    """A combinatorial document with vertex v renamed perm[v]."""
    def node(x):
        return perm.get(x, x)

    out = dict(document, nodes=[])
    for item in document["nodes"]:
        item = dict(item, id=node(item["id"]))
        if "edges" in item:
            item["edges"] = [[node(x) for x in e] for e in item["edges"]]
        out["nodes"].append(item)
    out["rotations"] = {str(node(int(x))): [node(y) for y in rot]
                        for x, rot in document["rotations"].items()}
    chains = {}
    for key, chain in document["chains"].items():
        u, v = (node(int(x)) for x in key.split("-"))
        chain = [node(x) for x in chain]
        chains[f"{min(u, v)}-{max(u, v)}"] = chain if u < v else chain[::-1]
    out["chains"] = chains
    return out


def quarter_turn(document: dict, turns: int) -> dict:
    """A geometric document rotated by ``turns`` quarter turns about 0."""
    def turn(x, y):
        for _ in range(turns):
            x, y = -y, x
        return x, y

    out = dict(document, vertices=[])
    for v in document["vertices"]:
        x, y = turn(v["x"], v["y"])
        out["vertices"].append(dict(v, x=x, y=y))
    out["edges"] = [dict(e, polyline=[list(turn(*pt)) for pt in e["polyline"]])
                    for e in document["edges"]]
    return out


def _annotate(doc: Doc, raw: dict) -> Doc:
    """Known crossing and face counts, computed without the library."""
    n = doc.n
    if doc.family != "cylindrical":
        doc.points = {v["id"]: (v["x"], v["y"]) for v in raw["vertices"]}
    if doc.family == "convex":
        doc.crossings = math.comb(n, 4)
    elif doc.family == "cylindrical":
        doc.crossings = checks.harary_hill(n)
    else:
        doc.crossings = checks.straight_crossings(doc.points)
    # Euler on the sphere: V = n + X, E = C(n,2) + 2X, F = E - V + 2.
    doc.faces = math.comb(n, 2) + doc.crossings - n + 2
    with open(doc.path, "rb") as fh:
        doc.sha256 = hashlib.sha256(fh.read()).hexdigest()
    return doc


# -- analyze ------------------------------------------------------------------

ANALYZE_SPEC = [("convex", n, 1) for n in (10, 11, 12)] + \
               [("cylindrical", n, 1) for n in (11, 12, 13)] + \
               [("rectilinear", n, 3) for n in (10, 11, 12)]


def setup_analyze(shellcert, work, seed, timings):
    return _geometric_docs(shellcert, work, ANALYZE_SPEC, seed, timings)


def plan_analyze(docs, work, seed) -> list:
    """Per document: two single-face jobs on seeded faces and one all-face
    job, so 30 single-face and 15 all-face jobs a round."""
    rng = random.Random(f"analyze:{seed}")
    units = []
    for doc in docs:
        out = os.path.join(work, f"report-{doc.name}")
        for face in rng.sample(range(doc.faces), 2):
            units.append([Job("single", ["analyze", "--input", doc.path, "--face", str(face),
                                         "--output", f"{out}-f{face}.json"],
                              doc, f"{out}-f{face}.json", {"faces": [face]})])
        units.append([Job("auto", ["analyze", "--input", doc.path, "--face", "auto",
                                   "--output", f"{out}-auto.json"],
                          doc, f"{out}-auto.json", {"faces": list(range(doc.faces))})])
    rng.shuffle(units)
    return [job for unit in units for job in unit]


# -- certify ------------------------------------------------------------------

CERTIFY_SPEC = [("cylindrical", n, 1) for n in range(12, 17)] + \
               [("convex", n, 1) for n in range(11, 15)] + \
               [("rectilinear", n, 1) for n in range(11, 14)]


def setup_certify(shellcert, work, seed, timings):
    """Combinatorial documents: loading them skips planarization. The even-n
    cylindrical documents, whose bishell decide at n//2-1 is negative, also
    get relabelled copies (``NEGATIVE_COPIES``)."""
    docs = []
    for doc, raw in _geometric_docs(shellcert, work, CERTIFY_SPEC, seed, timings):
        drawing = shellcert.load_drawing(raw)
        combinatorial = shellcert.drawing_to_document(drawing, "combinatorial")
        shellcert.dump_document(combinatorial, doc.path)
        docs.append((doc, raw))
        if doc.family != "cylindrical":
            continue
        for copy in range(1, NEGATIVE_COPIES.get(doc.n, 0)):
            order = list(range(doc.n))
            random.Random(f"relabel:{doc.n}:{copy}").shuffle(order)
            name = f"{doc.name}-r{copy}"
            path = os.path.join(work, name + ".json")
            shellcert.dump_document(relabel(combinatorial, dict(enumerate(order))), path)
            docs.append((Doc(name, doc.family, doc.n, path, copy=copy), raw))
    return docs


def expected_verdict(table, doc, mode, k) -> bool:
    """True iff the decider must find a certificate."""
    if doc.family == "rectilinear":
        return True  # hull vertices stay on the unbounded face after deletions
    return table[f"{doc.family}-k{doc.n}-{mode}-{k}"] == "positive"


def _verify(doc, cert, derive=None, source=None):
    """A verify job; ``derive(source, cert)`` writes its certificate first."""
    prepare = None if derive is None else lambda: derive(source, cert)
    return Job("verify", ["verify", "--input", doc.path, "--certificate", cert],
               doc, None, {"verified": True}, prepare=prepare)


def plan_certify(docs, work, seed) -> list:
    """Per document: decide seq at n//2-2 and bishell at n//2-2 and n//2-1.
    Each positive decide is followed by verifies of its certificate, of the
    certificate shortened by one (k-1), and for bishell of the seq
    certificate it implies, so verify jobs are the majority. Relabelled
    copies only get the negative decide. One seeded verify per round runs
    on a tampered certificate."""
    with open(EXPECTED_VERDICTS, encoding="utf-8") as fh:
        table = json.load(fh)
    rng = random.Random(f"certify:{seed}")
    units = []
    for doc in docs:
        for mode, k in (("seq", doc.n // 2 - 2), ("bishell", doc.n // 2 - 2),
                        ("bishell", doc.n // 2 - 1)):
            cert = os.path.join(work, f"cert-{doc.name}-{mode}-k{k}.json")
            positive = expected_verdict(table, doc, mode, k)
            if doc.copy and positive:
                continue
            decide = Job("decide" if positive else "negative",
                         ["decide", "--input", doc.path, "--mode", mode, "--k", str(k),
                          "--output", cert],
                         doc, cert, {"positive": positive, "mode": mode, "k": k})
            if not positive:
                units.append([decide])
                continue
            unit = [decide, _verify(doc, cert),
                    _verify(doc, cert[:-5] + "-short.json", checks.shorten_certificate, cert)]
            if mode == "bishell":
                unit.append(_verify(doc, cert[:-5] + "-seq.json",
                                    checks.bishell_to_seq_certificate, cert))
            units.append(unit)
    tampered_unit = rng.choice([u for u in units if u[0].klass == "decide"])
    source = tampered_unit[0].output
    tampered = os.path.join(work, "cert-tampered.json")
    tampered_unit.append(Job("tampered", ["verify", "--input", tampered_unit[0].doc.path,
                                          "--certificate", tampered],
                             tampered_unit[0].doc, None, {"verified": False},
                             prepare=lambda: checks.tamper_certificate(source, tampered)))
    rng.shuffle(units)
    return [job for unit in units for job in unit]


# -- ingest -------------------------------------------------------------------

INGEST_SPEC = [("rectilinear", n, 8) for n in range(8, 13)] + \
              [("cylindrical", n, 1) for n in range(12, 17)]


def setup_ingest(shellcert, work, seed, timings):
    """40 rectilinear documents, and each cylindrical one in
    ``POLYLINE_TURNS`` orientations."""
    docs = []
    for doc, raw in _geometric_docs(shellcert, work, INGEST_SPEC, seed, timings):
        docs.append((doc, raw))
        if doc.family != "cylindrical":
            continue
        for turns in range(1, POLYLINE_TURNS):
            name = f"{doc.name}-q{turns}"
            path = os.path.join(work, name + ".json")
            shellcert.dump_document(quarter_turn(raw, turns), path)
            docs.append((Doc(name, doc.family, doc.n, path, copy=turns), raw))
    return docs


def plan_ingest(docs, work, seed) -> list:
    """One unlabelled SVG export per document."""
    rng = random.Random(f"ingest:{seed}")
    jobs = []
    for doc in docs:
        svg = os.path.join(work, f"{doc.name}.svg")
        klass = "polyline" if doc.family == "cylindrical" else "straight"
        jobs.append(Job(klass, ["export", "--input", doc.path, "--output", svg], doc, svg))
    rng.shuffle(jobs)
    return jobs


SETUP = {"analyze": setup_analyze, "certify": setup_certify, "ingest": setup_ingest}
PLAN = {"analyze": plan_analyze, "certify": plan_certify, "ingest": plan_ingest}
CHECK = {"analyze": checks.check_report, "certify": checks.check_certify,
         "ingest": checks.check_svg}


def build(shellcert, workload, work, seed, timings):
    """Run the workload's setup; returns the documents, not yet annotated."""
    os.makedirs(work, exist_ok=True)
    return SETUP[workload](shellcert, work, seed, timings)


def plan(workload, generated, work, seed) -> list:
    """The round's jobs, after annotating the documents setup generated."""
    docs = [_annotate(doc, raw) for doc, raw in generated]
    return PLAN[workload](docs, work, seed)
