"""Correctness checks on job outputs, independent of the library's code.

Each ``check_*`` takes a job, its exit code, its stdout and the bytes of
its output file, and returns None when the output is right or a one-line
reason when it is not. ``self_check`` feeds each checker deliberately
corrupted copies of real outputs, so a checker that accepts everything is
caught and the failure count cannot read 0 by accident.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET

_SVG = "{http://www.w3.org/2000/svg}"


def harary_hill(n: int) -> int:
    return (n // 2) * ((n - 1) // 2) * ((n - 2) // 2) * ((n - 3) // 2) // 4


def _orient(a, b, c) -> int:
    d = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (d > 0) - (d < 0)


def straight_crossings(points: dict) -> int:
    """Properly crossing pairs of straight edges on four distinct endpoints."""
    ids = sorted(points)
    edges = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]]
    count = 0
    for i, (a, b) in enumerate(edges):
        pa, pb = points[a], points[b]
        for c, d in edges[i + 1:]:
            if len({a, b, c, d}) < 4:
                continue
            pc, pd = points[c], points[d]
            if (_orient(pa, pb, pc) * _orient(pa, pb, pd) < 0
                    and _orient(pc, pd, pa) * _orient(pc, pd, pb) < 0):
                count += 1
    return count


def _hull(points: dict) -> frozenset:
    """Vertices of the convex hull (points are in general position)."""
    order = sorted(points, key=lambda v: points[v])
    lower, upper = [], []
    for chain, seq in ((lower, order), (upper, order[::-1])):
        for v in seq:
            while len(chain) >= 2 and _orient(points[chain[-2]], points[chain[-1]],
                                              points[v]) <= 0:
                chain.pop()
            chain.append(v)
    return frozenset(lower[:-1] + upper[:-1])


def _outer_k_values(points: dict) -> dict:
    """k-values for the unbounded face of a straight-line drawing:
    min(left, n-2-left), left counting the points left of the line uv."""
    n = len(points)
    out = {}
    ids = sorted(points)
    for i, u in enumerate(ids):
        for v in ids[i + 1:]:
            left = sum(1 for w in ids if w not in (u, v)
                       and _orient(points[u], points[v], points[w]) > 0)
            out[f"{u}-{v}"] = min(left, n - 2 - left)
    return out


# -- analyze ------------------------------------------------------------------

def check_report(job, rc, stdout, output) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    try:
        report = json.loads(output)
    except ValueError as exc:
        return f"report is not JSON: {exc}"
    return report_problem(job.doc, job.expect["faces"], report)


def report_problem(doc, faces, report) -> str | None:
    n = doc.n
    pairs = math.comb(n, 2)
    top = n // 2 - 2   # largest k of the bound table and the vertex pattern
    if report.get("n") != n:
        return f"n is {report.get('n')}, want {n}"
    if report.get("crossings") != doc.crossings:
        return f"crossings {report.get('crossings')}, want {doc.crossings}"
    if report.get("harary_hill") != harary_hill(n):
        return "wrong H(n)"
    if report["goodness"] != {"pass": True, "violations": []}:
        return "goodness check failed"
    if report["faces"] != {"count": doc.faces, "analyzed": faces}:
        return f"faces {report['faces'].get('count')}, want {doc.faces} and the requested ids"
    profiles = report["profiles"]
    if [p["face"] for p in profiles] != faces:
        return "profiles do not follow the requested faces"

    hull = _hull(doc.points) if doc.points else None
    outer = _outer_k_values(doc.points) if doc.points else None
    outer_seen = 0
    for prof in profiles:
        where = f"face {prof['face']}"
        kv = prof["k_values"]
        if len(kv) != pairs:
            return f"{where}: {len(kv)} k-values, want {pairs}"
        counts = prof["counts"]
        if sum(counts) != pairs:
            return f"{where}: counts sum to {sum(counts)}, want {pairs}"
        histogram = [0] * len(counts)
        for k in kv.values():
            if not 0 <= k < len(counts):
                return f"{where}: k-value {k} out of range"
            histogram[k] += 1
        if histogram != counts:
            return f"{where}: counts disagree with the k-values"
        want_cum = [sum((k + 1 - i) * counts[i] for i in range(k + 1))
                    for k in range(len(counts))]
        if prof["cumulated"] != want_cum:
            return f"{where}: cumulated row disagrees with counts"
        want_rows = [{"k": k, "cumulated": want_cum[k],
                      "threshold": 3 * math.comb(k + 3, 3),
                      "pass": want_cum[k] >= 3 * math.comb(k + 3, 3)}
                     for k in range(top + 1)]
        if prof["bounds"] != want_rows:
            return f"{where}: bound rows disagree with 3*C(k+3,3)"
        for v in prof["face_vertices"]:
            at_v = [0] * len(counts)
            for u in range(n):
                if u != v:
                    at_v[kv[f"{min(u, v)}-{max(u, v)}"]] += 1
            for k in range(top + 1):
                value = sum((k + 1 - i) * at_v[i] for i in range(k + 1))
                if value != 2 * math.comb(k + 2, 2):
                    return f"{where}: face vertex {v} breaks the 2*C(k+2,2) pattern at k={k}"
        if hull is not None and frozenset(prof["face_vertices"]) == hull:
            outer_seen += 1
            if kv != outer:
                return f"{where}: unbounded-face profile differs from min(left, n-2-left)"
    if outer is not None and len(faces) == doc.faces and outer_seen != 1:
        return f"{outer_seen} faces look unbounded, want 1"
    return None


# -- certify ------------------------------------------------------------------

def check_certify(job, rc, stdout, output) -> str | None:
    if job.klass in ("verify", "tampered"):
        want = 0 if job.expect["verified"] else 1
        if rc != want:
            return f"verify exit {rc}, want {want}"
        if want == 0 and stdout != "certificate verified\n":
            return "verify printed an unexpected line"
        return None
    want = 0 if job.expect["positive"] else 1
    if rc != want:
        return f"verdict exit {rc} differs from the expected-verdict table ({want})"
    if rc == 1:
        return None
    try:
        cert = json.loads(output)
    except ValueError as exc:
        return f"certificate is not JSON: {exc}"
    kind = "seq-shell" if job.expect["mode"] == "seq" else "bishell"
    k = job.expect["k"]
    if (cert.get("format") != "shellcert-certificate" or cert.get("kind") != kind
            or cert.get("k") != k or len(cert.get("a", ())) != k + 1):
        return "certificate header does not match the request"
    if cert.get("drawing_sha256") != job.doc.sha256:
        return "certificate names another drawing"
    return None


def tamper_certificate(source, target) -> None:
    """Copy a certificate with its second a-vertex replaced by the first."""
    with open(source, encoding="utf-8") as fh:
        cert = json.load(fh)
    cert["a"][1] = cert["a"][0]
    _write_certificate(cert, target)


def shorten_certificate(source, target) -> None:
    """Copy a certificate for k as one for k-1. Prefixes of deletion
    sequences keep every incidence and disjointness condition, so the copy
    must verify: a_0..a_{k-1}, and b_0..b_{k-1} or each S_i cut to k-i."""
    with open(source, encoding="utf-8") as fh:
        cert = json.load(fh)
    k = cert["k"] - 1
    cert["k"] = k
    cert["a"] = cert["a"][:k + 1]
    if cert["kind"] == "bishell":
        cert["b"] = cert["b"][:k + 1]
    else:
        cert["S"] = [seq[:k - i + 1] for i, seq in enumerate(cert["S"][:k + 1])]
    _write_certificate(cert, target)


def bishell_to_seq_certificate(source, target) -> None:
    """Copy a bishell certificate for s as the seq certificate for k = s it
    implies: the a-sequence, with S_i the first s-i+1 entries of b."""
    with open(source, encoding="utf-8") as fh:
        cert = json.load(fh)
    s = cert["k"]
    b = cert.pop("b")
    cert["kind"] = "seq-shell"
    cert["S"] = [b[:s - i + 1] for i in range(s + 1)]
    _write_certificate(cert, target)


def _write_certificate(cert, target) -> None:
    with open(target, "w", encoding="utf-8") as fh:
        json.dump(cert, fh, indent=1, sort_keys=True)
        fh.write("\n")


# -- ingest -------------------------------------------------------------------

def check_svg(job, rc, stdout, output) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    try:
        root = ET.fromstring(output)
    except ET.ParseError as exc:
        return f"SVG does not parse: {exc}"
    n = job.doc.n
    circles = len(root.findall(f"{_SVG}circle"))
    if circles != n + job.doc.crossings:
        return f"{circles} circles, want n + crossings = {n + job.doc.crossings}"
    lines = len(root.findall(f"{_SVG}polyline"))
    if lines != math.comb(n, 2):
        return f"{lines} edge polylines, want {math.comb(n, 2)}"
    return None


# -- self-check -----------------------------------------------------------------

def _corrupt_k_value(output: bytes) -> bytes:
    report = json.loads(output)
    prof = report["profiles"][0]
    edge = sorted(prof["k_values"])[0]
    k = prof["k_values"][edge]
    prof["k_values"][edge] = k + 1 if k + 1 < len(prof["counts"]) else k - 1
    return json.dumps(report).encode()


def _corrupt_crossings(output: bytes) -> bytes:
    report = json.loads(output)
    report["crossings"] += 1
    return json.dumps(report).encode()


def _drop_circle(output: bytes) -> bytes:
    lines = output.decode().split("\n")
    first = next(i for i, line in enumerate(lines) if line.startswith("<circle"))
    return "\n".join(lines[:first] + lines[first + 1:]).encode()


def self_check(workload, samples, check) -> dict:
    """samples: class -> (job, rc, stdout, output) of one real job each.

    Returns corruption name -> True when the checker rejected it. The
    untouched sample must pass, or the corruption proves nothing. Returns
    an empty dict when no job of a needed class passed its check.
    """
    needed = {"analyze": ("auto",), "certify": ("decide", "negative"),
              "ingest": ("polyline",)}[workload]
    if not all(klass in samples for klass in needed):
        return {}
    cases = []
    if workload == "analyze":
        job, rc, out, output = samples["auto"]
        cases = [("wrong_k_value", (job, rc, out, _corrupt_k_value(output))),
                 ("wrong_crossing_count", (job, rc, out, _corrupt_crossings(output)))]
    elif workload == "certify":
        for klass in ("decide", "negative"):
            job, rc, out, output = samples[klass]
            cases.append((f"flipped_verdict_{klass}", (job, 1 - rc, out, output)))
    else:
        job, rc, out, output = samples["polyline"]
        cases = [("svg_circle_missing", (job, rc, out, _drop_circle(output)))]
    result = {}
    for name, corrupted in cases:
        original = samples[corrupted[0].klass]
        result[name] = check(*original) is None and check(*corrupted) is not None
    return result
