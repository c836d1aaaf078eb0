"""Layer tracing from outside the library.

shellcert modules call each other through names bound at import time
(``from .drawing import trace_faces``). A ``Tracer`` replaces such bindings
in the importing module's namespace with wrappers that record one span per
call, and puts the originals back in ``restore``. Nothing in the library
changes; the spans are a view of the calls that cross a module boundary.

A span is a tuple ``(id, parent, job, name, site, start, end, extra)``:
``parent`` is the enclosing span's id (0 at the root), ``job`` the job
being run, ``name`` the callee as ``layer.function``, ``site`` the module
whose binding was wrapped, and ``extra`` a small dict of facts about the
call (verdict, work sizes, cache misses) or None.
"""

from __future__ import annotations

import importlib
import json
import time

# (module whose binding is wrapped, bound name, span name)
WRAPPED = (
    ("cli", "main", "cli.main"),
    ("cli", "load_drawing", "documents.load_drawing"),
    ("cli", "certificate_from_document", "documents.certificate"),
    ("cli", "certificate_to_document", "documents.certificate"),
    ("cli", "validate_goodness", "drawing.validate_goodness"),
    ("cli", "trace_faces", "drawing.trace_faces"),
    ("cli", "vertices_on_face", "drawing.vertices_on_face"),
    ("cli", "k_edge_profile", "kedges.k_edge_profile"),
    ("cli", "cumulative_bound_check", "kedges.cumulative_bound_check"),
    ("cli", "decide_seq_shellable", "shellability.decide"),
    ("cli", "decide_bishellable", "shellability.decide"),
    ("cli", "verify_seq_certificate", "shellability.verify"),
    ("cli", "verify_bishell_certificate", "shellability.verify"),
    ("cli", "render_svg", "svg.render_svg"),
    ("documents", "planarize", "planarize.planarize"),
    ("documents", "trace_faces", "drawing.trace_faces"),
    ("planarize", "segment_intersection", "geometry.segment_intersection"),
    ("planarize", "trace_faces", "drawing.trace_faces"),
    # delete_vertex and child_drawing reach trace_faces through their own
    # module's global, so the drawing module's binding is wrapped as well.
    ("drawing", "trace_faces", "drawing.trace_faces"),
    ("kedges", "child_drawing", "drawing.child_drawing"),
    ("kedges", "trace_faces", "drawing.trace_faces"),
    ("shellability", "child_drawing", "drawing.child_drawing"),
    ("shellability", "trace_faces", "drawing.trace_faces"),
    ("shellability", "vertices_on_face", "drawing.vertices_on_face"),
    # the deciders' self-check of every certificate they emit
    ("shellability", "verify_seq_certificate", "shellability.verify"),
    ("shellability", "verify_bishell_certificate", "shellability.verify"),
    ("svg", "trace_faces", "drawing.trace_faces"),
    ("svg", "k_edge_profile", "kedges.k_edge_profile"),
)


class Tracer:
    """Records spans of wrapped cross-module calls, in memory."""

    def __init__(self):
        self.spans = []
        self.job = 0
        self._stack = [0]
        self._next_id = 1
        self._saved = []
        self._profiled = {}   # id(drawing) -> drawing, for first/next profile
        self._children = {}   # id(child drawing) -> child drawing, for misses

    def start_job(self, job: int) -> None:
        self.job = job
        self._profiled.clear()
        self._children.clear()

    def install(self, only=None) -> None:
        """Wrap every entry of WRAPPED, or those whose span name is in ``only``."""
        for mod_name, attr, span_name in WRAPPED:
            if only is not None and span_name not in only:
                continue
            module = importlib.import_module(f"shellcert.{mod_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name, mod_name))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, site):
        extra_of = _EXTRA.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            extra = extra_of(self, args, result) if extra_of else None
            spans.append((span_id, parent, self.job, name, site, start, end, extra))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _planarize_extra(tracer, args, drawing):
    _, _, polylines = args
    pieces = sum(len(pts) - 1 for pts in polylines.values())
    return {"subsegments": pieces, "crossings": drawing.crossing_count()}


def _profile_extra(tracer, args, profile):
    drawing = args[0]
    first = id(drawing) not in tracer._profiled
    tracer._profiled[id(drawing)] = drawing
    return {"first": first}


def _child_extra(tracer, args, result):
    child = result[0]
    miss = id(child) not in tracer._children
    tracer._children[id(child)] = child
    return {"miss": miss}


def _decide_extra(tracer, args, cert):
    return {"positive": cert is not None}


_EXTRA = {
    "planarize.planarize": _planarize_extra,
    "kedges.k_edge_profile": _profile_extra,
    "drawing.child_drawing": _child_extra,
    "shellability.decide": _decide_extra,
}


def layer_metrics(spans) -> dict:
    """Per-layer totals over the given spans (all of one traced phase).

    Self time is a span's duration minus the durations of its direct
    children; the wrapped calls nest strictly, so children never overlap.
    """
    child_time = {}
    for span in spans:
        parent = span[1]
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (span[6] - span[5])

    def dur(span):
        return span[6] - span[5]

    def self_time(span):
        return dur(span) - child_time.get(span[0], 0.0)

    by_name = {}
    for span in spans:
        by_name.setdefault(span[3], []).append(span)

    def total(name):
        return sum(dur(s) for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    planar = by_name.get("planarize.planarize", ())
    crossings = sum(s[7]["crossings"] for s in planar)
    tests = calls("geometry.segment_intersection")
    children = by_name.get("drawing.child_drawing", ())
    misses = sum(1 for s in children if s[7]["miss"])
    profiles = by_name.get("kedges.k_edge_profile", ())
    decides = by_name.get("shellability.decide", ())

    # documents.self_s: load time not spent in planarize or face tracing
    # (for combinatorial documents this is the parse and Drawing validation).
    index = {s[0]: s for s in spans}
    load_children = sum(dur(s) for s in spans
                        if s[1] in index and index[s[1]][3] == "documents.load_drawing"
                        and s[3] in ("planarize.planarize", "drawing.trace_faces"))

    return {
        "cli.self_s": sum(self_time(s) for s in by_name.get("cli.main", ())),
        "documents.load_drawing.calls": calls("documents.load_drawing"),
        "documents.load_drawing.s": total("documents.load_drawing"),
        "documents.self_s": total("documents.load_drawing") - load_children,
        "planarize.calls": len(planar),
        "planarize.s": total("planarize.planarize"),
        "planarize.subsegments": sum(s[7]["subsegments"] for s in planar),
        "planarize.crossings": crossings,
        "geometry.segment_intersection.calls": tests,
        "geometry.segment_intersection.s": total("geometry.segment_intersection"),
        "planarize.hit_ratio": crossings / tests if tests else 0.0,
        "drawing.trace_faces.calls": calls("drawing.trace_faces"),
        "drawing.trace_faces.s": total("drawing.trace_faces"),
        "drawing.child_drawing.calls": len(children),
        "drawing.child_drawing.misses": misses,
        "drawing.child_drawing.s": total("drawing.child_drawing"),
        "drawing.child_drawing.hit_ratio":
            (len(children) - misses) / len(children) if children else 0.0,
        "drawing.validate_goodness.s": total("drawing.validate_goodness"),
        "kedges.k_edge_profile.calls": len(profiles),
        "kedges.first_profile_s": sum(dur(s) for s in profiles if s[7]["first"]),
        "kedges.next_profile_s": sum(dur(s) for s in profiles if not s[7]["first"]),
        "kedges.cumulative_bound_check.s": total("kedges.cumulative_bound_check"),
        "shellability.decide.calls": len(decides),
        "shellability.decide_pos_s": sum(dur(s) for s in decides if s[7]["positive"]),
        "shellability.decide_neg_s": sum(dur(s) for s in decides if not s[7]["positive"]),
        "shellability.verify.calls": calls("shellability.verify"),
        "shellability.verify.s": total("shellability.verify"),
        "shellability.candidate_queries": sum(
            1 for s in by_name.get("drawing.vertices_on_face", ()) if s[4] == "shellability"),
        "shellability.self_s": sum(self_time(s) for name in ("shellability.decide",
                                                             "shellability.verify")
                                   for s in by_name.get(name, ())),
        "svg.render_svg.s": total("svg.render_svg"),
    }
