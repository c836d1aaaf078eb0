"""Command-line frontend.

Subcommands: analyze, decide, verify, generate, export. Exit codes:
0 success / certificate verified / certificate found, 1 decided negative
or certificate unverified, 2 invalid input or usage, 3 certificate does
not belong to the drawing, 4 required capability missing (e.g. rendering
a drawing without geometry). analyze, decide, verify and export --labels
reject a drawing that loads but is not good with 2, as does every other
ShellcertError without a code of its own; no error exits 1, which means
"negative". Plain export draws any drawing that loads, good or not.
Outputs carry no timestamps, so identical inputs and flags produce
identical bytes. Each call builds the parser of the command it names;
help and errors above the subcommand get the parser of all five, so
their usage line lists every command.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
from operator import itemgetter

from . import __version__
from .documents import (JsonText, certificate_from_document, certificate_to_document,
                        decimal, dump_document, dumps_document, load_drawing)
from .drawing import check_face, check_level, face_vertex_table, trace_faces, validate_goodness
from .errors import (CapabilityError, CertificateMismatchError, DocumentError,
                     ShellcertError, quoted)
from .generators import (DEFAULT_SCALE, convex_document, cylindrical_document,
                         rectilinear_document)
from .kedges import (bound_rows, check_kmax, cumulated_counts, face_profiles,
                     harary_hill_bound, max_k)
# perfbench/layertrace.py wraps these names in this module by name
from .drawing import vertices_on_face  # noqa: F401
from .kedges import cumulative_bound_check, k_edge_profile  # noqa: F401
from .planarize import locate_face
from .shellability import (SeqShellCertificate, check_certificate_refs,
                           decide_bishellable, decide_seq_shellable,
                           verify_bishell_certificate, verify_seq_certificate)
from .svg import render_svg

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2
EXIT_MISMATCH = 3
EXIT_CAPABILITY = 4

NOT_GOOD = "drawing failed goodness validation"


class _NotGood(ShellcertError):
    """The drawing loads but is not good, and the command needs a good one."""


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args, extras = _build_parser(argv).parse_known_args(argv)
    if extras:
        # the error names all five commands in its usage line
        args = _build_parser([]).parse_args(argv)
    try:
        return args.func(args)
    except _NotGood:
        print(NOT_GOOD, file=sys.stderr)
        return EXIT_INVALID
    except CertificateMismatchError as exc:
        print(f"certificate mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except CapabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except (ShellcertError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def _build_parser(argv) -> argparse.ArgumentParser:
    """The parser with the one command that argv[0] names, or with all
    five when it names none (help, --version, errors, an empty argv)."""
    parser = argparse.ArgumentParser(
        prog="shellcert",
        description="Analyze good drawings of complete graphs: k-edge "
                    "profiles, crossing bounds, and shellability certificates.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    named = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    for name in named:
        help_text, add_arguments = _COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def _analyze_arguments(p) -> None:
    p.add_argument("--input", required=True, help="drawing document (JSON)")
    p.add_argument("--face", default="auto",
                   help='face selector: a face id, "auto" (all faces), or "at:x,y"')
    p.add_argument("--kmax", type=decimal, default=None,
                   help="largest k for the bound table (default n//2-2)")
    p.add_argument("--output", default=None, help="report path (default stdout)")
    p.set_defaults(func=cmd_analyze)


def _decide_arguments(p) -> None:
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=("seq", "bishell"), required=True)
    p.add_argument("--k", type=decimal, default=None,
                   help="sequence parameter (default n//2-2)")
    p.add_argument("--face", default="auto",
                   help='face selector: a face id, "auto", or "at:x,y"')
    p.add_argument("--output", default=None, help="certificate path (default stdout)")
    p.set_defaults(func=cmd_decide)


def _verify_arguments(p) -> None:
    p.add_argument("--input", required=True)
    p.add_argument("--certificate", required=True)
    p.set_defaults(func=cmd_verify)


def _generate_arguments(p) -> None:
    p.add_argument("--family", choices=("convex", "cylindrical", "rectilinear"),
                   required=True)
    p.add_argument("--n", type=decimal, required=True)
    p.add_argument("--seed", type=decimal, default=0, help="seed (rectilinear only)")
    p.add_argument("--scale", type=decimal, default=DEFAULT_SCALE)
    p.add_argument("--output", default=None, help="document path (default stdout)")
    p.set_defaults(func=cmd_generate)


def _export_arguments(p) -> None:
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="SVG path")
    p.add_argument("--face", default=None, help="face to highlight (id or at:x,y)")
    p.add_argument("--certificate", default=None, help="certificate overlay")
    p.add_argument("--labels", default=None,
                   help="label edges with k-values for this face (id or at:x,y)")
    p.add_argument("--size", type=decimal, default=720)
    p.set_defaults(func=cmd_export)


# each command's help line and the function that adds its arguments, in
# the order the usage line lists them
_COMMANDS = {
    "analyze": ("validate a drawing and report k-edge profiles", _analyze_arguments),
    "decide": ("search for a shellability certificate", _decide_arguments),
    "verify": ("check a certificate against a drawing", _verify_arguments),
    "generate": ("emit a reference drawing document", _generate_arguments),
    "export": ("render a drawing to SVG", _export_arguments),
}


def _read_document(path):
    """The JSON document at path and the sha256 of the bytes it was parsed
    from, read once. Bytes that are not UTF-8, too deeply nested or with
    an integer too long to convert are invalid JSON here too."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = _parse_json(data)
    except (ValueError, RecursionError) as exc:
        raise DocumentError(f"{path}: not valid JSON: {exc}") from None
    return doc, hashlib.sha256(data).hexdigest()


def _parse_json(data):
    """json.loads of the UTF-8 text in data.

    The parser's nesting limit is the recursion limit less the caller's
    depth, so a deeply nested document would parse or not depending on
    who reads it. One that fails is parsed again on a new thread, which
    starts at depth zero: it is judged as a fresh interpreter judges it,
    whoever calls."""
    text = data.decode("utf-8")
    try:
        return json.loads(text)
    except RecursionError:
        pass
    result = []

    def parse():
        try:
            result.append(json.loads(text))
        except (ValueError, RecursionError) as exc:
            result.append(exc)

    thread = threading.Thread(target=parse)
    thread.start()
    thread.join()
    if isinstance(result[0], Exception):
        raise result[0]
    return result[0]


def _load_input(path, good=False):
    """The drawing whose document is at path and the document's sha256.
    With good set, a drawing that loads but is not good raises _NotGood."""
    doc, digest = _read_document(path)
    drawing = load_drawing(doc)
    if good and not validate_goodness(drawing).ok:
        raise _NotGood
    return drawing, digest


def _read_certificate(path, drawing_digest):
    """The certificate stored at path; raises CertificateMismatchError if it
    carries a digest other than drawing_digest, that of the drawing's
    document."""
    cert, digest = certificate_from_document(_read_document(path)[0])
    if digest is not None and digest != drawing_digest:
        raise CertificateMismatchError(
            "certificate was issued for a different drawing document")
    return cert


def _emit(payload, path) -> None:
    if path is None:
        sys.stdout.write(dumps_document(payload))
    else:
        dump_document(payload, path)


def _parse_face(selector, drawing):
    """Face selector: an id, "auto" for all faces, or "at:x,y" (geometric)."""
    faces = trace_faces(drawing)
    if selector == "auto":
        return list(faces.face_ids())
    if selector.startswith("at:"):
        try:
            sx, sy = selector[3:].split(",")
            point = (decimal(sx), decimal(sy))
        except ValueError:
            raise ValueError(f'bad point selector {quoted(selector)}; want "at:x,y"') from None
        return [locate_face(drawing, point)]
    try:
        face = decimal(selector)
    except ValueError:
        raise ValueError(f"bad face selector {quoted(selector)}") from None
    try:
        return [check_face(drawing, face)]
    except ValueError as exc:
        raise ValueError(f"{exc} (drawing has {faces.face_count()})") from None


def cmd_analyze(args) -> int:
    drawing, digest = _load_input(args.input)
    report = validate_goodness(drawing)
    payload = {
        "input": {"path": args.input, "sha256": digest},
        "n": drawing.n,
        "goodness": {
            "pass": report.ok,
            "violations": [{"condition": c, "edges": [list(e) for e in pair]}
                           for c, pair in report.violations],
        },
        "faces": {"count": trace_faces(drawing).face_count()},
        "crossings": drawing.crossing_count(),
        "harary_hill": harary_hill_bound(drawing.n),
        "profiles": [],
        "deciders": None,
    }
    if not report.ok:
        _emit(payload, args.output)
        raise _NotGood

    kmax = args.kmax if args.kmax is not None else max_k(drawing.n) - 1
    selected = _parse_face(args.face, drawing)
    # a drawing on 3 vertices has no bound levels: by default its table is
    # empty (kmax = -1), and an explicit --kmax is out of range
    if args.kmax is not None or kmax >= 0:
        check_kmax(drawing.n, kmax)
    payload["faces"]["analyzed"] = selected
    vertices = face_vertex_table(drawing)
    write_k_values = _k_value_writer([f"{u}-{v}" for u, v in drawing.edges()],
                                     max_k(drawing.n))
    # a row's bounds, counts and cumulated counts follow from its counts, so
    # faces with equal counts share that text, made on the first of them
    heads = {}
    for face, (values, counts) in zip(selected, face_profiles(drawing, selected)):
        head = heads.get(counts)
        if head is None:
            head = heads[counts] = _profile_head(counts, kmax)
        payload["profiles"].append(JsonText(
            f'{head}{face},"face_vertices":[{",".join(map(str, vertices[face]))}],'
            f'"k_values":{{{write_k_values(values)}}}}}'))
    _emit(payload, args.output)
    return EXIT_OK


_JSON_BOOL = ("false", "true")
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


def _profile_head(counts: tuple, kmax: int) -> str:
    """The compact JSON of an analyze profile, keys sorted, up to its face
    id: the bounds rows for k = 0..kmax, the counts and cumulated counts."""
    cumulated = cumulated_counts(counts)
    bounds = ",".join(f'{{"cumulated":{c},"k":{k},"pass":{_JSON_BOOL[ok]},"threshold":{t}}}'
                      for k, c, t, ok in bound_rows(cumulated, kmax))
    return (f'{{"bounds":[{bounds}],"counts":[{",".join(map(str, counts))}],'
            f'"cumulated":[{",".join(map(str, cumulated))}],"face":')


def _k_value_writer(names: list, top: int):
    """The function that writes the members of a profile's k_values object
    from its values in edge order: names are the edges' names in that
    order, the object lists them sorted as strings, and top is the largest
    k-value. When every k-value is one digit, its ASCII digits go into one
    list of the member texts, kept from row to row; else a % format."""
    in_name_order = itemgetter(*sorted(range(len(names)), key=names.__getitem__))
    names = in_name_order(names)
    if top > 9:
        template = ",".join(f'"{name}":%d' for name in names)
        return lambda values: template % in_name_order(values)
    parts = []
    for name in names:
        parts += (f',"{name}":', "")
    parts[0] = parts[0][1:]

    def write(values) -> str:
        parts[1::2] = in_name_order(values.translate(_DIGITS).decode("ascii"))
        return "".join(parts)
    return write


def cmd_decide(args) -> int:
    drawing, digest = _load_input(args.input, good=True)
    k = args.k
    if k is None:
        k = max_k(drawing.n) - 1
        if k < 0:  # n = 3
            raise ValueError(f"a drawing on {drawing.n} vertices has no default k "
                             f"(n//2-2); give --k in 0..{drawing.n - 2}")
    check_level("k", k, drawing.n - 2)
    selected = _parse_face(args.face, drawing)
    face_filter = None if args.face == "auto" else selected[0]

    if args.mode == "seq":
        cert = decide_seq_shellable(drawing, k, face_filter)
    else:
        cert = decide_bishellable(drawing, k, face_filter)
    if cert is None:
        print(f"none: not {k}-{'seq-shellable' if args.mode == 'seq' else 'bishellable'}"
              f"{' for any face' if face_filter is None else f' for face {face_filter}'}",
              file=sys.stderr)
        return EXIT_NEGATIVE
    _emit(certificate_to_document(cert, drawing_sha256=digest), args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    drawing, digest = _load_input(args.input, good=True)
    cert = _read_certificate(args.certificate, digest)
    if isinstance(cert, SeqShellCertificate):
        result = verify_seq_certificate(drawing, cert)
    else:
        result = verify_bishell_certificate(drawing, cert)
    if result.ok:
        print("certificate verified")
        return EXIT_OK
    for line in result.violations:
        print(f"violation: {line}", file=sys.stderr)
    return EXIT_NEGATIVE


def cmd_generate(args) -> int:
    if args.family == "convex":
        doc = convex_document(args.n, args.scale)
    elif args.family == "cylindrical":
        doc = cylindrical_document(args.n, args.scale)
    else:
        doc = rectilinear_document(args.n, args.seed, args.scale)
    _emit(doc, args.output)
    return EXIT_OK


def cmd_export(args) -> int:
    # an SVG highlights and labels one face; "auto" means every face
    for flag, selector in (("--face", args.face), ("--labels", args.labels)):
        if selector == "auto":
            raise ValueError(f"export {flag} takes one face (an id or at:x,y), not auto")
    # k-value labels are defined only for good drawings
    drawing, digest = _load_input(args.input, good=args.labels is not None)
    face_highlight, label_face = (
        None if selector is None else _parse_face(selector, drawing)[0]
        for selector in (args.face, args.labels))
    certificate = None
    if args.certificate is not None:
        certificate = _read_certificate(args.certificate, digest)
        # with a digest or without, its face and vertices must exist
        check_certificate_refs(drawing, certificate)
    text = render_svg(drawing, size=args.size, face_highlight=face_highlight,
                      certificate=certificate, label_face=label_face)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
