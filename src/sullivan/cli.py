"""Command-line interface and report serialization.

Every subcommand is declared once, in `_parser()`, with the handler that
runs it.  Every report is built as a machine-readable tree first, and the
handler formats its text lines from that tree (the payload), so no number
exists only in prose.

Exit codes: 0 pass, 2 usage (including an --out path that cannot be
written), 3 validation failure or a model past the work budget (its
monomial bases would outgrow `algebra.BASIS_CELL_BUDGET`, or its formal
dimension exceeds `cohomology.DEGREE_BUDGET`), 4
theorem-verdict failure, 5 internal invariant breach or any other
unexpected exception (one line naming the exception type, never a
traceback).
"""

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .algebra import WorkBudgetError
from .cohomology import (
    InternalInvariantError,
    NotEllipticError,
    NotHomogeneousError,
    engine_for,
)
from .library import UnknownModelError, get_model, library, library_names, model_text
from .model import (
    GenerationBudgetError,
    ModelValidationError,
    QuotientError,
    RandomModelParams,
    SullivanModel,
    length_profile,
    random_elliptic_model,
)
from .parser import ModelSyntaxError, parse_model
from .sequences import build_gysin, build_wang, check_exactness
from .toomer import e0_spectrum, gap_scan
from .verifiers import ALL_THEOREMS, verify_all

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_VERDICT = 4
EXIT_INTERNAL = 5


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="sullivan",
        description="Exact cohomology, Toomer invariant and theorem checks "
                    "for minimal Sullivan algebras",
    )
    ap.add_argument("--version", action="version", version=f"sullivan {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, help, handler, model=True):
        """The subparser `name`, run by `handler(args)`, with the report
        flags and, if `model`, the model flags."""
        p = sub.add_parser(name, help=help)
        if model:
            p.add_argument("--model", metavar="FILE", help="model file (.sul)")
            p.add_argument("--lib", metavar="NAME", help="built-in library model")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", metavar="PATH", help="write the report to a file")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp field (byte-stable output)")
        p.set_defaults(handler=handler)
        return p

    command("validate", "check the Sullivan conditions", _cmd_validate)
    command("cohomology", "Betti table and representatives", _cmd_cohomology)
    command("bigraded", "bigraded dimensions h[i][k], n_k, N_k", _cmd_bigraded)
    command("toomer", "e0, spectrum and per-class values", _cmd_toomer)
    for kind in ("wang", "gysin"):
        p = command(kind, f"build and check the {kind.capitalize()} sequence", _cmd_sequence)
        p.add_argument("--ungraded", action="store_true",
                       help="forget the word-length grading")
    p = command("verify", "run theorem checkers", _cmd_verify)
    p.add_argument("theorem", choices=sorted(ALL_THEOREMS) + ["all"])
    p = command("gap-scan", "scan a corpus for e0-gaps", _cmd_gap_scan, model=False)
    p.add_argument("--count", type=int, default=10, help="number of random models")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--evens", type=int, default=2)
    p.add_argument("--odds", type=int, default=2)
    p.add_argument("--length", type=int, default=2)
    p.add_argument("--include-library", action="store_true")

    p = command("library", "list built-in models or emit one", _cmd_library, model=False)
    p.add_argument("--emit", metavar="NAME", help="print the model file text")
    return ap


def _load_model(args) -> SullivanModel:
    if args.model and args.lib:
        raise UsageError("give either --model or --lib, not both")
    if args.model:
        try:
            with open(args.model, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            raise ModelFileError(str(err)) from err
        except UnicodeDecodeError as err:
            raise ModelFileError(
                f"{args.model} is not UTF-8 text ({err.reason} at byte {err.start})"
            ) from err
        return parse_model(text, name=args.model)
    if args.lib:
        return get_model(args.lib)
    raise UsageError("a model is required: --model FILE or --lib NAME")


class UsageError(ValueError):
    pass


class ModelFileError(ValueError):
    """The --model file cannot be read as text."""


# -- command handlers: each returns (exit_code, payload, human lines) ----


def _cmd_validate(args):
    try:
        model = _load_model(args)
    except ModelValidationError as err:
        payload = {
            "valid": False,
            "violations": [
                {"generator": v.generator, "condition": v.condition,
                 "message": v.message, "line": v.line}
                for v in err.violations
            ],
        }
        lines = ["INVALID"] + [f"  {v}" for v in err.violations]
        return EXIT_VALIDATION, payload, lines
    profile = length_profile(model)
    payload = {
        "valid": True,
        "model": model.name,
        "generators": [f"{g.name}:{g.degree}" for g in model.generators],
        "simply_connected": model.simply_connected,
        "length_profile": {"kind": profile.kind, "l": profile.l},
    }
    lines = [
        f"model {model.name or '<anonymous>'}: VALID",
        f"  generators: {', '.join(payload['generators'])}",
        f"  simply connected: {model.simply_connected}",
        f"  length profile: {profile.kind}({profile.l})",
    ]
    return EXIT_OK, payload, lines


def _cmd_cohomology(args):
    model = _load_model(args)
    engine = engine_for(model)
    table = engine.cohomology_table()
    gens = model.generators
    payload = {
        "model": model.name,
        "formal_dimension": table.formal_dimension,
        "betti": list(table.betti),
        "total_dimension": table.total_dimension,
        "classes": {
            str(i): [c.pretty(gens) for c in per_degree]
            for i, per_degree in enumerate(table.classes)
            if per_degree
        },
    }
    lines = [
        f"model {model.name or '<anonymous>'}",
        f"formal dimension N = {payload['formal_dimension']}",
        f"total dim H = {payload['total_dimension']}",
        "betti numbers:",
    ]
    for i, reps in payload["classes"].items():
        lines.append(f"  b_{i} = {payload['betti'][int(i)]}   [{', '.join(reps)}]")
    return EXIT_OK, payload, lines


def _cmd_bigraded(args):
    model = _load_model(args)
    engine = engine_for(model)
    engine.require_certificate()
    table = engine.bigraded_profile()
    payload = {
        "model": model.name,
        "formal_dimension": table.formal_dimension,
        "e_top": table.e_top,
        "h": [list(row) for row in table.h],
        "n_k": list(table.n_k),
        "N_k": list(table.N_k),
        "length_dimensions": list(table.length_dims()),
    }
    lines = [
        f"model {model.name or '<anonymous>'}",
        f"formal dimension N = {payload['formal_dimension']}, top length e = {payload['e_top']}",
        f"dim H_k by length: {payload['length_dimensions']}",
        f"n_k = {payload['n_k']}",
        f"N_k = {payload['N_k']}",
        "h[i][k] (rows i = 0..N):",
        "  i\\k " + " ".join(f"{k:>3d}" for k in range(payload["e_top"] + 1)),
    ]
    for i, row in enumerate(payload["h"]):
        lines.append(f"  {i:>3d} " + " ".join(f"{v:>3d}" for v in row))
    return EXIT_OK, payload, lines


def _cmd_toomer(args):
    model = _load_model(args)
    engine = engine_for(model)
    report = e0_spectrum(model)
    gens = model.generators
    payload = {
        "model": model.name,
        "e0": report.e0_algebra,
        "cat0": report.cat0,
        "spectrum": list(report.spectrum),
        "gaps": list(report.gaps),
        "dim_h_plus": report.total_h_plus,
        "per_class": [
            {"degree": i, "values": list(values),
             "classes": [c.pretty(gens) for c in engine.classes(i)]}
            for i, values in enumerate(report.per_class, start=1)
            if values
        ],
    }
    lines = [
        f"model {model.name or '<anonymous>'}",
        f"e0 = {payload['e0']}   (cat0 = {payload['cat0']} via the ellipticity certificate)",
        f"spectrum mu_k, k = 0..{payload['e0']}: {payload['spectrum']}",
        f"gaps: {payload['gaps'] or 'none'}",
        "per-class e0:",
    ]
    for entry in payload["per_class"]:
        pairs = ", ".join(
            f"[{cls}] -> {v}" for cls, v in zip(entry["classes"], entry["values"])
        )
        lines.append(f"  degree {entry['degree']}: {pairs}")
    return EXIT_OK, payload, lines


def _cmd_sequence(args):
    kind = args.command
    model = _load_model(args)
    build = build_wang if kind == "wang" else build_gysin
    les = build(model, ungraded=args.ungraded)
    report = check_exactness(les)
    relation = report.dimension_relation
    payload = {
        "model": model.name,
        "sequence": kind,
        "bigraded": report.bigraded,
        "nodes_checked": report.nodes_checked,
        "all_exact": report.all_exact,
        "failures": [
            {
                "position": v.position,
                "role": v.role,
                "rank_in": v.rank_in,
                "kernel_out": v.kernel_out,
                "composite_zero": v.composite_zero,
                "witness": _jsonable(v.witness),
            }
            for v in report.failures
        ],
        "dimension_relation": {
            "parity": relation.parity,
            "N": relation.n_total,
            "M": relation.m_quotient,
            "expected_N": relation.expected,
            "holds": relation.holds,
        },
    }
    rel = payload["dimension_relation"]
    lines = [
        f"model {model.name or '<anonymous>'}: {kind} sequence "
        f"({'bigraded' if payload['bigraded'] else 'ungraded'})",
        f"nodes checked: {payload['nodes_checked']}",
        f"exactness: {'PASS (all nodes exact)' if payload['all_exact'] else 'FAIL'}",
        f"dimension relation ({rel['parity']} case): N = {rel['N']}, "
        f"M = {rel['M']}, expected N = {rel['expected_N']} -> "
        f"{'holds' if rel['holds'] else 'VIOLATED'}",
    ]
    for f in payload["failures"]:
        lines.append(
            f"  FAIL at {f['position']} ({f['role']}): rank(in) = {f['rank_in']}, "
            f"dim ker(out) = {f['kernel_out']}, composite zero: {f['composite_zero']}, "
            f"witness: {f['witness']}"
        )
    code = EXIT_OK if report.all_exact and relation.holds else EXIT_VERDICT
    return code, payload, lines


def _cmd_verify(args):
    model = _load_model(args)
    if args.theorem == "all":
        reports = verify_all(model)
    else:
        reports = [ALL_THEOREMS[args.theorem](model)]
    payload = {
        "model": model.name,
        "reports": [
            {
                "theorem": r.theorem_id,
                "verdict": r.verdict,
                "witnesses": _jsonable(r.witnesses),
                "derived": _jsonable(r.derived),
            }
            for r in reports
        ],
    }
    lines = [f"model {model.name or '<anonymous>'}"]
    for r in reports:
        lines.append(f"  {r.theorem_id:12s} {r.verdict}")
        for key, value in r.witnesses.items():
            lines.append(f"    {key}: {value}")
    if any(r.verdict == "fail" for r in reports):
        return EXIT_VERDICT, payload, lines
    # a single requested theorem whose hypotheses fail is distinguishable
    # for scripting: exit 3 rather than a silent 0
    if args.theorem != "all" and reports[0].verdict == "not-applicable":
        return EXIT_VALIDATION, payload, lines
    return EXIT_OK, payload, lines


def _cmd_gap_scan(args):
    if args.count < 0:
        raise UsageError("--count must be >= 0")
    try:
        params = RandomModelParams(n_even=args.evens, n_odd=args.odds, l=args.length)
    except ValueError as err:
        raise UsageError(str(err)) from err
    corpus = []
    if args.include_library:
        for m in library():
            cert = engine_for(m).certify()
            if cert.ok:
                corpus.append((m, None))
    for offset in range(args.count):
        seed = args.seed + offset
        corpus.append((random_elliptic_model(seed, params), seed))
    records = gap_scan(corpus)
    payload = {
        "corpus_size": len(records),
        "params": {
            "count": args.count, "seed": args.seed, "evens": args.evens,
            "odds": args.odds, "length": args.length,
            "include_library": bool(args.include_library),
        },
        "gaps_found": sum(1 for r in records if r.gaps),
        "records": [
            {
                "model": r.model_name,
                "seed": r.seed,
                "e0": r.e0,
                "spectrum": list(r.spectrum),
                "gaps": list(r.gaps),
                "verdict": r.verdict,
                "model_text": r.model_text,
            }
            for r in records
        ],
    }
    lines = [f"gap scan over {payload['corpus_size']} certified elliptic models"]
    for r in payload["records"]:
        lines.append(f"  {r['model']}: e0 = {r['e0']}, spectrum {r['spectrum']}, {r['verdict']}")
    found = payload["gaps_found"]
    if found:
        lines.append(f"*** {found} MODEL(S) WITH e0-GAPS -- research-grade finding, "
                     f"records preserved above ***")
    else:
        lines.append("no gaps found")
    return (EXIT_VERDICT if found else EXIT_OK), payload, lines


def _cmd_library(args):
    if args.emit:
        text = model_text(args.emit)
        payload = {"name": args.emit, "text": text}
        return EXIT_OK, payload, [text.rstrip("\n")]
    names = library_names()
    payload = {"models": names}
    lines = ["built-in models:"] + [f"  {n}" for n in names]
    return EXIT_OK, payload, lines


def _execute(args) -> tuple[int, dict]:
    """Run the parsed command: (exit code, report document), where the
    document holds both the machine tree and the human rendering."""
    try:
        code, payload, lines = args.handler(args)
    except UsageError as err:
        code, prefix, msg = EXIT_USAGE, "usage error", str(err)
    except (ModelSyntaxError, ModelValidationError, UnknownModelError,
            QuotientError, NotEllipticError, NotHomogeneousError,
            GenerationBudgetError, ModelFileError, WorkBudgetError) as err:
        code, prefix, msg = EXIT_VALIDATION, "error", str(err)
    except InternalInvariantError as err:
        code, prefix, msg = EXIT_INTERNAL, "internal invariant breach", str(err)
    except Exception as err:
        code, prefix = EXIT_INTERNAL, "internal error"
        msg = f"{type(err).__name__}: {err}".splitlines()[0]
    else:
        return code, _document(args, payload, lines)
    return code, _document(args, {"error": msg}, [f"{prefix}: {msg}"])


def _document(args, payload, lines) -> dict:
    doc = {
        "tool": "sullivan",
        "version": __version__,
        "command": args.command,
    }
    if not args.no_timestamp:
        doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    doc.update(payload)
    doc["rendering"] = lines
    return doc


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse has already printed usage/version
        return EXIT_USAGE if exc.code not in (0, None) else 0
    code, doc = _execute(args)
    if args.format == "json":
        rendered = json.dumps(doc, indent=2)
    else:
        rendered = "\n".join(doc["rendering"])
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered + "\n")
        except OSError as err:
            print(f"error: cannot write --out {args.out}: {err.strerror}")
            return EXIT_USAGE
    else:
        try:
            print(rendered)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed stdout (`| head`): send what is left, and the
            # flush at interpreter exit, to devnull instead of raising again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
