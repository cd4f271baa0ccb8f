"""Command-line surface.

Exit codes: 0 = success / property holds, 1 = checked false (not a brick, a
violation or witness was found, not isomorphic), 2 = input error, 3 = cap
exceeded or cross-method disagreement, 4 = internal error (an unexpected
exception, never a verdict; ``--json`` sets ``error_kind`` to "internal").
A stdout closed by its reader (``... | head -1``, ``--help | true``) exits 2
without a traceback, and nothing more is written.
``--json`` switches every command to a single machine-readable document with
a stable schema.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict

from .algebra import (Presentation, PresentationError, SignError,
                      parse_presentation, format_presentation, solve_sign_maps,
                      validate_string_algebra)
from .bricks import (BrickReport, band_brick_automaton, band_brick_direct,
                     band_brick_endo, string_brick_automaton,
                     string_brick_direct, string_brick_endo)
from .construct import build_mia, parity_mia, to_dot
from .mia import MiaError, format_mia, parse_mia
from .recover import presentations_isomorphic, recover_presentation
from .strings import CapExceeded, Context, StringError
from .sturmian import (BI_INFINITE, RIGHT_INFINITE, DirectiveSequence,
                       SturmianError, bridge, characteristic_prefix,
                       sturmian_window_check)

SCHEMA = "stringbricks/1"

OK, CHECKED_FALSE, INPUT_ERROR, CAP_OR_DISAGREE, INTERNAL_ERROR = 0, 1, 2, 3, 4


class _Output:
    def __init__(self, command: str, as_json: bool):
        self.command = command
        self.as_json = as_json
        self.doc: dict = {"schema": SCHEMA, "command": command}
        self.lines: list[str] = []

    def field(self, key, value):
        self.doc[key] = value

    def say(self, text: str):
        self.lines.append(text)

    def emit(self, code: int) -> int:
        self.doc["exit_code"] = code
        try:
            if self.as_json:
                print(json.dumps(self.doc, indent=2, default=str))
            else:
                for line in self.lines:
                    print(line)
            sys.stdout.flush()
        except BrokenPipeError:
            return _closed_stdout()
        return code


def _closed_stdout() -> int:
    """The reader closed stdout: nothing more can be shown, and the
    interpreter's exit flush goes to the null device."""
    if sys.stdout is sys.__stdout__:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return INPUT_ERROR


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse ignores a failed write; main must see a closed stdout
        file = file or sys.stdout
        file.write(self.format_help())
        file.flush()


def _load_presentation(path: str) -> Presentation:
    with open(path, encoding="utf-8") as fh:
        return parse_presentation(fh.read())


def _load_context(path: str) -> Context:
    return Context(_load_presentation(path))


def _brick_line(rep: BrickReport) -> str:
    verdict = "brick" if rep.verdict else "not a brick"
    extra = f" [{rep.reason}]" if rep.reason else ""
    if rep.witness is not None:
        w = rep.witness
        extra += (f" witness {w.content!r}: factor at {w.factor.start}..{w.factor.end},"
                  f" image at {w.image.start}..{w.image.end} in {w.image_host}")
    return f"{rep.method}: {verdict} ({rep.scope}){extra}"


def _emit_reports(out: _Output, reports: list[BrickReport]) -> int:
    """Every report, and the verdict they agree on or their disagreement."""
    out.field("reports", [asdict(r) for r in reports])
    for r in reports:
        out.say(_brick_line(r))
    if len({r.verdict for r in reports}) > 1:
        out.field("disagreement", True)
        out.say("methods disagree")
        return out.emit(CAP_OR_DISAGREE)
    out.field("verdict", reports[0].verdict)
    return out.emit(OK if reports[0].verdict else CHECKED_FALSE)


def cmd_validate(args, out: _Output) -> int:
    p = _load_presentation(args.file)
    rep = validate_string_algebra(p)
    out.field("is_string_algebra", rep.is_string_algebra)
    out.field("is_gentle", rep.is_gentle)
    out.field("admissibility_bound", rep.admissibility_bound)
    out.field("violations", [{"condition": c, "locus": l} for c, l in rep.violations])
    out.say(f"string algebra: {rep.is_string_algebra}")
    out.say(f"gentle: {rep.is_gentle}")
    if rep.admissibility_bound is not None:
        out.say(f"admissibility bound: {rep.admissibility_bound}")
    for c, l in rep.violations:
        out.say(f"violated ({c}): {l}")
    return out.emit(OK if rep.is_string_algebra else CHECKED_FALSE)


def cmd_signs(args, out: _Output) -> int:
    p = _load_presentation(args.file)
    try:
        maps = solve_sign_maps(p)
    except SignError as err:
        out.field("ok", False)
        out.field("error", str(err))
        out.say(str(err))
        return out.emit(CHECKED_FALSE)
    out.field("ok", True)
    out.field("signs", {a: list(v) for a, v in sorted(maps.table.items())})
    for a, (s, e) in sorted(maps.table.items()):
        out.say(f"sign {a} {s:+d} {e:+d}")
    return out.emit(OK)


def cmd_build_mia(args, out: _Output) -> int:
    ctx = _load_context(args.file)
    m = build_mia(ctx)
    if args.parity:
        _, m = parity_mia(ctx)
    text = format_mia(m)
    out.field("states", len(m.states))
    out.field("initial", len(m.initial))
    out.field("transitions", len(m.trans))
    out.field("mia", text)
    out.say(text.rstrip("\n"))
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(m))
        out.field("dot", args.dot)
    return out.emit(OK)


def _listing(out: _Output, key: str, xs: list) -> int:
    """The literals of an enumeration under `key`, one per line, and their count."""
    lits = list(map(Context.format_literal, xs))
    out.field("count", len(lits))
    out.field(key, lits)
    for lit in lits:
        out.say(lit)
    out.say(f"total {len(lits)}")
    return out.emit(OK)


def cmd_strings(args, out: _Output) -> int:
    return _listing(out, "strings", _load_context(args.file).enumerate_strings(args.max_len))


def cmd_bands(args, out: _Output) -> int:
    bs = _load_context(args.file).enumerate_bands(args.max_len)
    return _listing(out, "bands", [b.string for b in bs])


METHODS = ("direct", "automaton", "endo")


def _reports(kind: str, method: str, *operands) -> list[BrickReport]:
    """The reports of the `kind` brick routes that `method` names (all for
    "all") on `operands`, each route looked up when called, so patches run."""
    return [globals()[f"{kind}_brick_{name}"](*operands)
            for name in (METHODS if method == "all" else (method,))]


def cmd_check_string_brick(args, out: _Output) -> int:
    ctx = _load_context(args.file)
    reports = _reports("string", args.method, ctx, ctx.parse_literal(args.string))
    out.field("string", args.string)
    return _emit_reports(out, reports)


def cmd_check_band_brick(args, out: _Output) -> int:
    ctx = _load_context(args.file)
    band, reasons = ctx.is_band(ctx.parse_literal(args.string))
    if band is None:
        raise StringError("not a band: " + "; ".join(reasons))
    reports = _reports("band", args.method, ctx, band, args.l, args.lam)
    out.field("band", args.string)
    out.field("l", args.l)
    out.field("lambda", args.lam)
    return _emit_reports(out, reports)


def cmd_enumerate_bricks(args, out: _Output) -> int:
    ctx = _load_context(args.file)
    string_bricks = []
    for x in ctx.enumerate_strings(args.max_len):
        if string_brick_direct(ctx, x).verdict:
            string_bricks.append(Context.format_literal(x))
    band_bricks = []
    for b in ctx.enumerate_bands(args.max_len):
        if band_brick_direct(ctx, b, 1).verdict:
            band_bricks.append(Context.format_literal(b.string))
    out.field("string_bricks", string_bricks)
    out.field("band_bricks", band_bricks)
    for s in string_bricks:
        out.say(f"string brick: {s}")
    for s in band_bricks:
        out.say(f"band brick (l=1): {s}")
    out.say(f"total {len(string_bricks)} string bricks, {len(band_bricks)} band bricks")
    return out.emit(OK)


def cmd_sturmian(args, out: _Output) -> int:
    d = DirectiveSequence.parse(args.directive)
    w = characteristic_prefix(d, args.prefix)
    text = "".join(l.sym for l in w.letters)
    out.field("directive", str(d))
    out.field("prefix_length", args.prefix)
    out.field("certified_aperiodic", w.certified_aperiodic)
    out.field("prefix", text if args.prefix <= 200 else text[:200] + "...")
    out.say(f"prefix: {text if args.prefix <= 200 else text[:200] + '...'}")
    failed = False
    res = refusal = None
    if args.bridge:
        try:
            res = bridge(w, args.side)
        except (CapExceeded, SturmianError) as err:
            refusal = err  # raised after the check's lines, which come first
    if args.check:
        # the bridge has checked the window already, unless it refused it
        violation = sturmian_window_check(w) if res is None else res.violation
        out.field("violation", None if violation is None else {
            "infix": "".join(l.sym for l in violation.infix),
            "a_position": violation.a_position,
            "b_position": violation.b_position,
        })
        if violation is None:
            out.say("sturmian window check: ok")
        else:
            infix = "".join(l.sym for l in violation.infix)
            out.say(f"sturmian window check: violation, infix {infix!r} at "
                    f"{violation.a_position}/{violation.b_position}")
            failed = True
    if refusal is not None:
        raise refusal
    if res is not None:
        out.field("bridge_report", asdict(res.report))
        out.field("bridge_consistent", res.consistent())
        out.say(_brick_line(res.report))
        out.say(f"bridge cross-check consistent: {res.consistent()}")
        if res.report.witness is not None:
            failed = True
    return out.emit(CHECKED_FALSE if failed else OK)


def cmd_recover(args, out: _Output) -> int:
    with open(args.miafile, encoding="utf-8") as fh:
        m = parse_mia(fh.read())
    rec = recover_presentation(m)
    text = format_presentation(rec.presentation)
    out.field("presentation", text)
    out.field("vertices", len(rec.presentation.vertices))
    out.field("arrows", len(rec.presentation.arrows))
    out.field("relations", [list(r) for r in rec.presentation.relations])
    out.say(text.rstrip("\n"))
    return out.emit(OK)


def cmd_roundtrip(args, out: _Output) -> int:
    ctx = _load_context(args.file)
    _, mdelta = parity_mia(ctx)
    rec = recover_presentation(mdelta)
    iso = presentations_isomorphic(ctx.presentation, rec.presentation)
    out.field("recovered", format_presentation(rec.presentation))
    out.field("isomorphic", iso is not None)
    if iso is None:
        out.say("recovered presentation is NOT isomorphic to the input")
        return out.emit(CHECKED_FALSE)
    vmap, amap = iso
    out.field("vertex_map", vmap)
    out.field("arrow_map", amap)
    out.say("isomorphic; witness:")
    for a, b in sorted(vmap.items()):
        out.say(f"  vertex {a} -> {b}")
    for a, b in sorted(amap.items()):
        out.say(f"  arrow {a} -> {b}")
    return out.emit(OK)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument tree, built on the first call and then shared by every
    ``main`` call in the process; ``parse_args`` still returns a fresh
    namespace each time.  Help and errors look up ``sys.stdout`` and
    ``sys.stderr`` and make their formatter when printed, so a redirected
    stream and the terminal width are read per call.  The tree holds the
    ``cmd_*`` functions themselves (``set_defaults(fn=...)``): patch the
    library names they call, which are looked up at call time, not a
    ``cmd_*`` function.
    """
    ap = _Parser(prog="stringbricks",
                 description="bricks over string algebras via inverse automata")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="structured output")
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=lambda **kw: _Parser(parents=[common], **kw))

    s = sub.add_parser("validate", help="validate a presentation file")
    s.add_argument("file")
    s.set_defaults(fn=cmd_validate)

    s = sub.add_parser("signs", help="solve or verify the sign maps")
    s.add_argument("file")
    s.set_defaults(fn=cmd_signs)

    s = sub.add_parser("build-mia", help="build the associated automaton")
    s.add_argument("file")
    s.add_argument("--parity", action="store_true", help="binary relabeling")
    s.add_argument("--dot", metavar="OUT", help="also write a DOT rendering")
    s.set_defaults(fn=cmd_build_mia)

    s = sub.add_parser("strings", help="enumerate strings up to a length")
    s.add_argument("file")
    s.add_argument("--max-len", type=int, required=True)
    s.set_defaults(fn=cmd_strings)

    s = sub.add_parser("bands", help="enumerate bands up to a length")
    s.add_argument("file")
    s.add_argument("--max-len", type=int, required=True)
    s.set_defaults(fn=cmd_bands)

    s = sub.add_parser("check-string-brick", help="decide brickness of a string module")
    s.add_argument("file")
    s.add_argument("string", help="string literal, e.g. \"b1 a1'\"")
    s.add_argument("--method", choices=[*METHODS, "all"], default="all")
    s.set_defaults(fn=cmd_check_string_brick)

    s = sub.add_parser("check-band-brick", help="decide brickness of a band module")
    s.add_argument("file")
    s.add_argument("string", help="band literal, e.g. \"a2' b2\"")
    s.add_argument("--l", type=int, required=True)
    s.add_argument("--lambda", dest="lam", type=int, default=1)
    s.add_argument("--method", choices=[*METHODS, "all"], default="all")
    s.set_defaults(fn=cmd_check_band_brick)

    s = sub.add_parser("enumerate-bricks", help="list brick strings and bands")
    s.add_argument("file")
    s.add_argument("--max-len", type=int, required=True)
    s.set_defaults(fn=cmd_enumerate_bricks)

    s = sub.add_parser("sturmian", help="characteristic prefixes, checks, bridge")
    s.add_argument("--directive", required=True, help="e.g. 1,(1) for the golden slope")
    s.add_argument("--prefix", type=int, required=True)
    s.add_argument("--check", action="store_true", help="run the window criterion")
    s.add_argument("--bridge", action="store_true", help="realize over the double Kronecker algebra")
    s.add_argument("--side", choices=[RIGHT_INFINITE, BI_INFINITE],
                   default=RIGHT_INFINITE)
    s.set_defaults(fn=cmd_sturmian)

    s = sub.add_parser("recover", help="rebuild a presentation from a binary MIA")
    s.add_argument("miafile")
    s.set_defaults(fn=cmd_recover)

    s = sub.add_parser("roundtrip", help="presentation -> MIA -> presentation, check isomorphism")
    s.add_argument("file")
    s.set_defaults(fn=cmd_roundtrip)
    return ap


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except BrokenPipeError:  # from --help, printed outside emit
        return _closed_stdout()
    out = _Output(args.command, args.json)
    try:
        return args.fn(args, out)
    except CapExceeded as err:
        out.field("error", str(err))
        out.say(f"cap exceeded: {err}")
        return out.emit(CAP_OR_DISAGREE)
    except (PresentationError, StringError, MiaError, SturmianError,
            SignError, OSError, ValueError) as err:
        out.field("error", str(err))
        out.say(f"error: {err}")
        return out.emit(INPUT_ERROR)
    except Exception as err:  # a fault of the program, not a verdict
        out.field("error", f"{type(err).__name__}: {err}")
        out.field("error_kind", "internal")
        out.say(f"internal error: {out.doc['error']}")
        return out.emit(INTERNAL_ERROR)


if __name__ == "__main__":
    sys.exit(main())
