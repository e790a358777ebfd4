"""Command-line frontend.

Exit codes: 0 for a certificate or plain report, 2 for an obstruction or
degenerate certificate, 1 for any error.  Reports are byte-stable for
identical inputs: keys sorted, floats at 12 significant digits, rationals
as exact strings.

Every command parses its input and renders a report, so session, report and
the modules that session loads (exact, linalg, places, words) are imported
with the CLI.  blocks, flats and manifold are imported by the commands
that run them, so that a cold call compiles no module it does not use.
"""

from __future__ import annotations

import math
import sys

import click

from . import errors
from .places import classify as classify_element
from .places import direction_profile
from .report import (
    classification_dict,
    direction_dict,
    flat_dict,
    npc_dict,
    places_dict,
    profile_dict,
    render_json,
    render_text,
)
from .session import fraction_str, parse_graph, parse_session
from .words import parse_word, word_eval

class Options:
    def __init__(self, input_path, tolerance, pd_epsilon, as_json):
        self.input_path = input_path
        self.tolerance = tolerance
        self.pd_epsilon = pd_epsilon
        self.as_json = as_json

    def session(self):
        if not self.input_path:
            raise click.UsageError("this command needs a session file: --input FILE")
        return parse_session(_read(self.input_path))

    def emit(self, report: dict, code: int = 0):
        text = render_json(report) if self.as_json else render_text(report)
        # an explicit stream: click's default one is cached per sys.stdout
        # object and never freed, so a caller that swaps sys.stdout for each
        # in-process call would keep every report alive
        click.echo(text, file=sys.stdout)
        sys.exit(code)

    def fail(self, exc: errors.FlatcertError):
        report = {
            "error": {
                "type": type(exc).__name__,
                "module": exc.module,
                "message": str(exc),
            }
        }
        text = render_json(report) if self.as_json else render_text(report)
        click.echo(text, file=sys.stderr)
        sys.exit(1)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        # read() decodes the whole file in one call, so e.start is a file offset
        raise errors.ParseError(e.start, "UTF-8 text", e.object[e.start : e.end]) from None


def _positive(ctx, param, value: float) -> float:
    if not 0 < value < math.inf:
        raise click.BadParameter(f"{value!r} is not a finite float > 0.")
    return value


class _Main(click.Group):
    """Usage errors exit 1: exit code 2 is reserved for obstruction and
    degenerate certificates.  Set per error, so click stays untouched.
    A FlatcertError from any command is reported once, by Options.fail."""

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as e:
            e.exit_code = 1
            raise

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as e:
            e.exit_code = 1
            raise
        except errors.FlatcertError as e:
            ctx.obj.fail(e)


@click.group(cls=_Main)
@click.option("--input", "-i", "input_path", type=click.Path(exists=True, dir_okay=False),
              help="Session JSON file with named det-1 generators.")
@click.option("--tolerance", type=float, default=1e-12, show_default=True, callback=_positive,
              help="Root-isolation tolerance for archimedean drift.")
@click.option("--pd-epsilon", type=float, default=1e-8, show_default=True, callback=_positive,
              help="Lattice iff the least Gram eigenvalue exceeds this times the trace.")
@click.option("--json/--text", "as_json", default=True,
              help="Report format (default JSON).")
@click.pass_context
def main(ctx, input_path, tolerance, pd_epsilon, as_json):
    """Exact certificates for matrix groups: element classification, drift,
    thick-flat lattices, and graph-manifold NPC checks."""
    ctx.obj = Options(input_path, tolerance, pd_epsilon, as_json)


@main.command()
@click.pass_obj
def places(opts: Options):
    """Discovered places of the session's generator family."""
    spec = opts.session()
    opts.emit(places_dict(spec.places))


@main.command()
@click.argument("word")
@click.option("--direction", is_flag=True, help="Include the per-place direction profile.")
@click.pass_obj
def classify(opts: Options, word, direction):
    """Classify the element given by WORD in the session generators."""
    spec = opts.session()
    expr = parse_word(word)
    m = word_eval(expr, spec.embedded)
    cls = classify_element(m, spec.places, label=word, tol=opts.tolerance)
    report = {"word": word, **classification_dict(cls), **profile_dict(cls.profile)}
    if direction:
        report["direction"] = direction_dict(direction_profile(cls))
    opts.emit(report)


@main.command()
@click.argument("names", nargs=-1, required=True)
@click.pass_obj
def decompose(opts: Options, names):
    """Simultaneous block decomposition of the named commuting generators."""
    from .blocks import block_decompose

    d = block_decompose(_named(opts.session(), names))
    report = {
        "conjugator": _matrix_dict(d.conjugator),
        "blocks": [
            {
                "size": size,
                "charpolys": {
                    name: [fraction_str(c) for c in cp.coeffs]
                    for name, cp in zip(names, d.block_charpolys[k])
                },
                "matrices": {
                    name: _matrix_dict(mat) for name, mat in zip(names, mats)
                },
            }
            for k, (size, mats) in enumerate(d.blocks)
        ],
    }
    opts.emit(report)


@main.command()
@click.argument("names", nargs=-1, required=True)
@click.pass_obj
def flat(opts: Options, names):
    """Thick-flat lattice certificate for the named commuting generators."""
    from .flats import CommutingFamily, flat_certificate

    spec = opts.session()
    family = CommutingFamily.build(_named(spec, names), places=spec.places)
    cert = flat_certificate(family, opts.pd_epsilon, tol=opts.tolerance)
    opts.emit(flat_dict(cert), code=0 if cert.tag == "Lattice" else 2)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.pass_obj
def graph(opts: Options, file):
    """NPC certificate or unipotent obstruction for a graph-manifold
    representation file."""
    from .manifold import InvalidGraphRep, graph_certificate

    rep = parse_graph(_read(file))
    try:
        result, reports = graph_certificate(rep, opts.pd_epsilon, tol=opts.tolerance)
    except InvalidGraphRep as e:
        opts.emit(
            {
                "tag": "Invalid",
                "violations": [
                    {"torus": v.torus, "kind": v.kind, "detail": v.detail}
                    for v in e.violations
                ],
            },
            code=1,
        )
    opts.emit(
        npc_dict(result, reports),
        code=0 if result.tag == "NPC" else 2,
    )


def _named(spec, names) -> list:
    unknown = [n for n in names if n not in spec.embedded]
    if unknown:
        raise errors.UnknownGenerator(unknown[0])
    return [(n, spec.embedded[n]) for n in names]


def _matrix_dict(m) -> list[list[str]]:
    return [[fraction_str(x) for x in row] for row in m.rows]


if __name__ == "__main__":
    main()
