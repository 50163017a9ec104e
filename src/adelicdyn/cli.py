"""Command-line front end.

Every subcommand writes one machine-readable document to stdout (a single
JSON document, CSV rows, or an aligned table) and keeps diagnostics on
stderr; csv and table rows are read from the JSON document.  Exit codes
are a stable contract: 0 success, 2 bad input, 3 mathematics outside the
rational scope, 4 a tripped resource guard.  Every failure, click's usage
errors included, leaves through `main()` as one `error:` line on stderr.
A flag's value is read by a library parser (the `Value` type), so its error
names the flag and quotes malformed text only up to `exact.QUOTE_CHARS`
characters.  All flags can also be set through ADELICDYN_* environment
variables.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

import click

from .classification import (
    CaseTag,
    Stability,
    adelic_report,
    audit_cofinite_indifference,
    classify_at_place,
    case_a_map,
    case_b_map,
    case_c_map,
    case_d_map,
    case_e_map,
    case_f_map,
    recognize_case,
)
from .dynamics import (
    DEFAULT_BIT_GUARD,
    DEFAULT_MAX_STEPS,
    AdelePoint,
    Termination,
    basin_sample,
    detect_behavior,
    iterate_at_place,
    principal_adele,
    step_adele,
    verify_product_formula,
)
from .errors import (
    AdelicDynError,
    DegeneratePoints,
    InputError,
    MathDomainError,
    ParseError,
    ResourceLimitError,
)
from .exact import (
    DEFAULT_FACTOR_BOUND,
    MAX_PRIME_SCAN,
    is_perfect_square,
    parse_integer,
    parse_rational,
    parse_rationals,
    quote,
)
from .moebius import MoebiusMap, cross_ratio, fixed_points, modular_family
from .padic import Place

EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_RESOURCE = 4


class Value(click.ParamType):
    """A flag read by one library parser; its InputError names the flag."""

    def __init__(self, name: str, parse):
        self.name = name
        self.parse = parse

    def convert(self, value, param, ctx):
        if not isinstance(value, str):  # a default
            return value
        try:
            return self.parse(value)
        except InputError as exc:
            raise InputError(f"{param.get_error_hint(ctx)}: {exc}") from exc


def _prime_and_value(text: str) -> tuple[int, Fraction]:
    """One 'p=x' component of an adele; p must be a prime."""
    prime_text, _, value_text = text.partition("=")
    if not value_text:
        raise ParseError(f"expected 'p=x', got {quote(text)}")
    p = Place(parse_integer(prime_text, "a prime", False)).p
    return p, parse_rational(value_text)


INTEGER = Value("integer", lambda s: parse_integer(s, "an integer"))
#: Counts and limits; a negative value is bad input (exit 2).
COUNT = Value("integer", lambda s: parse_integer(s, "a nonnegative integer", False))
# parse_rational is looked up per call, as the module-level name that
# perfbench's tracer rebinds
RATIONAL = Value("rational", lambda s: parse_rational(s))
MAP = Value("a,b,c,d", MoebiusMap.from_string)
PLACE = Value("place", Place.from_string)
POINTS = Value("x1,x2,x3,x4", lambda s: parse_rationals(s, 4))
COMPONENT = Value("p=x", _prime_and_value)
SIGN = click.Choice(["+", "-"])


@dataclass
class RunConfig:
    """Knobs shared by all subcommands, as set by the global options."""

    fmt: str
    factor_bound: int
    max_steps: int
    bit_guard: int
    audit_primes: int | None


def emit(cfg: RunConfig, doc: dict, header: list[str], rows: list[list[str]]) -> None:
    """Write `doc` as JSON, or the csv/table rows read from it."""
    if cfg.fmt == "json":
        click.echo(json.dumps(doc, indent=2, sort_keys=True))
        return
    table = [header, *rows]
    if cfg.fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(table)
        click.echo(buf.getvalue(), nl=False)
        return
    widths = [max(len(cell) for cell in column) for column in zip(*table)]
    for row in table:
        click.echo("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


@click.group(no_args_is_help=False)  # no arguments: one "Missing command." line
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["json", "csv", "table"]),
    default="table",
    show_default=True,
    envvar="ADELICDYN_FORMAT",
    help="Output format on stdout.",
)
@click.option(
    "--factor-bound", type=INTEGER, default=DEFAULT_FACTOR_BOUND, show_default=True
)
@click.option(
    "--max-steps",
    type=COUNT,
    default=DEFAULT_MAX_STEPS,
    show_default=True,
    help="Step budget of each orbit (nonnegative).",
)
@click.option(
    "--bit-guard",
    type=COUNT,
    default=DEFAULT_BIT_GUARD,
    show_default=True,
    help="End an orbit before a point or distance whose numerator or denominator "
    f"passes this many bits (nonnegative, at most {DEFAULT_BIT_GUARD}, the largest "
    "size that prints).",
)
@click.option(
    "--audit-primes",
    type=COUNT,
    default=None,
    help="Re-verify cofinite indifference for all primes up to N "
    f"(nonnegative, at most {MAX_PRIME_SCAN}).",
)
@click.pass_context
def cli(ctx, **params):
    """Exact Moebius dynamics over the real and all p-adic places."""
    ctx.obj = RunConfig(**params)
    if ctx.obj.bit_guard > DEFAULT_BIT_GUARD:
        raise ResourceLimitError(
            f"--bit-guard {ctx.obj.bit_guard} is above the cap {DEFAULT_BIT_GUARD} bits"
        )


def _case_tags(m: MoebiusMap) -> list[str]:
    """Family tags; computed on the det-1 rescaling when det is a square."""
    if is_perfect_square(m.det) is None:
        return []
    return sorted(tag.value for tag in recognize_case(m.rescale_to_unit_det()))


def _classification_doc(cfg: RunConfig, m: MoebiusMap) -> dict:
    reports = adelic_report(m, cfg.factor_bound)
    doc = {
        "map": m.to_dict(),
        "det": str(m.det),
        "cases": _case_tags(m),
        "fixed_points": fixed_points(m).to_dict(),
        "reports": [r.to_dict() for r in reports],
    }
    if cfg.audit_primes is not None:
        doc["audit"] = [
            a.to_dict()
            for a in audit_cofinite_indifference(m, cfg.audit_primes, cfg.factor_bound)
        ]
    return doc


def _emit_classification(cfg: RunConfig, doc: dict) -> None:
    rows = [
        [report["xi"], entry["place"], entry["kind"], entry["multiplier_norm"]]
        for report in doc["reports"]
        for entry in report["places"]
    ]
    emit(cfg, doc, ["xi", "place", "kind", "multiplier_norm"], rows)


@cli.command()
@click.option("--map", type=MAP, required=True, help="Coefficients 'a,b,c,d'.")
@click.pass_obj
def classify(cfg: RunConfig, map: MoebiusMap):
    """Fixed points and their stability at every place."""
    _emit_classification(cfg, _classification_doc(cfg, map))


def _default_xi(m: MoebiusMap, v: Place) -> Fraction:
    """The attractive fixed point at v if there is one, else the larger."""
    points = fixed_points(m).points
    if len(points) == 1:
        return points[0]
    for xi in points:
        if classify_at_place(m, xi, v).kind is Stability.ATTRACTIVE:
            return xi
    return max(points)


@cli.command()
@click.option("--map", type=MAP, required=True, help="Coefficients 'a,b,c,d'.")
@click.option("--x0", type=RATIONAL, required=True, help="Starting point.")
@click.option("--place", type=PLACE, required=True, help="'real' or a prime.")
@click.option(
    "--steps", type=COUNT, default=None, help="Nonnegative; defaults to --max-steps."
)
@click.option("--xi", type=RATIONAL, default=None, help="Reference fixed point.")
@click.pass_obj
def iterate(cfg: RunConfig, map, x0, place, steps, xi):
    """Exact orbit with per-step distance to a fixed point."""
    if xi is None:
        xi = _default_xi(map, place)
    steps = steps if steps is not None else cfg.max_steps
    record = iterate_at_place(map, x0, xi, place, steps, bit_guard=cfg.bit_guard)
    doc = {
        "map": map.to_dict(),
        "place": str(place),
        "x0": str(x0),
        "xi": str(xi),
        "terminated_by": record.terminated_by.value,
        "steps": [{"n": s.n, "x": str(s.x), "dist": str(s.dist)} for s in record.steps],
        "verdict": detect_behavior(record, map).to_dict(),
    }
    rows = [[str(s["n"]), s["x"], s["dist"]] for s in doc["steps"]]
    emit(cfg, doc, ["n", "x", "dist"], rows)
    stop = record.terminated_by
    if cfg.fmt != "json" and stop in (Termination.OVERFLOW_GUARD, Termination.POLE_HIT):
        n = len(record.steps)
        click.echo(f"note: {stop.value} ended the orbit before step {n}", err=True)


@cli.command("adele-step")
@click.option("--map", type=MAP, required=True, help="Coefficients 'a,b,c,d'.")
@click.option(
    "--principal", type=RATIONAL, default=None, help="Step the principal adele of r."
)
@click.option("--real", type=RATIONAL, default=None, help="Real component.")
@click.option(
    "--at",
    "at",
    type=COMPONENT,
    multiple=True,
    help="Listed component 'p=x'; may repeat.",
)
@click.option(
    "--elsewhere", type=RATIONAL, default=None, help="Shared value at unlisted primes."
)
@click.pass_obj
def adele_step(cfg: RunConfig, map, principal, real, at, elsewhere):
    """Apply the map componentwise to an adele."""
    if principal is not None:
        if real is not None or at or elsewhere is not None:
            raise InputError("--principal excludes --real/--at/--elsewhere")
        point = principal_adele(principal, cfg.factor_bound)
    else:
        if real is None or elsewhere is None:
            raise InputError("need --real and --elsewhere (or --principal)")
        finite = {}
        for p, x in at:
            if p in finite:
                raise InputError(f"--at lists the prime {p} twice")
            finite[p] = x
        point = AdelePoint(real=real, finite=finite, elsewhere=elsewhere)
    result = step_adele(map, point, cfg.factor_bound)
    doc = {"map": map.to_dict(), "input": point.to_dict(), "output": result.to_dict()}
    given, got = doc["input"], doc["output"]
    listed = {c["p"]: c["x"] for c in given["components"]}
    rows = [
        ["real", given["real"], got["real"]],
        *(
            [str(c["p"]), listed.get(c["p"], given["elsewhere"]), c["x"]]
            for c in got["components"]
        ),
        ["elsewhere", given["elsewhere"], got["elsewhere"]],
    ]
    emit(cfg, doc, ["place", "input", "output"], rows)


@cli.command()
@click.option("--map", type=MAP, required=True, help="Coefficients 'a,b,c,d'.")
@click.option("--xi", type=RATIONAL, required=True, help="Fixed point to refer to.")
@click.option("--place", type=PLACE, required=True, help="'real' or a prime.")
@click.option(
    "--height", type=COUNT, required=True, help="Max |num| and den of x0 (nonnegative)."
)
@click.pass_obj
def basin(cfg: RunConfig, map, xi, place, height):
    """Verdict for every canonical fraction up to a height bound."""
    sample = basin_sample(
        map, xi, place, height, max_steps=cfg.max_steps, bit_guard=cfg.bit_guard
    )
    points = [p.to_dict() for p in sample]
    doc = {
        "map": map.to_dict(),
        "place": str(place),
        "xi": str(xi),
        "height": height,
        "points": points,
    }
    rows = [[p["x0"], p["verdict"]["kind"], str(p["steps_used"])] for p in points]
    emit(cfg, doc, ["x0", "verdict", "steps_used"], rows)


@cli.command("product-formula")
@click.option("-r", "--rational", type=RATIONAL, required=True, help="Nonzero.")
@click.pass_obj
def product_formula(cfg: RunConfig, rational: Fraction):
    """Factor |r|_v over all places; the product is always 1."""
    doc = verify_product_formula(rational, cfg.factor_bound).to_dict()
    rows = [[f["place"], f["norm"]] for f in doc["factors"]]
    rows.append(["product", doc["product"]])
    emit(cfg, doc, ["place", "norm"], rows)


@cli.command()
@click.option("--family", type=INTEGER, required=True, help="Family number, 1..5.")
@click.option("--sign", type=SIGN, default="+", show_default=True)
@click.option(
    "--c", "--param", "param", type=INTEGER, required=True, help="Free integer."
)
@click.pass_obj
def modular(cfg: RunConfig, family: int, sign: str, param: int):
    """Construct one of the five integer det-1 families and classify it."""
    m = modular_family(family, 1 if sign == "+" else -1, param)
    doc = {"family": family, "sign": sign, "param": param}
    doc.update(_classification_doc(cfg, m))
    _emit_classification(cfg, doc)


_CASE_BUILDERS = {
    "A": (case_a_map, ("a", "c")),
    "B": (case_b_map, ("t",)),
    "C": (case_c_map, ("sign", "c")),
    "D": (case_d_map, ("sign", "c")),
    "E": (case_e_map, ("a", "c")),
    "F": (case_f_map, ("a", "c")),
}


@cli.command()
@click.option("--tag", type=click.Choice([t.value for t in CaseTag]), required=True)
@click.option("--a", type=RATIONAL, default=None, help="Cases A, E, F.")
@click.option("--c", type=RATIONAL, default=None, help="Cases A, C, D, E, F.")
@click.option("--t", type=RATIONAL, default=None, help="Case B.")
@click.option("--sign", type=SIGN, default=None, help="C and D.")
@click.pass_obj
def case(cfg: RunConfig, tag, a, c, t, sign):
    """Construct a map satisfying one family's constraints and classify it."""
    builder, needed = _CASE_BUILDERS[tag]
    given = {"a": a, "c": c, "t": t, "sign": sign}
    for name, value in given.items():
        if (value is None) == (name in needed):
            verb = "needs" if value is None else "does not take"
            raise InputError(f"case {tag} {verb} --{name}")
    if sign is not None:
        given["sign"] = 1 if sign == "+" else -1
    doc = {"tag": tag}
    doc.update(_classification_doc(cfg, builder(*(given[name] for name in needed))))
    _emit_classification(cfg, doc)


@cli.command("cross-ratio")
@click.option("--map", type=MAP, required=True, help="Coefficients 'a,b,c,d'.")
@click.option("--points", type=POINTS, required=True, help="Four distinct rationals.")
@click.pass_obj
def cross_ratio_cmd(cfg: RunConfig, map: MoebiusMap, points: list[Fraction]):
    """Cross-ratio before and after the map; the values must agree."""
    if len(set(points)) != 4:
        raise DegeneratePoints("the four points must be pairwise distinct")
    images = [map.apply(x) for x in points]
    before = cross_ratio(*points)
    after = cross_ratio(*images)
    doc = {
        "map": map.to_dict(),
        "points": [str(x) for x in points],
        "images": [str(y) for y in images],
        "before": str(before),
        "after": str(after),
        "equal": before == after,
    }
    rows = [[side, doc[side]] for side in ("before", "after")]
    rows.append(["equal", json.dumps(doc["equal"])])
    emit(cfg, doc, ["side", "value"], rows)


def main():
    """Run the CLI; the only place a failure leaves the program.

    Returns only on success (`--help` included).  A library error exits 4,
    3 or 2 and a click usage error exits 2, each with one `error:` line on
    stderr; Ctrl-C prints click's "Aborted!" and exits 1.
    """
    try:
        cli.main(standalone_mode=False, auto_envvar_prefix="ADELICDYN")
    except click.Abort:
        click.echo("Aborted!", err=True)
        sys.exit(1)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(EXIT_INPUT)
    except AdelicDynError as exc:
        click.echo(f"error: {exc}", err=True)
        if isinstance(exc, ResourceLimitError):
            sys.exit(EXIT_RESOURCE)
        sys.exit(EXIT_DOMAIN if isinstance(exc, MathDomainError) else EXIT_INPUT)


if __name__ == "__main__":
    main()
