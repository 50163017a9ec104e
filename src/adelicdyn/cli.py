"""Command-line front end.

Every subcommand writes one machine-readable document to stdout (a single
JSON document, CSV rows, or an aligned table) and keeps diagnostics on
stderr.  Exit codes are a stable contract: 0 success, 2 bad input, 3
mathematics outside the rational scope, 4 a tripped resource guard.  Every
failure, click's usage errors included, leaves through `main()` as one
`error:` line on stderr; an integer with more digits than the interpreter
converts is bad input.  All flags can also be set through ADELICDYN_*
environment variables.
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
)
from .moebius import MoebiusMap, cross_ratio, fixed_points, modular_family
from .padic import Place

EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_RESOURCE = 4


class Integer(click.ParamType):
    """An integer flag, read by `parse_integer` alone; its ParseError names
    the flag.  Other ranges are checked by the code that takes the value."""

    name = "integer"

    def __init__(self, signed: bool):
        self.signed = signed

    def convert(self, value, param, ctx):
        if isinstance(value, int):  # a default
            return value
        what = "an integer" if self.signed else "a nonnegative integer"
        what += f" for {param.get_error_hint(ctx)}"
        return parse_integer(value, what, self.signed)


INTEGER = Integer(signed=True)
#: Counts and limits; a negative value is bad input (exit 2).
COUNT = Integer(signed=False)


@dataclass
class RunConfig:
    """Knobs shared by all subcommands, as set by the global options."""

    fmt: str
    factor_bound: int
    max_steps: int
    bit_guard: int
    audit_primes: int | None


def emit_json(doc: dict) -> None:
    click.echo(json.dumps(doc, indent=2, sort_keys=True))


def emit_csv(header: list[str], rows: list[list[str]]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    click.echo(buf.getvalue(), nl=False)


def emit_table(header: list[str], rows: list[list[str]]) -> None:
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    click.echo("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    for row in rows:
        click.echo("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def emit(cfg: RunConfig, doc: dict, header: list[str], rows: list[list[str]]) -> None:
    if cfg.fmt == "json":
        emit_json(doc)
    elif cfg.fmt == "csv":
        emit_csv(header, rows)
    else:
        emit_table(header, rows)


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
    help="End an orbit whose numerator or denominator passes this many bits "
    "(nonnegative).",
)
@click.option(
    "--audit-primes",
    type=COUNT,
    default=None,
    help="Re-verify cofinite indifference for all primes up to N "
    f"(nonnegative, at most {MAX_PRIME_SCAN}).",
)
@click.pass_context
def cli(ctx, fmt, factor_bound, max_steps, bit_guard, audit_primes):
    """Exact Moebius dynamics over the real and all p-adic places."""
    ctx.obj = RunConfig(
        fmt=fmt,
        factor_bound=factor_bound,
        max_steps=max_steps,
        bit_guard=bit_guard,
        audit_primes=audit_primes,
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


def _classification_rows(doc: dict) -> list[list[str]]:
    rows = []
    for report in doc["reports"]:
        for entry in report["places"]:
            rows.append(
                [report["xi"], entry["place"], entry["kind"], entry["multiplier_norm"]]
            )
    return rows


_CLASSIFY_HEADER = ["xi", "place", "kind", "multiplier_norm"]


@cli.command()
@click.option("--map", required=True, help="Coefficients 'a,b,c,d'.")
@click.pass_obj
def classify(cfg: RunConfig, map: str):
    """Fixed points and their stability at every place."""
    m = MoebiusMap.from_string(map)
    doc = _classification_doc(cfg, m)
    emit(cfg, doc, _CLASSIFY_HEADER, _classification_rows(doc))


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
@click.option("--map", required=True, help="Coefficients 'a,b,c,d'.")
@click.option("--x0", required=True, help="Starting point.")
@click.option("--place", required=True, help="'real' or a prime.")
@click.option(
    "--steps", type=COUNT, default=None, help="Nonnegative; defaults to --max-steps."
)
@click.option("--xi", default=None, help="Reference fixed point.")
@click.pass_obj
def iterate(cfg: RunConfig, map, x0, place, steps, xi):
    """Exact orbit with per-step distance to a fixed point."""
    m = MoebiusMap.from_string(map)
    v = Place.from_string(place)
    start = parse_rational(x0)
    xi = parse_rational(xi) if xi is not None else _default_xi(m, v)
    record = iterate_at_place(
        m,
        start,
        xi,
        v,
        max_steps=steps if steps is not None else cfg.max_steps,
        bit_guard=cfg.bit_guard,
    )
    verdict = detect_behavior(record, m)
    doc = {
        "map": m.to_dict(),
        "place": str(v),
        "x0": str(start),
        "xi": str(xi),
        "terminated_by": record.terminated_by.value,
        "steps": [{"n": s.n, "x": str(s.x), "dist": str(s.dist)} for s in record.steps],
        "verdict": verdict.to_dict(),
    }
    rows = [[str(s.n), str(s.x), str(s.dist)] for s in record.steps]
    emit(cfg, doc, ["n", "x", "dist"], rows)


@cli.command("adele-step")
@click.option("--map", required=True, help="Coefficients 'a,b,c,d'.")
@click.option("--principal", default=None, help="Step the principal adele of r.")
@click.option("--real", default=None, help="Real component.")
@click.option(
    "--at",
    "at",
    multiple=True,
    help="Listed component 'p=x'; may repeat.",
)
@click.option("--elsewhere", default=None, help="Shared value at unlisted primes.")
@click.pass_obj
def adele_step(cfg: RunConfig, map, principal, real, at, elsewhere):
    """Apply the map componentwise to an adele."""
    m = MoebiusMap.from_string(map)
    if principal is not None:
        if real is not None or at or elsewhere is not None:
            raise InputError("--principal excludes --real/--at/--elsewhere")
        point = principal_adele(parse_rational(principal), cfg.factor_bound)
    else:
        if real is None or elsewhere is None:
            raise InputError("need --real and --elsewhere (or --principal)")
        finite = {}
        for item in at:
            prime_text, _, value_text = item.partition("=")
            if not value_text:
                raise ParseError(f"--at needs 'p=x', got {item!r}")
            p = parse_integer(prime_text, "a prime in --at", signed=False)
            if p in finite:
                raise InputError(f"--at lists the prime {p} twice")
            finite[p] = parse_rational(value_text)
        point = AdelePoint(
            real=parse_rational(real),
            finite=finite,
            elsewhere=parse_rational(elsewhere),
        )
    result = step_adele(m, point, cfg.factor_bound)
    doc = {"map": m.to_dict(), "input": point.to_dict(), "output": result.to_dict()}
    rows = [
        ["real", str(point.real), str(result.real)],
        *[
            [str(p), str(point.component(Place(p))), str(result.finite[p])]
            for p in result.listed_primes()
        ],
        ["elsewhere", str(point.elsewhere), str(result.elsewhere)],
    ]
    emit(cfg, doc, ["place", "input", "output"], rows)


@cli.command()
@click.option("--map", required=True, help="Coefficients 'a,b,c,d'.")
@click.option("--xi", required=True, help="Fixed point to refer to.")
@click.option("--place", required=True, help="'real' or a prime.")
@click.option(
    "--height", type=COUNT, required=True, help="Max |num| and den of x0 (nonnegative)."
)
@click.pass_obj
def basin(cfg: RunConfig, map, xi, place, height):
    """Verdict for every canonical fraction up to a height bound."""
    m = MoebiusMap.from_string(map)
    v = Place.from_string(place)
    xi = parse_rational(xi)
    points = basin_sample(
        m,
        xi,
        v,
        height,
        max_steps=cfg.max_steps,
        bit_guard=cfg.bit_guard,
    )
    doc = {
        "map": m.to_dict(),
        "place": str(v),
        "xi": str(xi),
        "height": height,
        "points": [p.to_dict() for p in points],
    }
    rows = [
        [str(p.x0), p.verdict.kind.value, str(p.steps_used)] for p in points
    ]
    emit(cfg, doc, ["x0", "verdict", "steps_used"], rows)


@cli.command("product-formula")
@click.option("-r", "--rational", required=True, help="Nonzero rational.")
@click.pass_obj
def product_formula(cfg: RunConfig, rational: str):
    """Factor |r|_v over all places; the product is always 1."""
    report = verify_product_formula(parse_rational(rational), cfg.factor_bound)
    doc = report.to_dict()
    rows = [[str(v), str(norm)] for v, norm in report.factors]
    rows.append(["product", str(report.product)])
    emit(cfg, doc, ["place", "norm"], rows)


@cli.command()
@click.option("--family", type=INTEGER, required=True, help="Family number, 1..5.")
@click.option("--sign", type=click.Choice(["+", "-"]), default="+", show_default=True)
@click.option(
    "--c", "--param", "param", type=INTEGER, required=True, help="Free integer."
)
@click.pass_obj
def modular(cfg: RunConfig, family: int, sign: str, param: int):
    """Construct one of the five integer det-1 families and classify it."""
    m = modular_family(family, 1 if sign == "+" else -1, param)
    doc = {"family": family, "sign": sign, "param": param}
    doc.update(_classification_doc(cfg, m))
    emit(cfg, doc, _CLASSIFY_HEADER, _classification_rows(doc))


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
@click.option("--a", default=None, help="Rational (cases A, E, F).")
@click.option("--c", default=None, help="Rational (cases A, C, D, E, F).")
@click.option("--t", default=None, help="Rational (case B).")
@click.option("--sign", type=click.Choice(["+", "-"]), default=None, help="C and D.")
@click.pass_obj
def case(cfg: RunConfig, tag, a, c, t, sign):
    """Construct a map satisfying one family's constraints and classify it."""
    builder, needed = _CASE_BUILDERS[tag]
    given = {
        "a": a,
        "c": c,
        "t": t,
        "sign": sign,
    }
    args = []
    for name in needed:
        if given[name] is None:
            raise InputError(f"case {tag} needs --{name}")
        if name == "sign":
            args.append(1 if given[name] == "+" else -1)
        else:
            args.append(parse_rational(given[name]))
    for name, value in given.items():
        if value is not None and name not in needed:
            raise InputError(f"case {tag} does not take --{name}")
    m = builder(*args)
    doc = {"tag": tag}
    doc.update(_classification_doc(cfg, m))
    emit(cfg, doc, _CLASSIFY_HEADER, _classification_rows(doc))


@cli.command("cross-ratio")
@click.option("--map", required=True, help="Coefficients 'a,b,c,d'.")
@click.option("--points", required=True, help="Four rationals 'x1,x2,x3,x4'.")
@click.pass_obj
def cross_ratio_cmd(cfg: RunConfig, map: str, points: str):
    """Cross-ratio before and after the map; the values must agree."""
    m = MoebiusMap.from_string(map)
    parts = points.split(",")
    if len(parts) != 4:
        raise ParseError(f"expected four comma-separated points, got {points!r}")
    xs = [parse_rational(part) for part in parts]
    if len(set(xs)) != 4:
        raise DegeneratePoints("the four points must be pairwise distinct")
    images = [m.apply(x) for x in xs]
    before = cross_ratio(*xs)
    after = cross_ratio(*images)
    doc = {
        "map": m.to_dict(),
        "points": [str(x) for x in xs],
        "images": [str(y) for y in images],
        "before": str(before),
        "after": str(after),
        "equal": before == after,
    }
    rows = [
        ["before", str(before)],
        ["after", str(after)],
        ["equal", str(before == after).lower()],
    ]
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
