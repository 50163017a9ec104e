"""Command-line front end.

Every subcommand writes one machine-readable document to stdout (a single
JSON document, CSV rows, or an aligned table) and keeps diagnostics on
stderr; csv and table rows are read from the JSON document.  Exit codes
are a stable contract: 0 success, 2 bad input, 3 mathematics outside the
rational scope, 4 a tripped resource guard.  Every failure, the argument
parser's included, leaves through `main()` as one `error:` line on stderr.
Every flag is one row of the table `COMMANDS`; its value is read by a
library parser, so its error names the flag and quotes malformed text only
up to `exact.QUOTE_CHARS` characters.  All flags can also be set through
ADELICDYN_* environment variables.  The command line is read with the
standard library's argparse: the package has no runtime dependency.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import sys
from argparse import ArgumentParser, Namespace
from fractions import Fraction
from functools import partial

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


def _prime_and_value(text: str) -> tuple[int, Fraction]:
    """One 'p=x' component of an adele; p must be a prime."""
    prime_text, _, value_text = text.partition("=")
    if not value_text:
        raise ParseError(f"expected 'p=x', got {quote(text)}")
    p = Place(parse_integer(prime_text, "a prime", False)).p
    return p, parse_rational(value_text)


INTEGER = partial(parse_integer, what="an integer")
#: Counts and limits; a negative value is bad input (exit 2).
COUNT = partial(parse_integer, what="a nonnegative integer", signed=False)
# parse_rational is looked up per call, as the module-level name that
# perfbench's tracer rebinds
RATIONAL = lambda s: parse_rational(s)
MAP = MoebiusMap.from_string
PLACE = Place.from_string
POINTS = partial(parse_rationals, count=4)
COMPONENT = _prime_and_value
SIGN = ("+", "-")
#: The default of a flag that must be given.
REQUIRED = object()


def _read(names: list[str], kind, text: str):
    """A flag's value: `kind` is a library parser or a tuple of choices.
    The InputError names the flag."""
    try:
        if not isinstance(kind, tuple):
            return kind(text)
        if text not in kind:
            raise ParseError(f"{quote(text)} is not one of {', '.join(map(repr, kind))}")
        return text
    except InputError as exc:
        raise InputError(f"{' / '.join(map(repr, names))}: {exc}") from exc


class Parser(ArgumentParser):
    """The parser of one entry of `COMMANDS`; the global entry "" adds one
    sub-parser per subcommand.  An error raises InputError (exit 2)."""

    def __init__(self, command: str = "", **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        # a private attribute: stock argparse reads '-3' as a value but
        # '-10/21' or '-1/2,0,1,-2' as an unknown flag; here a '-' before a
        # digit always starts a value
        self._negative_number_matcher = re.compile(r"-\d")
        self.flags = []  # (dest, environment value, reader, default)
        for spec, kind, default, text in COMMANDS[command][1:]:
            names = spec.split("/")
            dest = names[-1].lstrip("-").replace("-", "_")
            env = "_".join(filter(None, ("ADELICDYN", command, dest)))
            env = os.environ.get(env.upper().replace("-", "_"))
            read = partial(_read, names, kind)
            self.flags.append((dest, env, read, default))
            if default not in (None, REQUIRED, ()):
                text += f" [default: {default}]"
            self.add_argument(
                *names, dest=dest, type=read, help=text,
                choices=kind if isinstance(kind, tuple) else None,
                action="append" if default == () else "store",
                required=default is REQUIRED and not env)
        if not command:
            sub = self.add_subparsers(dest="command", required=True, metavar="COMMAND")
            for name, (func, *_) in list(COMMANDS.items())[1:]:
                sub.add_parser(name, command=name, help=func.__doc__, description=func.__doc__)
            self.commands = sub.choices

    def values(self, args: Namespace) -> dict:
        """Each flag from the command line, else its ADELICDYN_[COMMAND_]NAME
        variable (split at whitespace if it may repeat), else its default."""
        values = {}
        for dest, env, read, default in self.flags:
            value = getattr(args, dest)
            if value is None and env:
                value = read(env) if default != () else [read(v) for v in env.split()]
            values[dest] = default if value is None else value
        return values

    def parse_known_args(self, args=None, namespace=None):
        # stock argparse names an unknown flag only after the missing flag
        # or bad command it caused; here it is named first.  The global
        # parser reads up to the command, a sub-parser all its arguments.
        args = sys.argv[1:] if args is None else list(args)
        for arg in args:
            if arg == "--" or arg in getattr(self, "commands", ()):
                break
            flag = arg.partition("=")[0] if arg.startswith("--") else arg[:2]
            if (
                len(arg) > 1 and arg[0] == "-"
                and not self._negative_number_matcher.match(arg)
                and flag not in self._option_string_actions
            ):
                self.error(f"unrecognized flag {quote(arg)}")
        return super().parse_known_args(args, namespace)

    def error(self, message):
        raise InputError(message)


def emit(cfg: Namespace, doc: dict, header: list[str], rows: list[list[str]]) -> None:
    """Write `doc` as JSON, or the csv/table rows read from it, in full."""
    if cfg.format == "json":
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    elif cfg.format == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header, *rows])
        text = buf.getvalue()
    else:
        table = [header, *rows]
        widths = [max(len(cell) for cell in column) for column in zip(*table)]
        text = "".join(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n"
            for row in table
        )
    # an unbuffered stdout may take only part of a write when the reader
    # closes the pipe, and its text layer drops the rest; written in a loop,
    # the rest fails with BrokenPipeError
    sys.stdout.flush()
    data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
    while data:
        data = data[sys.stdout.buffer.write(data):]


def _case_tags(m: MoebiusMap) -> list[str]:
    """Family tags; computed on the det-1 rescaling when det is a square."""
    if is_perfect_square(m.det) is None:
        return []
    return sorted(tag.value for tag in recognize_case(m.rescale_to_unit_det()))


def _classification_doc(cfg: Namespace, m: MoebiusMap) -> dict:
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


def _emit_classification(cfg: Namespace, doc: dict) -> None:
    rows = [
        [report["xi"], entry["place"], entry["kind"], entry["multiplier_norm"]]
        for report in doc["reports"]
        for entry in report["places"]
    ]
    emit(cfg, doc, ["xi", "place", "kind", "multiplier_norm"], rows)


def classify(cfg: Namespace, map: MoebiusMap):
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


def iterate(cfg: Namespace, map, x0, place, steps, xi):
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
    if cfg.format != "json" and stop in (Termination.OVERFLOW_GUARD, Termination.POLE_HIT):
        n = len(record.steps)
        print(f"note: {stop.value} ended the orbit before step {n}", file=sys.stderr)


def adele_step(cfg: Namespace, map, principal, real, at, elsewhere):
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


def basin(cfg: Namespace, map, xi, place, height):
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


def product_formula(cfg: Namespace, rational: Fraction):
    """Factor |r|_v over all places; the product is always 1."""
    doc = verify_product_formula(rational, cfg.factor_bound).to_dict()
    rows = [[f["place"], f["norm"]] for f in doc["factors"]]
    rows.append(["product", doc["product"]])
    emit(cfg, doc, ["place", "norm"], rows)


def modular(cfg: Namespace, family: int, sign: str, param: int):
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


def case(cfg: Namespace, tag, a, c, t, sign):
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


def cross_ratio_cmd(cfg: Namespace, map: MoebiusMap, points: list[Fraction]):
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


MAP_FLAG = ("--map", MAP, REQUIRED, "Coefficients 'a,b,c,d'.")
PLACE_FLAG = ("--place", PLACE, REQUIRED, "'real' or a prime.")

#: The flag table: the global flags under "", then each subcommand's, after
#: the function that runs it.  A flag is (names, kind, default, help): the
#: names are separated by '/', `kind` reads the text (a library parser, or a
#: tuple of choices), and `default` is REQUIRED, or () for a flag that may
#: repeat.
COMMANDS = {
    "": (
        None,
        ("--format", ("json", "csv", "table"), "table", "Output format on stdout."),
        ("--factor-bound", INTEGER, DEFAULT_FACTOR_BOUND, "Largest trial divisor."),
        ("--max-steps", COUNT, DEFAULT_MAX_STEPS, "Orbit step budget (nonnegative)."),
        ("--bit-guard", COUNT, DEFAULT_BIT_GUARD, "End an orbit before a point or"
         " distance whose numerator or denominator passes this many bits (nonnegative,"
         f" at most {DEFAULT_BIT_GUARD}, the largest size that prints)."),
        ("--audit-primes", COUNT, None, "Re-verify cofinite indifference for all primes"
         f" up to N (nonnegative, at most {MAX_PRIME_SCAN})."),
    ),
    "classify": (classify, MAP_FLAG),
    "iterate": (
        iterate,
        MAP_FLAG,
        ("--x0", RATIONAL, REQUIRED, "Starting point."),
        PLACE_FLAG,
        ("--steps", COUNT, None, "Nonnegative; defaults to --max-steps."),
        ("--xi", RATIONAL, None, "Reference fixed point."),
    ),
    "adele-step": (
        adele_step,
        MAP_FLAG,
        ("--principal", RATIONAL, None, "Step the principal adele of r."),
        ("--real", RATIONAL, None, "Real component."),
        ("--at", COMPONENT, (), "Listed component 'p=x'; may repeat."),
        ("--elsewhere", RATIONAL, None, "Shared value at unlisted primes."),
    ),
    "basin": (
        basin,
        MAP_FLAG,
        ("--xi", RATIONAL, REQUIRED, "Fixed point to refer to."),
        PLACE_FLAG,
        ("--height", COUNT, REQUIRED, "Max |num| and den of x0 (nonnegative)."),
    ),
    "product-formula": (product_formula, ("-r/--rational", RATIONAL, REQUIRED, "Nonzero.")),
    "modular": (
        modular,
        ("--family", INTEGER, REQUIRED, "Family number, 1..5."),
        ("--sign", SIGN, "+", "Upper or lower symbol choice."),
        ("--c/--param", INTEGER, REQUIRED, "Free integer."),
    ),
    "case": (
        case,
        ("--tag", tuple(t.value for t in CaseTag), REQUIRED, "Family tag."),
        ("--a", RATIONAL, None, "Cases A, E, F."),
        ("--c", RATIONAL, None, "Cases A, C, D, E, F."),
        ("--t", RATIONAL, None, "Case B."),
        ("--sign", SIGN, None, "C and D."),
    ),
    "cross-ratio": (
        cross_ratio_cmd,
        MAP_FLAG,
        ("--points", POINTS, REQUIRED, "Four distinct rationals."),
    ),
}


def main():
    """Run the CLI; the only place a failure leaves the program.

    Returns only on success; `--help` exits 0.  A library error exits 4, 3
    or 2 and a usage error exits 2, each with one `error:` line on stderr;
    Ctrl-C prints "Aborted!" and exits 1, and a reader that closes stdout
    early ends the run quietly with exit 1.
    """
    try:
        parser = Parser(prog="adelicdyn", description="Exact dynamics at every place.")
        args = parser.parse_args()
        cfg = Namespace(**parser.values(args))
        if cfg.bit_guard > DEFAULT_BIT_GUARD:
            raise ResourceLimitError(
                f"--bit-guard {cfg.bit_guard} is above the cap {DEFAULT_BIT_GUARD} bits"
            )
        values = parser.commands[args.command].values(args)
        COMMANDS[args.command][0](cfg, **values)
        sys.stdout.flush()  # here, a closed stdout fails inside the try
    except BrokenPipeError:
        # what is still buffered goes to devnull, or the flush at exit
        # would fail on the closed pipe again and report it
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except KeyboardInterrupt:
        print("\nAborted!", file=sys.stderr)
        sys.exit(1)
    except AdelicDynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ResourceLimitError):
            sys.exit(EXIT_RESOURCE)
        sys.exit(EXIT_DOMAIN if isinstance(exc, MathDomainError) else EXIT_INPUT)


if __name__ == "__main__":
    main()
