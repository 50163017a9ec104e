"""Command-line front end.

Every subcommand writes one document to stdout (JSON, or csv or table
rows read from it) and keeps diagnostics on stderr.  Exit codes are a
stable contract: 0 success, 2 bad input, 3 mathematics outside the
rational scope, 4 a tripped resource guard.  Every failure, the argument
parser's included, leaves through `main()` as one `error:` line on stderr.
One left-to-right scan splits the line at the command and names the first
unknown flag (`--` included), unknown command or stray argument before any
value is read.  A flag takes the next argument, or `--flag=value` (`-r6`,
`-r=6` for the one short flag).  Each flag is a row of `COMMANDS`, read by
a library parser whose error names the flag; a resource limit's flag has a
row in `exact.LIMITS` whose cap its help states (the factor bound's floor
is 2).  Each flag can also be set through an ADELICDYN_* variable.  The
line is read with argparse, so the package has no runtime dependency.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import sys
from argparse import ArgumentParser, Namespace, RawDescriptionHelpFormatter
from fractions import Fraction
from functools import partial

from .classification import (
    CaseTag,
    _audit,
    _multiplier_support,
    _reports,
    case_a_map,
    case_b_map,
    case_c_map,
    case_d_map,
    case_e_map,
    case_f_map,
    recognize_case,
)
from .dynamics import (
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
    NonSquareDeterminant,
    ParseError,
    ResourceLimitError,
)
from .exact import (
    BASIN_WORK,
    BIT_GUARD,
    FACTOR_BOUND,
    LIMITS,
    ORBIT_STEPS,
    STEP_BITS,
    int_digit_limit,
    parse_integer,
    parse_rational,
    parse_rationals,
    shown,
)
from .moebius import FixedPoints, MoebiusMap, cross_ratio, fixed_points, modular_family
from .padic import Place, place_norm


def _prime_and_value(text: str) -> tuple[int, Fraction]:
    """One 'p=x' component of an adele; p must be a prime."""
    prime_text, _, value_text = text.partition("=")
    if not value_text:
        raise ParseError(f"expected 'p=x', got {shown(text)}")
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
            raise ParseError(f"{shown(text)} is not one of {', '.join(map(repr, kind))}")
        return text
    except InputError as exc:
        raise InputError(f"{' / '.join(map(repr, names))}: {exc}") from exc


class Parser(ArgumentParser):
    """The parser of one entry of `COMMANDS`; the global entry "" also reads
    the command as `COMMAND`.  An error raises InputError (exit 2)."""

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
            limit = LIMITS.get(names[-1])
            if limit:
                text += f" [{limit.cost + ' ' if limit.cost else ''}at most {limit.cap}]"
            self.add_argument(
                *names, dest=dest, type=read, help=text,
                choices=kind if isinstance(kind, tuple) else None,
                action="append" if default == () else "store",
                required=default is REQUIRED and not env)
        if not command:
            self.add_argument("command", metavar="COMMAND", help="One of the commands below.")

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

    def split(self, args: list[str]) -> tuple[list[str], Parser | None, list[str]]:
        """args split at the command: the part up to it, the command's Parser
        (None if a help flag or the end comes first), its part.  It names the
        first bad flag, command or stray argument before any value is read."""
        command, end, value = None, len(args), False  # value: arg is a flag's value
        for i, arg in enumerate(args):
            if value:
                value = False
            elif len(arg) < 2 or arg[0] != "-" or self._negative_number_matcher.match(arg):
                if command:
                    self.error(f"unrecognized argument {shown(arg)}")
                if not arg or arg not in COMMANDS:  # "" is the global entry
                    self.error(f"unknown command {shown(arg)}")
                doc = COMMANDS[arg][0].__doc__
                command, end = Parser(arg, prog=f"{self.prog} {arg}", description=doc), i + 1
            else:
                flag = arg.partition("=")[0] if arg[1] == "-" else arg[:2]
                action = (command or self)._option_string_actions.get(flag)
                if action is None:
                    self.error(f"unrecognized flag {shown(arg)}")
                if action.nargs == 0:  # a help flag: argparse prints the help
                    if arg != flag:  # '-hx' or '--help=x'
                        self.error(f"unrecognized flag {shown(arg)}")
                    break
                value = arg == flag
        return args[:end], command, args[end:]

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
    try:
        unit = m.rescale_to_unit_det()
    except NonSquareDeterminant:
        return []
    return sorted(tag.value for tag in recognize_case(unit))


def _emit_classification(cfg: Namespace, m: MoebiusMap, **head) -> None:
    """Classify `m`, reports and audit from one support, and write it after `head`."""
    points, q, support = _multiplier_support(m, cfg.factor_bound)
    doc = {
        **head,
        "map": m.to_dict(),
        "det": str(m.det),
        "cases": _case_tags(m),
        "fixed_points": FixedPoints(points).to_dict(),
        "reports": [r.to_dict() for r in _reports(points, support)],
    }
    if cfg.audit_primes is not None:
        doc["audit"] = [a.to_dict() for a in _audit(points, q, support, cfg.audit_primes)]
    rows = [
        [report["xi"], entry["place"], entry["kind"], entry["multiplier_norm"]]
        for report in doc["reports"]
        for entry in report["places"]
    ]
    emit(cfg, doc, ["xi", "place", "kind", "multiplier_norm"], rows)


def classify(cfg: Namespace, map: MoebiusMap):
    """Fixed points and their stability at every place."""
    _emit_classification(cfg, map)


def _default_xi(m: MoebiusMap, v: Place) -> Fraction:
    """The attractive fixed point at v if any, else the larger; f'(xi) f'(xi') = 1."""
    points = fixed_points(m).points
    return points[0] if place_norm(m.derivative_at(points[0]), v) < 1 else points[-1]


def _orbit_steps(cfg: Namespace, steps: int | None = None) -> int:
    """The steps of an orbit: `steps` (from --steps) if given, else
    --max-steps.  Refused when the bit guard passes its cap, or when the
    recorded steps might not fit in memory at that guard."""
    weight = BIT_GUARD.check(cfg.bit_guard) + STEP_BITS
    limit = ORBIT_STEPS if steps is None else ORBIT_STEPS._replace(flag="--steps")
    return limit.check(cfg.max_steps if steps is None else steps, lambda s: s * weight)


def iterate(cfg: Namespace, map, x0, place, steps, xi):
    """Exact orbit with per-step distance to a fixed point."""
    steps = _orbit_steps(cfg, steps)
    if xi is None:
        xi = _default_xi(map, place)
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
    steps = _orbit_steps(cfg)
    # at most 2 height + 1 numerators for each of `height` denominators
    BASIN_WORK.check(height, lambda h: h * (2 * h + 1) * (steps + 1))
    sample = basin_sample(map, xi, place, height, steps, cfg.bit_guard)
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
    _emit_classification(cfg, m, family=family, sign=sign, param=param)


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
    _emit_classification(cfg, builder(*(given[name] for name in needed)), tag=tag)


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
        ("--factor-bound", INTEGER, FACTOR_BOUND.default, "Largest trial divisor, at least 2."),
        ("--max-steps", COUNT, ORBIT_STEPS.default, "Orbit step budget (nonnegative)."),
        ("--bit-guard", COUNT, BIT_GUARD.default, "End an orbit before a point or"
         " distance whose numerator or denominator passes this many bits (nonnegative;"
         " the cap is the largest size that prints)."),
        ("--audit-primes", COUNT, None, "Re-verify cofinite indifference for all primes"
         " up to N (nonnegative)."),
    ),
    "classify": (classify, MAP_FLAG),
    "iterate": (
        iterate,
        MAP_FLAG,
        ("--x0", RATIONAL, REQUIRED, "Starting point."),
        PLACE_FLAG,
        ("--steps", COUNT, None, "Nonnegative; defaults to --max-steps, and has its cap."),
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

    Returns only on success; `--help` exits 0.  A library error exits with
    its `exit_code`, a usage error 2 and an integer too long to print 4,
    each with one `error:` line on stderr.  Ctrl-C prints "Aborted!" and
    exits 1; a reader that closes stdout early ends the run quietly, exit 1.
    """
    try:
        width = max(map(len, COMMANDS))
        rows = "".join(f"\n  {c:{width}}  {run.__doc__}" for c, (run, *_) in COMMANDS.items() if c)
        parser = Parser(prog="adelicdyn", description="Exact dynamics at every place.",
                        epilog="commands:" + rows, formatter_class=RawDescriptionHelpFormatter)
        head, command, rest = parser.split(sys.argv[1:])
        args, command_args = parser.parse_args(head), command.parse_args(rest)
        cfg = Namespace(**parser.values(args))
        COMMANDS[args.command][0](cfg, **command.values(command_args))
        sys.stdout.flush()  # here, a closed stdout fails inside the try
    except BrokenPipeError:
        # what is still buffered goes to devnull, or the flush at exit
        # would fail on the closed pipe again and report it
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except KeyboardInterrupt:
        print("\nAborted!", file=sys.stderr)
        sys.exit(1)
    except ValueError as exc:
        # str() of an int past the digit limit; any other ValueError is a fault
        if "for integer string conversion" not in str(exc):
            raise
        size = f"more than {int_digit_limit()} digits, the interpreter's digit limit"
        print(f"error: the result has an integer of {size}", file=sys.stderr)
        sys.exit(ResourceLimitError.exit_code)
    except AdelicDynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(exc.exit_code)


if __name__ == "__main__":
    main()
