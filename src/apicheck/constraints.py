"""Hard 0/1 constraint checks over generated API-call text and rate aggregation.

Convention: when the text does not parse (structural bit 0), the three
task-specific bits are reported 0 as well -- an unparseable call cannot
satisfy API constraints. Rates are sensitive to this convention.
"""

from __future__ import annotations

from typing import NamedTuple

from .expr import ApiCall, ParseError, calls_in, parse
from .spec import ApiSpec


class ConstraintSignature(NamedTuple):
    c_s: int
    c_f: int
    c_a: int
    c_fa: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return tuple(self)


class ViolationReport(NamedTuple):
    signature: ConstraintSignature
    offending_functions: tuple[str, ...] = ()
    offending_arguments: tuple[str, ...] = ()
    offending_pairs: tuple[tuple[str, str], ...] = ()
    parse_error: ParseError | None = None


# Every call that meets all four constraints shares this report; it is immutable.
_CLEAN = ViolationReport(ConstraintSignature(1, 1, 1, 1))


class ViolationRates(NamedTuple):
    structural: float
    function: float
    argument: float
    association: float


def check_call(call: ApiCall, spec: ApiSpec) -> ViolationReport:
    """Check an already-parsed call (structural bit is 1 by construction)."""
    functions, arguments, args_for = spec.functions, spec.arguments, spec.associations.get
    bad_fns, bad_args, bad_pairs = set(), set(), set()
    for c in calls_in(call):
        function = c.function
        if function not in functions:
            bad_fns.add(function)
        valid = args_for(function, ())
        for name, _value in c.args:
            if name not in arguments:
                bad_args.add(name)
            if name not in valid:
                bad_pairs.add((function, name))
    if not (bad_fns or bad_args or bad_pairs):
        return _CLEAN
    sig = ConstraintSignature(1, int(not bad_fns), int(not bad_args), int(not bad_pairs))
    return ViolationReport(
        sig, tuple(sorted(bad_fns)), tuple(sorted(bad_args)), tuple(sorted(bad_pairs))
    )


def parse_and_check(text: str, spec: ApiSpec) -> tuple[ApiCall | None, ViolationReport]:
    """Parse ``text`` once; return the call (None if it does not parse) and its report."""
    try:
        call = parse(text)
    except ParseError as e:
        # Without its traceback the error pins no frames: a caller frame that
        # holds the report would otherwise be in a reference cycle with it.
        e.with_traceback(None)
        return None, ViolationReport(ConstraintSignature(0, 0, 0, 0), parse_error=e)
    return call, check_call(call, spec)


def check(text: str, spec: ApiSpec) -> ViolationReport:
    """Evaluate all four constraint bits for one generated string."""
    return parse_and_check(text, spec)[1]


def violation_rates(reports: list[ViolationReport]) -> ViolationRates:
    """Per-category fraction of reports with the bit violated (0)."""
    if not reports:
        raise ValueError("violation_rates requires a non-empty report list")
    n = len(reports)
    return ViolationRates(*(bits.count(0) / n for bits in zip(*(r.signature for r in reports))))


def format_report_line(report: ViolationReport) -> str:
    """One line per example: the four bits plus offender lists."""
    parts = [" ".join(map(str, report.signature))]
    offenders = []
    if report.parse_error is not None:
        offenders.append(f"parse:{report.parse_error.kind.value}@{report.parse_error.offset}")
    if report.offending_functions:
        offenders.append("functions:" + ",".join(report.offending_functions))
    if report.offending_arguments:
        offenders.append("arguments:" + ",".join(report.offending_arguments))
    if report.offending_pairs:
        offenders.append("pairs:" + ",".join(f"{f}.{a}" for f, a in report.offending_pairs))
    if offenders:
        parts.append(" ".join(offenders))
    return " ".join(parts)


def format_summary(rates: ViolationRates) -> str:
    return "\n".join(
        f"{bit} violation rate: {rate * 100:.2f}%"
        for bit, rate in zip(("C_s", "C_f", "C_a", "C_fa"), rates)
    )
