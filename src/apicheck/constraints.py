"""Hard 0/1 constraint checks over generated API-call text and rate aggregation.

Convention: when the text does not parse (structural bit 0), the three
task-specific bits are reported 0 as well -- an unparseable call cannot
satisfy API constraints. Rates are sensitive to this convention.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr import ApiCall, Grounded, ParseError, flatten, parse
from .spec import ApiSpec


@dataclass(frozen=True)
class ConstraintSignature:
    c_s: int
    c_f: int
    c_a: int
    c_fa: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.c_s, self.c_f, self.c_a, self.c_fa)


@dataclass(frozen=True)
class ViolationReport:
    signature: ConstraintSignature
    offending_functions: tuple[str, ...] = ()
    offending_arguments: tuple[str, ...] = ()
    offending_pairs: tuple[tuple[str, str], ...] = ()
    parse_error: ParseError | None = None


@dataclass(frozen=True)
class ViolationRates:
    structural: float
    function: float
    argument: float
    association: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.structural, self.function, self.argument, self.association)


def check_call(call: ApiCall, spec: ApiSpec) -> ViolationReport:
    """Check an already-parsed call (structural bit is 1 by construction)."""
    bad_fns: set[str] = set()
    bad_args: set[str] = set()
    bad_pairs: set[tuple[str, str]] = set()
    for flat in flatten(call):
        if flat.function not in spec.functions:
            bad_fns.add(flat.function)
        for name, _value in flat.args:
            if name not in spec.arguments:
                bad_args.add(name)
            if name not in spec.args_for(flat.function):
                bad_pairs.add((flat.function, name))
    sig = ConstraintSignature(
        1,
        int(not bad_fns),
        int(not bad_args),
        int(not bad_pairs),
    )
    return ViolationReport(
        sig,
        tuple(sorted(bad_fns)),
        tuple(sorted(bad_args)),
        tuple(sorted(bad_pairs)),
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


def grounded_values_in_utterance(call: ApiCall, utterance: str) -> bool:
    """Informational span check: every grounded value occurs in the utterance.

    Not part of any constraint bit; diagnostic only.
    """
    for flat in flatten(call):
        for _name, value in flat.args:
            if isinstance(value, Grounded) and value.text not in utterance:
                return False
    return True


def violation_rates(reports: list[ViolationReport]) -> ViolationRates:
    """Per-category fraction of reports with the bit violated (0)."""
    if not reports:
        raise ValueError("violation_rates requires a non-empty report list")
    n = len(reports)
    sigs = [r.signature for r in reports]
    return ViolationRates(
        sum(1 for s in sigs if s.c_s == 0) / n,
        sum(1 for s in sigs if s.c_f == 0) / n,
        sum(1 for s in sigs if s.c_a == 0) / n,
        sum(1 for s in sigs if s.c_fa == 0) / n,
    )


def format_report_line(report: ViolationReport) -> str:
    """One line per example: the four bits plus offender lists."""
    sig = report.signature
    parts = [f"{sig.c_s} {sig.c_f} {sig.c_a} {sig.c_fa}"]
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
    return (
        f"C_s violation rate: {rates.structural * 100:.2f}%\n"
        f"C_f violation rate: {rates.function * 100:.2f}%\n"
        f"C_a violation rate: {rates.argument * 100:.2f}%\n"
        f"C_fa violation rate: {rates.association * 100:.2f}%"
    )
