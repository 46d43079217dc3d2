"""Registry of valid functions, arguments, and function-argument associations."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping

from .expr import ApiCall, calls_in, non_identifiers, reading


class SpecFormatError(ValueError):
    """Malformed spec file or invariant-violating spec contents."""


@dataclass(frozen=True)
class ApiSpec:
    """Function and argument names, all identifiers, and the arguments of each function.

    ``associations`` is held as a read-only mapping to frozensets, so a spec
    cannot change, and with it its hash, once it is in a set or dict."""

    functions: frozenset[str] = frozenset()
    arguments: frozenset[str] = frozenset()
    associations: Mapping[str, frozenset[str]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "functions", frozenset(self.functions))
        object.__setattr__(self, "arguments", frozenset(self.arguments))
        assoc = MappingProxyType({f: frozenset(a) for f, a in dict(self.associations).items()})
        object.__setattr__(self, "associations", assoc)
        not_idents = non_identifiers([*self.functions, *self.arguments])
        if not_idents:
            # A name that is not printable, "A\nB" say, is quoted, so the error stays one line.
            shown = (n if n.isprintable() else repr(n) for n in not_idents)
            raise SpecFormatError(f"names are not identifiers: {', '.join(shown)}")
        for f, args in assoc.items():
            if f not in self.functions:
                raise SpecFormatError(f"association key {f!r} not in functions")
            if not args <= self.arguments:
                raise SpecFormatError(f"association {f!r} references unknown arguments "
                                      f"{sorted(args - self.arguments)}")

    def args_for(self, function: str) -> frozenset[str]:
        """Valid argument names for ``function``; empty set if unknown."""
        return self.associations.get(function, frozenset())

    def _key(self):
        # A function with no arguments is the same spec whether or not it has a key.
        assoc = frozenset((f, a) for f, a in self.associations.items() if a)
        return self.functions, self.arguments, assoc

    def __eq__(self, other):
        if not isinstance(other, ApiSpec):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        # A mappingproxy can be neither pickled nor copied, so rebuild from a dict.
        return ApiSpec, (self.functions, self.arguments, dict(self.associations))


def derive_from_corpus(calls: Iterable[ApiCall]) -> ApiSpec:
    """Collect functions, arguments, and associations seen anywhere in the corpus."""
    associations: dict[str, set[str]] = {}
    for call in calls:
        for c in calls_in(call):
            associations.setdefault(c.function, set()).update(name for name, _ in c.args)
    return ApiSpec(frozenset(associations), frozenset().union(*associations.values()), associations)


def dump_spec(spec: ApiSpec) -> str:
    """Spec file text without the final newline; arrays sorted for byte-stable output."""
    doc = {
        "functions": sorted(spec.functions),
        "arguments": sorted(spec.arguments),
        "associations": {f: sorted(a) for f, a in sorted(spec.associations.items())},
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def save_spec(spec: ApiSpec, path: str | Path) -> None:
    """Write a spec file."""
    Path(path).write_text(dump_spec(spec) + "\n", encoding="utf-8")


def load_spec(path: str | Path) -> ApiSpec:
    try:
        with reading(path):
            doc = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except json.JSONDecodeError as e:
        raise SpecFormatError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise SpecFormatError(f"{path}: top level must be an object")
    for key, kind in (("functions", list), ("arguments", list), ("associations", dict)):
        if key not in doc:
            raise SpecFormatError(f"{path}: missing key {key!r}")
        if not isinstance(doc[key], kind):
            raise SpecFormatError(f"{path}: key {key!r} must be {kind.__name__}")
    for key in ("functions", "arguments"):
        for item in doc[key]:
            if not isinstance(item, str):
                raise SpecFormatError(f"{path}: {key} entries must be strings")
    for f, args in doc["associations"].items():
        if not isinstance(args, list) or not all(isinstance(a, str) for a in args):
            raise SpecFormatError(f"{path}: associations[{f!r}] must be a string array")
    try:
        return ApiSpec(doc["functions"], doc["arguments"], doc["associations"])
    except SpecFormatError as e:
        raise SpecFormatError(f"{path}: {e}") from e
