"""A standing input-mutation property over every CLI command.

Each case starts from a golden command's argv (``test_cli_golden._argv``;
``overhead``, which has none, takes ``mask``'s inputs), makes 1-4 seeded byte
edits to one of its input files and runs ``main`` in process. ``main`` must
return 0 or 1, raise nothing and finish in bounded time. On 1 it writes
exactly one stderr line, split at "\\n" alone, and that line starts
``error:``; ``decode-sim``'s ``run N: INCOMPLETE`` lines are the only other
stderr lines a command may write. ``parse`` and ``flatten`` read no file, so
their expression is edited instead and read back as UTF-8, a broken byte as
U+FFFD, since an argument is text.

``mutation_failures`` takes any seed and count, for a longer search.
"""

import random
import re
import time
from collections import Counter
from pathlib import Path

import pytest

from apicheck.cli import main
from test_cli_golden import _argv

COMMANDS = ["parse", "flatten", "check", "eval", "derive-spec", "convert-top", "sample-spis",
            "retrieve", "prompt", "retrieve-embeddings", "prompt-embeddings", "decode-sim", "mask",
            "overhead"]

# What an insert puts in: the structure of calls, JSON and TSV; a broken UTF-8
# byte, line ends, a NUL, a BOM and U+2028; JSON escapes of a NUL and of line
# ends; and numbers that are not finite, as JSON and as float() read them.
_INSERTS = [b'"', b"\\", b"{", b"}", b"[", b"]", b",", b":", b"(", b")", b"=", b" ", b"\t",
            b"\n", b"-", b"0", b"\xff", b"\r", b"\x00", b"\xef\xbb\xbf", "\u2028".encode(),
            b"\\u0000", b"\\n", b"\\r", b"\\u2028", b"nan", b"NaN", b"Infinity", b"1e999",
            b"null"]
_INCOMPLETE = re.compile(r"run \d+: INCOMPLETE ")
_CASE_SECONDS = 2.0  # far above any case's time: a case this slow hangs or blows up


def _edit(rng: random.Random, data: bytes) -> bytes:
    """``data`` after one edit: delete, insert, replace a byte, duplicate or truncate."""
    i = rng.randrange(len(data) + 1)
    j = min(len(data), i + rng.randint(1, 8))
    kind = rng.choice(["delete", "insert", "replace", "duplicate", "truncate"])
    if kind == "delete":
        return data[:i] + data[j:]
    if kind == "insert":
        return data[:i] + rng.choice(_INSERTS) + data[i:]
    if kind == "replace":
        return data[:i] + bytes([rng.randrange(256)]) + data[i + 1:]
    if kind == "duplicate":
        return data[:j] + data[i:j] + data[j:]
    return data[:i]


def _mutate(rng: random.Random, data: bytes) -> bytes:
    for _ in range(rng.randint(1, 4)):
        data = _edit(rng, data)
    return data


def _violation(command: str, code, err: str) -> str | None:
    """Why one run breaks the property, or None."""
    if code not in (0, 1):
        return f"exit status {code!r}"
    lines = err.split("\n")
    if lines.pop() != "":
        return f"stderr does not end a line: {err!r}"
    if command == "decode-sim":
        lines = [line for line in lines if not _INCOMPLETE.match(line)]
        if code == 1 and not lines and err:
            return None  # an incomplete run, reported as such
    if code == 0:
        return f"stderr on success: {err!r}" if lines else None
    if len(lines) != 1 or not lines[0].startswith("error:"):
        return f"not one error line: {err!r}"
    return None


def _cases(command: str, tmp_path: Path, seed: int, n: int):
    """Yield ``n`` seeded argvs of ``command``, each with one input edited; the
    edited file is put back after each case."""
    rng = random.Random(f"{command} {seed}")
    if command == "overhead":  # no golden, as it prints times: mask's inputs, few steps
        argv = ["overhead", *_argv("mask", tmp_path)[1:5], "--steps", "20"]
    else:
        argv = _argv(command, tmp_path)
    files = [Path(a) for a in argv if a.startswith(str(tmp_path)) and Path(a).is_file()]
    originals = {path: path.read_bytes() for path in files}
    for _ in range(n):
        if not files:  # the expression is the input
            expression = _mutate(rng, argv[-1].encode()).decode("utf-8", "replace")
            yield [*argv[:-1], "--", expression], expression
            continue
        path = rng.choice(files)
        data = _mutate(rng, originals[path])
        path.write_bytes(data)
        yield argv, (path.name, data)
        path.write_bytes(originals[path])


def mutation_failures(command: str, tmp_path: Path, seed: int, n: int, read_stderr):
    """The cases of ``command`` that break the property, as (input, why) pairs,
    and a count of the exit statuses. ``read_stderr()`` returns what the CLI
    wrote to stderr since the last call."""
    failures, exits = [], Counter()
    for argv, case in _cases(command, tmp_path, seed, n):
        start = time.perf_counter()
        try:
            code = main(argv)
            exits[code] += 1
        except (Exception, SystemExit) as e:  # any raise breaks the property
            read_stderr()
            failures.append((case, f"raised {e!r}"))
            continue
        why = _violation(command, code, read_stderr())
        if why is None and time.perf_counter() - start > _CASE_SECONDS:
            why = f"took {time.perf_counter() - start:.1f} s"
        if why is not None:
            failures.append((case, why))
    return failures, exits


@pytest.mark.parametrize("command", COMMANDS)
def test_edited_inputs_exit_0_or_with_one_error_line(command, tmp_path, capsys):
    # 14 commands x 230 cases: about 3,200 in all, in a few seconds. Each
    # command must see both statuses, so the edits reach its readers.
    failures, exits = mutation_failures(command, tmp_path, 0, 230, lambda: capsys.readouterr().err)
    assert failures == [] and set(exits) == {0, 1}, (failures[:5], exits)
