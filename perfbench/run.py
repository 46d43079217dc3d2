"""Seeded benchmark of apicheck: constrained decoding, offline scoring and SRD prompting.

Run from the repository root:

    python3 perfbench/run.py --workload decode-32k --seed 1 --seconds 10 --trace 0

The benchmark writes seeded inputs (spec, vocab, pairs and pool files) into a
scratch directory of the checkout, times the library's set-up calls, then runs
one closed-loop client for ``--seconds``: each operation waits for the one
before it. Every time reported is scaled to a host of fixed speed by a reference
loop timed around it (see ``REF_PROBE_S``); the ``#`` lines give the unscaled
figures too. Every output is checked. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it that
start with ``#`` describe the machine and the run.

Workloads, and the operation each one times:

* ``decode-32k``: one TOPv2-style spec with a 32,000-token BPE-like vocab; the
  operation is one generated token (``allowed_tokens`` plus ``advance``).
* ``decode-small``: 64 toy specs with 50-token vocabs and short decodes; the
  operation is one generated token.
* ``score``: 60 gold/prediction pairs; the operation is ``apicheck check``
  plus ``apicheck eval`` over them, in-process through ``cli.main``.
* ``srd-prompt``: a 5,000-example TOP pool; the operation is ``retrieve`` (k=10)
  plus ``build_prompt`` for one test utterance.

End-to-end metrics (``--trace 0``): ``setup_s`` (the library's loaders,
session/index builds and conversions; the median of several set-ups before the
run), ``peak_rss_mb``, ``latency_p50_ms``/``latency_p90_ms`` of the operation,
and ``throughput_per_s`` (tokens, pairs or queries per second of operation
time). The 90th percentile is the highest one with at least ten operations
beyond it in a run of the slowest operation (srd-prompt, about 200 queries).
A failed operation is counted in ``failed``, so ``failed / attempted`` is the
failure share.

``--trace 1`` alternates untraced and traced operations (and set-ups), records
a span around every public apicheck call in the traced ones, writes the spans
to ``.bench_out/`` and prints the per-layer metrics, including the tracing
overhead (traced minus untraced) of each end-to-end metric.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"  # before numpy loads, so no workload gains the second core

import argparse
import array
import contextlib
import gc
import hashlib
import io
import json
import platform
import random
import resource
import shutil
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import gen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
clock = time.perf_counter

WORKLOADS = ("decode-32k", "decode-small", "score", "srd-prompt")
# Automaton modes a step can start in. ExpectEquals is left out: the sampler
# always takes the longest token, and both vocab kinds have tokens that carry
# " = " on into the value, so no step starts there.
MODES = (
    "ExpectFunction",
    "ExpectOpen",
    "ExpectArgOrClose",
    "ExpectValue",
    "InString",
    "ExpectCommaOrClose",
)
MAX_DEPTH = 3
SPIS_N = 4
TOP_K = 10
LOAD_BATCH = 100  # load_spec calls per score set-up sample: one takes about 0.1 ms
SRD_CONVERT_CHUNK = 1000  # examples converted between two probes of an srd set-up
# Shared hosts change speed: on a 2-vCPU VM a fixed reference loop (``probe_work``)
# took about 0.2 ms in the fast state and up to 2.5x that in the slow one, with
# episodes from a fraction of a second to minutes, and whole sets of runs could
# fall in a slow period. So every timing is scaled to a host of fixed speed: it is
# multiplied by REF_PROBE_S over the mean of the reference loop's time just before
# and just after it. The loop runs every PROBE_EVERY seconds between operations,
# and PROBES times (median taken) around each set-up phase. On that VM, over the
# 10-second windows of a two-minute run, scaling lowered the spread (coefficient of
# variation) of the median step time from 0.10 to 0.02 on decode-32k and of the
# median query time from 0.08 to 0.05 on srd-prompt, whose numpy work slows less
# than the loop does. So srd-prompt uses a reference loop like its own work
# (``VectorProbe``): in a 90-second run timing both loops, the spread over 5-second
# windows of the median query time was 0.038 scaled by ``probe_work`` and 0.011
# scaled by ``VectorProbe``.
PROBE_EVERY = 0.02
PROBES = 5
REF_PROBE_S = 0.2e-3


def probe_work() -> int:
    """Fixed interpreter-bound work, dict, tuple and str operations like the library's."""
    table = {"AB": 1, "ABC": 2, "B": 3}
    acc = 0
    for k in range(1000):
        cfg = (k & 7, ("F",), "AB"[: k & 1], " ", False, k, False)
        acc += table.get(cfg[2] + "C", 0) + len(cfg)
    return acc


class VectorProbe:
    """Reference loop for srd-prompt: the cosine of one vector with each of 50 vectors
    of a 10 MB pool, one numpy call at a time as ``retrieve_scored`` does per index
    entry. Each probe takes the next 50, so it reads memory that the queries since
    its last visit have evicted. On the VM above it took as long as ``probe_work``
    (median ratio 1.03), so REF_PROBE_S serves both."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.pool = list(rng.random((1280, 1024)))
        self.query = rng.random(1024)
        self.next = 0

    def __call__(self) -> float:
        start = self.next
        self.next = (start + 50) % len(self.pool)
        acc = 0.0
        for vec in self.pool[start : start + 50]:
            acc += float(np.dot(self.query, vec) / (np.linalg.norm(self.query) * np.linalg.norm(vec)))
        return acc


def import_apicheck():
    """Import the package from this checkout's ``src``, never from an installed copy."""
    package = SRC / "apicheck"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no apicheck sources at {package}")
    sys.path.insert(0, str(SRC))
    import apicheck
    import apicheck.cli
    import apicheck.constraints
    import apicheck.decode
    import apicheck.expr
    import apicheck.metrics
    import apicheck.retrieval
    import apicheck.spec
    import apicheck.topconvert

    if Path(apicheck.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported apicheck from {apicheck.__file__}, not {package}")
    return apicheck


def environment() -> str:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = ",".join(f"{v}={os.environ[v]}" for v in BLAS_THREAD_VARS[:3])
    return (
        f"# env cpu={cpu!r} nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} blas_threads=1 ({blas})"
    )


@dataclass
class Run:
    """What one workload measured. Times are seconds; latencies are one per operation.

    The per-operation buffers are allocated, and written once, in full before
    the run, so the benchmark's own memory is the same however many operations
    a run times; a run ends when they are full.
    """

    items_per_op: int = 1
    reference: Callable[[], object] = probe_work  # the loop that scales every timing
    parts_per_op: int = 1  # timings recorded per operation, with a probe between two
    capacity: int = 100_000
    builds: int = 0  # set-up samples taken
    # Per phase of a set-up sample: traced, phase number, seconds, host-speed scale.
    setup: list[tuple[bool, int, float, float]] = field(default_factory=list)
    latency: np.ndarray = field(init=False)
    traced: np.ndarray = field(init=False)
    n: int = 0  # operations recorded
    probes: array.array = field(default_factory=lambda: array.array("d"))
    probe_ops: array.array = field(default_factory=lambda: array.array("q"))  # ops before each probe
    probe_at: array.array = field(default_factory=lambda: array.array("d"))  # clock after each probe
    last_probe: float = float("-inf")
    deadline: float = 0.0
    # Traced ops: start and end on ``clock``, and the seconds timed between them.
    op_wall: dict[int, tuple[float, float, float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.latency = np.full(self.capacity, np.nan, dtype=np.float32)
        self.traced = np.full(self.capacity, -1, dtype=np.int8)

    def fail(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def verify(self, problems: list[str]) -> None:
        """Count one check of a set-up result as an operation of its own."""
        self.attempted += 1
        self.fail(problems)

    def probe(self, times: int = 0) -> float:
        """Time the reference loop ``times`` times and record the median; with
        ``times`` 0, once if PROBE_EVERY has passed since the last probe."""
        if not times:
            if clock() - self.last_probe < PROBE_EVERY:
                return self.probes[-1]
            times = 1
        gc.disable()  # a collection of the library's garbage is not the host's speed
        took = []
        for _ in range(times):
            t0 = clock()
            self.reference()
            took.append(clock() - t0)
        gc.enable()
        self.probes.append(float(np.median(took)))
        self.probe_ops.append(self.n)
        self.last_probe = clock()
        self.probe_at.append(self.last_probe)
        return self.probes[-1]

    def set_ups(self, client: "Client", build, count: int, calls: int = 1):
        """Take ``count`` set-up samples, one after another; returns what the last
        ``build`` returned. A sample's result is dropped before the next one starts."""
        result = None
        for _ in range(count):
            result = None
            result = self.set_up(client, build, calls)
        return result

    def set_up(self, client: "Client", build, calls: int = 1):
        """Time one set-up sample; returns what ``build`` returns.

        ``build(phase)`` may call ``phase()`` between its library calls. That
        ends one phase of the sample: the clock stops for the reference loop
        and the next phase starts. Each phase is timed and scaled on its own.
        A sample whose ``build`` makes ``calls`` identical set-ups records their
        mean, so that a set-up of a fraction of a millisecond is timed over many.
        """
        gc.collect()  # free the dropped build, so that its memory is reused
        _, traced = client.start(self.builds)
        self.builds += 1
        number = 0
        before, t0 = self.probe(PROBES), clock()

        def phase() -> None:
            nonlocal number, before, t0
            seconds = (clock() - t0) / calls
            after = self.probe(PROBES)
            self.setup.append((traced, number, seconds, 2 * REF_PROBE_S / (before + after)))
            number, before, t0 = number + 1, after, clock()

        result = build(phase)
        phase()
        return result

    def setup_seconds(self, traced: bool, scaled: bool = True) -> float:
        """The set-up time: per phase, the median of its timings, summed over the phases."""
        times: dict[int, list[float]] = {}
        for t, number, seconds, scale in self.setup:
            if t == traced:
                times.setdefault(number, []).append(seconds * scale if scaled else seconds)
        return sum(float(np.median(phase)) for phase in times.values())

    def record(self, traced: bool, seconds: float) -> None:
        self.latency[self.n] = seconds
        self.traced[self.n] = traced
        self.n += 1

    def scaled_latency(self) -> np.ndarray:
        """Each operation's time, its parts scaled by the reference loop's times just
        before and after each; a part after the last probe counts that one twice."""
        probes = np.frombuffer(self.probes, dtype=np.float64)
        after = np.searchsorted(self.probe_ops, np.arange(self.n), side="right")
        mean = (probes[after - 1] + probes[np.minimum(after, len(probes) - 1)]) / 2
        scaled = self.latency[: self.n] * (REF_PROBE_S / mean)
        return scaled.reshape(-1, self.parts_per_op).sum(axis=1)

    def op_traced(self) -> np.ndarray:
        return self.traced[: self.n : self.parts_per_op]

    def scale_between(self, start: np.ndarray, end: np.ndarray) -> np.ndarray:
        """The scale of intervals (``clock`` seconds) that run between probes: by the
        last probe that ended before ``start`` and the first that ended after ``end``."""
        probes = np.frombuffer(self.probes, dtype=np.float64)
        at = np.frombuffer(self.probe_at, dtype=np.float64)
        before = np.maximum(np.searchsorted(at, start, side="right") - 1, 0)
        after = np.minimum(np.searchsorted(at, end, side="left"), len(probes) - 1)
        return 2 * REF_PROBE_S / (probes[before] + probes[after])

    def start_clock(self, seconds: float) -> None:
        self.probe(1)
        self.deadline = clock() + seconds

    def measuring(self) -> bool:
        """True until ``--seconds`` have passed or the buffers are nearly full."""
        return self.n < self.capacity - 1000 and clock() < self.deadline  # room for a decode

    def stop_clock(self) -> None:
        self.probe(1)


class Client:
    """Numbers operations and switches span recording on for every other one when tracing."""

    def __init__(self, tracer: spans.Tracer | None):
        self.tracer = tracer
        self.next_id = 0

    def start(self, alternate: int) -> tuple[int, bool]:
        op_id = self.next_id
        self.next_id += 1
        traced = self.tracer is not None and alternate % 2 == 1
        if self.tracer is not None:
            self.tracer.begin_op(op_id)
            if traced:
                self.tracer.enable()
            else:
                self.tracer.disable()
        return op_id, traced

    def checking(self) -> None:
        """Leave the output checks untraced, so their library calls add no spans."""
        self.start(0)


# -- decode ------------------------------------------------------------------------


def run_decode(api, args, work: Path, client: Client, large: bool) -> Run:
    """Decode seeded target calls token by token, with the mask computed at every step.

    The targets stand in for a language model's output. All have one shape
    (MAX_DEPTH levels, two arguments per call), so every run sees nearly the
    same mix of automaton modes, which matters because the per-step cost
    depends on the mode. At each step every token that spells a prefix of the
    rest of the target must be in the allowed set; the sampler emits the
    longest of them, as a BPE tokenizer would, and the finished emission must
    equal the target. Untimed, at every step of the first ``prefix_steps``, a
    token drawn uniformly from the allowed set must be one ``advance`` accepts,
    so a mask that lets a bad token through fails the decode.
    """
    if large:
        spec = gen.topv2_spec(args.seed)
        inputs = [(spec, gen.large_vocab(args.seed, spec))]
        max_string_len, value, prefix_steps = 32, gen.two_words, 300
        run, reps = Run(capacity=100_000), 3
    else:
        inputs = gen.toy_specs(args.seed)
        max_string_len, value, prefix_steps = 8, gen.toy_value, 3000
        run, reps = Run(capacity=2_000_000), 10
    files = []
    for i, (spec, texts) in enumerate(inputs):
        spec_path, vocab_path = work / f"spec{i}.json", work / f"vocab{i}.tsv"
        gen.write_spec(spec_path, spec)
        gen.write_vocab(vocab_path, texts)
        files.append((spec_path, vocab_path))
    token_ids = [{text: tid for tid, text in enumerate(texts)} for _, texts in inputs]
    longest = max(len(t) for _, texts in inputs for t in texts)

    dec = api.decode
    raw_advance = getattr(dec.advance, "__wrapped__", dec.advance)  # never traced

    def build(_phase):
        built = []
        for spec_path, vocab_path in files:
            spec = api.spec.load_spec(spec_path)
            vocab = dec.load_vocab(vocab_path)
            built.append((spec, dec.new_session(spec, vocab, max_string_len, MAX_DEPTH)))
        return built

    sessions = run.set_ups(client, build, reps * (1 + args.trace))

    digest = hashlib.sha256()  # over the sorted allowed sets and the emissions of the counted decodes
    seen: set = set()
    steps = allowed_total = attempted_total = repeats = incomplete = counted = 0
    # The decodes that start within the first prefix_steps steps always run to the
    # end, so the counts and the digest over them repeat exactly for one seed.
    run.start_clock(args.seconds)
    i = 0
    while (steps < prefix_steps and i < prefix_steps) or run.measuring():
        op_id, traced = client.start(i)
        in_prefix = steps < prefix_steps and i < prefix_steps
        counted += in_prefix
        which = i % len(sessions)
        spec_dict, texts = inputs[which]
        ids = token_ids[which]
        rng = random.Random(f"decode-{args.seed}-{i}")
        target = gen.canonical(gen.random_call(rng, spec_dict, MAX_DEPTH, value, 2))
        picker = random.Random(f"pick-{args.seed}-{i}")
        state = sessions[which][1]
        pos = n = 0
        problem = None
        op_start = clock()
        while not state.is_complete:
            if not in_prefix and not run.measuring():
                break
            run.probe()
            config = state.config
            t0 = clock()
            allowed = dec.allowed_tokens(state)
            t1 = clock()
            rest = target[pos : pos + longest]
            options = [ids[rest[:j]] for j in range(1, len(rest) + 1) if rest[:j] in ids]
            if in_prefix:
                key = (which, config)
                repeats += key in seen
                seen.add(key)
                allowed_total += len(allowed)
                attempted_total += len(texts) + 1
                ordered = sorted(allowed)
                digest.update(array.array("i", ordered).tobytes())
                leaks = checks.mask_pick(raw_advance, dec.DisallowedTokenError, state, ordered, picker)
                if leaks:
                    problem = f"step {n} of {target!r}: {leaks[0]}"
                    break
            rejected = [texts[t] for t in options if t not in allowed]
            if rejected or not options:
                problem = f"step {n} of {target!r}: mask rejects {rejected} (allowed {len(allowed)})"
                break
            token = options[-1]
            t2 = clock()
            state = dec.advance(state, token)
            t3 = clock()
            run.record(traced, (t1 - t0) + (t3 - t2))
            pos += len(texts[token])
            n += 1
        if traced:
            op_end = clock()
            run.op_wall[op_id] = (op_start, op_end, op_end - op_start)
        if in_prefix:
            steps += n
            digest.update(state.emitted.encode() + b"\n")
        if state.is_complete or problem:
            run.attempted += 1
            client.checking()
            if problem or state.emitted != target:
                incomplete += in_prefix and not state.is_complete
                run.fail([problem or f"emitted {state.emitted!r}, target {target!r}"])
            else:
                run.fail(checks.decode_emission(api, sessions[which][0], state.emitted))
        i += 1
    run.stop_clock()
    client.checking()

    run.counts = {
        "decode.steps": steps,
        "decode.calls": counted,
        "decode.incomplete": incomplete,
        "decode.allowed_share": allowed_total / attempted_total,
        "decode.config_repeat_share": repeats / steps,
    }
    run.notes.append(
        f"# decode first {counted} emissions and their masks sha256={digest.hexdigest()} "
        + " ".join(f"{k}={v!r}" for k, v in run.counts.items())
    )
    sizes = sorted({len(texts) + 1 for _, texts in inputs})
    run.notes.append(f"# decode vocab sizes {sizes}, decodes finished {run.attempted}")
    return run


# -- score -------------------------------------------------------------------------


def run_score(api, args, work: Path, client: Client) -> Run:
    # check and eval are timed apart, with a probe between, since host speed
    # changes within the tens of milliseconds the two take together.
    run = Run(items_per_op=gen.N_PAIRS, parts_per_op=2)
    spec = gen.topv2_spec(args.seed)
    pairs = gen.score_pairs(args.seed, spec)
    spec_path, preds_path, pairs_path = work / "spec.json", work / "preds.txt", work / "pairs.jsonl"
    gen.write_spec(spec_path, spec)
    preds_path.write_text("".join(p["predicted"] + "\n" for p in pairs), encoding="utf-8")
    gen.write_jsonl(pairs_path, ({"gold": p["gold"], "predicted": p["predicted"]} for p in pairs))
    expected = gen.expected_score_output(pairs)

    def build(_phase):
        for _ in range(LOAD_BATCH):
            spec = api.spec.load_spec(spec_path)
        return spec

    run.set_ups(client, build, 30 * (1 + args.trace), LOAD_BATCH)

    check_argv = ["check", "--spec", str(spec_path), str(preds_path)]
    eval_argv = ["eval", "--spec", str(spec_path), "--pairs", str(pairs_path)]
    first = None
    run.start_clock(args.seconds)
    i = 0
    while i < 2 or run.measuring():
        run.probe()
        op_id, traced = client.start(i)
        check_out, eval_out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(check_out):
            t0 = clock()
            rc_check = api.cli.main(check_argv)
            t1 = clock()
        run.record(traced, t1 - t0)
        run.probe(1)
        with contextlib.redirect_stdout(eval_out):
            t2 = clock()
            rc_eval = api.cli.main(eval_argv)
            t3 = clock()
        run.record(traced, t3 - t2)
        elapsed = (t1 - t0) + (t3 - t2)
        if traced:
            run.op_wall[op_id] = (t0, t3, elapsed)
        outputs = (check_out.getvalue(), eval_out.getvalue())
        run.attempted += 2
        for name, rc in (("check", rc_check), ("eval", rc_eval)):
            if rc != 0:
                run.fail([f"round {i}: {name} exited {rc}"])
        if first is None:
            problems = checks.score_outputs(outputs[0], outputs[1], expected)
            run.fail(problems)
            first = outputs if not problems else ("", "")
        else:
            run.fail([f"round {i}: check output changed"] if outputs[0] != first[0] else [])
            run.fail([f"round {i}: eval output changed"] if outputs[1] != first[1] else [])
        i += 1
    run.stop_clock()
    kinds = {k: sum(1 for p in pairs if p["kind"] == k) for k in gen.KINDS}
    run.notes.append(f"# score pairs {len(pairs)} kinds {kinds}")
    return run


# -- srd ---------------------------------------------------------------------------


def _labels(call) -> set[str]:
    """Function and argument names anywhere in a call."""
    labels = set()
    for (function, args), _ in gen.nodes(call):
        labels.add(function)
        labels.update(name for name, _ in args)
    return labels


def run_srd(api, args, work: Path, client: Client) -> Run:
    run = Run(reference=VectorProbe())
    spec = gen.topv2_spec(args.seed)
    pool, queries = gen.top_pool(args.seed, spec)
    pool_path = work / "pool.jsonl"
    gen.write_jsonl(
        pool_path, ({k: rec[k] for k in ("id", "domain", "utterance", "top_parse")} for rec in pool)
    )
    expected_calls = [gen.canonical(rec["call"]) for rec in pool]
    oracle = checks.Oracle([rec["id"] for rec in pool], [rec["utterance"] for rec in pool])
    by_id = {rec["id"]: (rec["utterance"], call) for rec, call in zip(pool, expected_calls)}

    tc, rt = api.topconvert, api.retrieval
    samples = []

    def build(phase):
        examples = tc.load_examples(pool_path)
        converted = []
        for start in range(0, len(examples), SRD_CONVERT_CHUNK):
            phase()
            converted += [tc.convert_example(e) for e in examples[start : start + SRD_CONVERT_CHUNK]]
        phase()
        derived = api.spec.derive_from_corpus([api.expr.parse(e.api_call) for e in converted])
        phase()
        sampled = tc.spis_sample(converted, SPIS_N, args.seed)
        phase()
        index = rt.build_index(converted, rt.HashedBowEmbedder())
        samples.append([e.id for e in sampled])
        return converted, derived, index

    converted, derived, index = run.set_ups(client, build, 5 * (1 + args.trace))

    client.checking()
    wrong = [e.id for e, want in zip(converted, expected_calls) if e.api_call != want]
    run.verify([f"convert_example gave wrong api_call for {wrong[:5]}"] if wrong else [])
    want_assoc: dict[str, set[str]] = {}
    for rec in pool:
        for (function, pairs), _ in gen.nodes(rec["call"]):
            want_assoc.setdefault(function, set()).update(name for name, _ in pairs)
    got_assoc = {f: set(a) for f, a in derived.associations.items()}
    same = set(derived.functions) == set(want_assoc) and got_assoc == want_assoc
    run.verify([] if same else ["derive_from_corpus disagrees with the generated pool"])
    position = {rec["id"]: i for i, rec in enumerate(pool)}
    labels = [_labels(rec["call"]) for rec in pool]
    run.verify(checks.spis(labels, [position[i] for i in samples[-1]], SPIS_N))

    run.start_clock(args.seconds)
    i = 0
    while i < 2 or run.measuring():
        run.probe()
        op_id, traced = client.start(i)
        query = queries[i % len(queries)]
        t0 = clock()
        scored = rt.retrieve_scored(index, query, TOP_K)
        prompt = rt.build_prompt(checks.DESCRIPTION, [ex for ex, _ in scored], query)
        elapsed = clock() - t0
        run.record(traced, elapsed)
        if traced:
            run.op_wall[op_id] = (t0, t0 + elapsed, elapsed)
        run.attempted += 1
        result = [(ex.id, sim) for ex, sim in scored]
        problems = checks.ranking(result, oracle, query, TOP_K)
        if prompt != checks.expected_prompt([by_id[i] for i, _ in result], query):
            problems.append(f"query {i}: prompt does not hold the demos in rank order")
        run.fail([f"query {i}: {p}" for p in problems])
        i += 1
    run.stop_clock()
    client.checking()
    run.verify(["spis_sample differs between set-ups"] if any(s != samples[0] for s in samples) else [])
    run.notes.append(
        f"# srd pool {len(pool)} queries {len(queries)} spis kept {len(samples[-1])}"
    )
    return run


# -- metrics -----------------------------------------------------------------------


def end_to_end(run: Run, traced: bool) -> dict[str, float]:
    lat = run.scaled_latency()[run.op_traced() == traced].astype(np.float64)
    return {
        "setup_s": run.setup_seconds(traced),
        "latency_p50_ms": float(np.percentile(lat, 50)) * 1e3,
        "latency_p90_ms": float(np.percentile(lat, 90)) * 1e3,
        "throughput_per_s": run.items_per_op * len(lat) / float(lat.sum()),
    }


E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_per_s": "1/s",
}


def per_layer(run: Run, tracer: spans.Tracer) -> dict[str, tuple[float, str]]:
    s = spans.SpanSummary(tracer, set(run.op_wall), run.scale_between)
    out: dict[str, tuple[float, str]] = {
        "decode.build_s": (s.median("decode.new_session"), "s"),
        "decode.mask_us": (s.median("decode.allowed_tokens") * 1e6, "us"),
    }
    for mode in MODES:
        out[f"decode.mask_us.{mode}"] = (s.median(f"decode.allowed_tokens.{mode}") * 1e6, "us")
    out["decode.advance_us"] = (s.median("decode.advance") * 1e6, "us")
    for name in ("decode.allowed_share", "decode.config_repeat_share"):
        out[name] = (run.counts.get(name, 0.0), "share")
    for name in ("decode.steps", "decode.calls", "decode.incomplete"):
        out[name] = (run.counts.get(name, 0), "count")
    for name in ("expr.parse", "expr.serialize", "expr.flatten", "constraints.check"):
        out[f"{name}_us"] = (s.median(name) * 1e6, "us")
    for name in ("exact_match", "intent_f1", "slot_f1"):
        out[f"metrics.{name}_us"] = (s.median(f"metrics.{name}") / gen.N_PAIRS * 1e6, "us")
    out["cli.check_s"] = (s.median("cli.main.check"), "s")
    out["cli.eval_s"] = (s.median("cli.main.eval"), "s")
    out["spec.load_s"] = (s.median("spec.load_spec"), "s")
    out["spec.derive_s"] = (s.median("spec.derive_from_corpus"), "s")
    out["topconvert.convert_us"] = (s.median("topconvert.convert_example") * 1e6, "us")
    out["topconvert.spis_s"] = (s.median("topconvert.spis_sample"), "s")
    out["retrieval.embed_us"] = (s.median("retrieval.embed") * 1e6, "us")
    out["retrieval.build_index_s"] = (s.median("retrieval.build_index"), "s")
    rank = s.median("retrieval.retrieve_scored", minus_children="retrieval.embed")
    out["retrieval.rank_ms"] = (rank * 1e3, "ms")
    out["retrieval.prompt_us"] = (s.median("retrieval.build_prompt") * 1e6, "us")
    start, end, seconds = np.array(list(run.op_wall.values())).T
    wall = float((seconds * run.scale_between(start, end)).sum())
    for layer in spans.LAYERS:
        out[f"{layer}.self_share"] = (s.layer_self(layer) / wall, "share")
    untraced, traced = end_to_end(run, False), end_to_end(run, True)
    for name, value in untraced.items():
        out[f"trace_overhead.{name}"] = (traced[name] - value, E2E_UNITS[name])
    # Peak RSS needs a process of its own per side; the span buffer is what tracing adds.
    out["trace_overhead.span_buffer_mb"] = (tracer.buffer_bytes() / 2**20, "MB")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Seeded apicheck benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    api = import_apicheck()
    print(environment())
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    client = Client(tracer)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.workload == "score":
            run = run_score(api, args, work, client)
        elif args.workload == "srd-prompt":
            run = run_srd(api, args, work, client)
        else:
            run = run_decode(api, args, work, client, large=args.workload == "decode-32k")
    finally:
        if tracer is not None:
            tracer.disable()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    for note in run.notes:
        print(note)
    for problem in run.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    if tracer is None:
        values = end_to_end(run, False)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
    else:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        span_path = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write(span_path)
        print(f"# spans {len(tracer.start)} written to {span_path.relative_to(ROOT)}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer(run, tracer).items()}
    raw = run.latency[: run.n].reshape(-1, run.parts_per_op).sum(axis=1)
    print(f"# set-ups {run.builds} of {len(run.setup) // run.builds} phases, unscaled setup_s "
          f"{run.setup_seconds(False, scaled=False):.6g}; operations timed {len(raw)}, unscaled p50 "
          f"{np.median(raw) * 1e3:.6g} ms; reference loop p50 "
          f"{np.median(run.probes) * 1e3:.4g} ms over {len(run.probes)} probes; "
          f"attempted {run.attempted}, failed {run.failed}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
