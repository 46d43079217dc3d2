"""Output checks. Each returns a list of problems; an empty list means the output is right.

The retrieval oracle re-implements the documented hashed bag-of-words embedder
(lowercased ``[a-z0-9]+`` tokens, SHA-1 bucket, counts, L2 norm) over sparse
rows, so it shares no code with the library it checks.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np

EPS = 1e-12
TOKEN_RE = re.compile(r"[a-z0-9]+")
DIMENSION = 1024
DESCRIPTION = "Follow the examples below and generate API Calls from the users' utterances"


# -- decode ------------------------------------------------------------------------


def decode_emission(api, spec, text: str) -> list[str]:
    """A finished decode must meet all four constraints and be in canonical form."""
    problems = []
    bits = api.constraints.check(text, spec).signature.as_tuple()
    if bits != (1, 1, 1, 1):
        problems.append(f"constraint bits {bits} for {text!r}")
    else:
        round_trip = api.expr.serialize(api.expr.parse(text))
        if round_trip != text:
            problems.append(f"parse/serialize changed {text!r} to {round_trip!r}")
    return problems


def mask_pick(advance, rejected_error, state, ordered: list[int], rng) -> list[str]:
    """Every allowed token must be one ``advance`` accepts; check one drawn uniformly.

    ``ordered`` is the allowed set of an unfinished decode, sorted.
    """
    if not ordered:
        return ["empty allowed set before completion"]
    token = rng.choice(ordered)
    try:
        advance(state, token)
    except rejected_error as e:
        return [f"mask allows token {token}, which advance rejects: {e}"]
    return []


# -- score -------------------------------------------------------------------------


def score_outputs(check_out: str, eval_out: str, expected) -> list[str]:
    """Compare ``apicheck check``/``eval`` stdout with what the corruption labels imply."""
    sigs, summary, report = expected
    problems = []
    lines = check_out.splitlines()
    if len(lines) != len(sigs) + 4:
        return [f"check printed {len(lines)} lines, expected {len(sigs) + 4}"]
    for i, (line, sig) in enumerate(zip(lines, sigs)):
        if line[:7] != sig:
            problems.append(f"pair {i}: check printed {line!r}, expected bits {sig}")
    if "\n".join(lines[len(sigs) :]) != summary:
        problems.append(f"check summary {lines[len(sigs):]!r} != {summary!r}")
    if eval_out != report:
        problems.append(f"eval printed {eval_out!r}, expected {report!r}")
    return problems


# -- retrieval ---------------------------------------------------------------------


def _bucket(token: str) -> int:
    return int(hashlib.sha1(token.encode("utf-8")).hexdigest(), 16) % DIMENSION


def embed(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Sparse (indices, values) of the normalised hashed bag of words."""
    counts: dict[int, float] = {}
    for token in TOKEN_RE.findall(text.lower()):
        b = _bucket(token)
        counts[b] = counts.get(b, 0.0) + 1.0
    idx = np.array(sorted(counts), dtype=np.int64)
    val = np.array([counts[i] for i in idx], dtype=np.float64)
    norm = np.sqrt(np.sum(val * val))
    return idx, (val / norm if norm > 0 else val)


class Oracle:
    """Cosine ranking over a pool, computed from sparse rows with numpy."""

    def __init__(self, ids: list[str], utterances: list[str]):
        rows = [embed(u) for u in utterances]
        self.ids = np.array(ids)
        self.row = np.repeat(np.arange(len(rows)), [len(r[0]) for r in rows])
        self.col = np.concatenate([r[0] for r in rows])
        self.val = np.concatenate([r[1] for r in rows])
        self.norm = np.sqrt(np.bincount(self.row, weights=self.val**2, minlength=len(rows)))

    def similarities(self, query: str) -> np.ndarray:
        qi, qv = embed(query)
        q = np.zeros(DIMENSION)
        q[qi] = qv
        qn = np.sqrt(np.sum(qv * qv))
        dots = np.bincount(self.row, weights=self.val * q[self.col], minlength=len(self.norm))
        with np.errstate(invalid="ignore", divide="ignore"):
            sims = dots / (self.norm * qn)
        return np.where((self.norm == 0) | (qn == 0), 0.0, sims)


def ranking(result: list[tuple[str, float]], oracle: Oracle, query: str, k: int) -> list[str]:
    """Top-k ids and similarities must match the oracle to EPS.

    Similarities that agree to EPS may come out in either order, because the
    library and the oracle round differently; equal similarities must be in
    ascending id order.
    """
    if len(result) != min(k, len(oracle.ids)):
        return [f"got {len(result)} results, expected {k}"]
    sims = oracle.similarities(query)
    by_id = dict(zip(oracle.ids.tolist(), sims.tolist()))
    want_sims = sims[np.lexsort((oracle.ids, -sims))[:k]]
    problems = []
    for rank, ((got_id, got_sim), want_sim) in enumerate(zip(result, want_sims)):
        if abs(got_sim - want_sim) > EPS or abs(by_id.get(got_id, np.inf) - got_sim) > EPS:
            problems.append(f"rank {rank}: {got_id} sim {got_sim!r}, oracle {want_sim!r}")
    for (a_id, a_sim), (b_id, b_sim) in zip(result, result[1:]):
        if b_sim > a_sim + EPS or (a_sim == b_sim and b_id < a_id):
            problems.append(f"order {a_id} ({a_sim!r}) before {b_id} ({b_sim!r})")
    chosen = {i for i, _ in result}
    kth_id, kth_sim = result[-1]
    for other, sim in by_id.items():
        if other not in chosen and sim > kth_sim + EPS:
            problems.append(f"{other} (sim {sim!r}) should outrank {kth_id} ({kth_sim!r})")
            break
    return problems


def expected_prompt(demos: list[tuple[str, str]], query: str) -> str:
    """The documented prompt layout for (utterance, api_call) demos in rank order."""
    blocks = [
        f"Example {i}:\nUser: {u}\nAPI Call: {c}" for i, (u, c) in enumerate(demos, 1)
    ]
    return (
        f"#[TASK DESCRIPTION]\n{DESCRIPTION}\n\n"
        "#[IN-CONTEXT EXAMPLES]\n" + "\n\n".join(blocks) + "\n\n"
        f"#[TEST QUERY]\nExample {len(demos) + 1}:\nUser: {query}\nAPI Call:"
    )


def spis(pool_labels: list[set[str]], kept: list[int], n: int) -> list[str]:
    """SPIS output keeps pool order and covers each label min(n, its count) times."""
    if kept != sorted(set(kept)):
        return ["SPIS output is not in pool order or repeats an example"]
    have: dict[str, int] = {}
    total: dict[str, int] = {}
    for i, labels in enumerate(pool_labels):
        for label in labels:
            total[label] = total.get(label, 0) + 1
    for i in kept:
        for label in pool_labels[i]:
            have[label] = have.get(label, 0) + 1
    short = [lab for lab, c in total.items() if have.get(lab, 0) < min(n, c)]
    return [f"SPIS under-covers {sorted(short)[:5]}"] if short else []
