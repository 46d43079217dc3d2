"""Semantic retrieval of demonstrations and in-context prompt assembly.

The default embedder is a deterministic hashed bag-of-words (lowercased,
punctuation-split tokens, fixed dimension, L2-normalized) so cosine ranking
is fully reproducible without any neural model. Precomputed vectors can be
ingested from an embeddings file keyed by example id for offline parity with
a dense retriever.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Protocol

import numpy as np

from .topconvert import Example

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_MAX_CACHED_TOKENS = 1 << 14  # distinct words whose bucket one HashedBowEmbedder keeps


class Embedder(Protocol):
    dimension: int
    keyed_by_id: bool

    def embed(self, text: str) -> np.ndarray: ...


class EmbeddingLookupError(ValueError):
    """Missing id in a precomputed embeddings table."""


class HashedBowEmbedder:
    """Hashed bag-of-words embedder; same text always maps to the same vector."""

    keyed_by_id = False

    def __init__(self, dimension: int = 1024):
        self.dimension = dimension
        self._buckets: dict[str, int] = {}

    def _index(self, token: str) -> int:
        bucket = self._buckets.get(token)
        if bucket is None:
            digest = hashlib.sha1(token.encode("utf-8")).hexdigest()
            bucket = int(digest, 16) % self.dimension
            # A pool repeats its words, so each is hashed once, up to a bound
            # that keeps an open vocabulary from growing the table without end.
            if len(self._buckets) < _MAX_CACHED_TOKENS:
                self._buckets[token] = bucket
        return bucket

    def embed(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dimension, dtype=np.float64)
        for token in _TOKEN_RE.findall(text.lower()):
            vec[self._index(token)] += 1.0
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        return vec


class PrecomputedEmbedder:
    """Vectors keyed by example id; embed() treats its input as an id."""

    keyed_by_id = True

    def __init__(self, vectors: Mapping[str, np.ndarray]):
        if not vectors:
            raise ValueError("precomputed embedder needs at least one vector")
        dims = {len(v) for v in vectors.values()}
        if len(dims) != 1:
            raise ValueError(f"inconsistent vector dimensions: {sorted(dims)}")
        self.vectors = {k: np.asarray(v, dtype=np.float64) for k, v in vectors.items()}
        self.dimension = dims.pop()

    def embed(self, key: str) -> np.ndarray:
        try:
            return self.vectors[key]
        except KeyError:
            raise EmbeddingLookupError(f"no precomputed vector for id {key!r}") from None


def load_embeddings(path: str | Path) -> dict[str, np.ndarray]:
    """Read ``id<TAB>v1,v2,...,vD`` line records."""
    out: dict[str, np.ndarray] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise ValueError(f"{path}:{lineno}: expected id<TAB>values")
            key, _, values = line.partition("\t")
            try:
                vec = np.array([float(x) for x in values.split(",")], dtype=np.float64)
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: bad vector component") from e
            if not np.isfinite(vec).all():
                raise ValueError(f"{path}:{lineno}: bad vector component")
            out[key] = vec
    return out


def save_embeddings(vectors: Mapping[str, np.ndarray], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(vectors):
            fh.write(key + "\t" + ",".join(repr(float(x)) for x in vectors[key]) + "\n")


@dataclass(frozen=True)
class DemoIndex:
    """The pool's embeddings as the rows of one (P, D) matrix, scaled to unit
    length (a zero vector stays zero), in the order of ``examples``.

    The matrix is column-major, so the pool's values in one dimension are
    contiguous and a sparse query reads only the columns it is nonzero in."""

    examples: tuple[Example, ...]
    vectors: np.ndarray
    embedder: Embedder


def build_index(examples: list[Example], embedder: Embedder) -> DemoIndex:
    if not examples:
        raise ValueError("cannot build an index over zero examples")
    # Filled row by row: stacking a list of rows, or normalising the whole matrix
    # at once, would briefly hold a second copy of the pool. A row is strided in
    # this column-major matrix, so a dense pool fills slower (80 against 49 ms at
    # 5,000 x 1,024); staging rows in a row-major block won back only part of that
    # (64 ms), and only with a buffer of 128 rows.
    vectors = np.empty((len(examples), embedder.dimension), dtype=np.float64, order="F")
    for row, ex in zip(vectors, examples):
        vec = embedder.embed(ex.id if embedder.keyed_by_id else ex.utterance)
        if len(vec) != embedder.dimension:
            raise ValueError(
                f"embedder dimension mismatch: {len(vec)} != {embedder.dimension}"
            )
        norm = np.linalg.norm(vec)
        row[:] = vec / norm if norm > 0 else vec
    return DemoIndex(tuple(examples), vectors, embedder)


def retrieve_scored(index: DemoIndex, utterance: str, k: int) -> list[tuple[Example, float]]:
    """Top-k entries by cosine similarity, most similar first.

    Similarities that are equal after rounding to 12 decimals are ties, and
    ties go by ascending id; the similarities returned are not rounded. A zero
    vector, in the pool or as the query, has similarity 0 with everything.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    query = index.embedder.embed(utterance)
    norm = np.linalg.norm(query)
    unit = query / norm if norm > 0 else query
    cols = np.flatnonzero(unit)
    if 8 * len(cols) < len(unit):
        # A sparse query (a hashed bag of words has a handful of nonzeros) reads
        # only its own columns, one at a time: gathering them into one (P, n)
        # copy first raised srd-prompt's peak memory by the largest copy. Per
        # column this costs more than the whole product: on a 5,000 x 1,024
        # index, 64, 128 and 192 columns took 0.42-0.54, 0.98-1.09 and
        # 1.27-1.68 ms against 1.1-1.6 ms, so denser queries take the product.
        sims = np.zeros(len(index.vectors))
        for col in cols:
            sims += index.vectors[:, col] * unit[col]
    else:
        sims = index.vectors @ unit
    rounded = np.round(sims, 12)
    candidates = range(len(sims))
    if k < len(sims):
        # Every entry that rounds at least as high as the k-th best, ties included.
        kth = np.partition(rounded, len(sims) - k)[len(sims) - k]
        candidates = np.flatnonzero(rounded >= kth).tolist()
    examples = index.examples
    best = sorted(candidates, key=lambda i: (-rounded[i], examples[i].id))[:k]
    return [(examples[i], float(sims[i])) for i in best]


def retrieve(index: DemoIndex, utterance: str, k: int) -> list[Example]:
    return [ex for ex, _sim in retrieve_scored(index, utterance, k)]


def build_prompt(description: str, demos: list[Example], test_utterance: str) -> str:
    """Assemble the in-context learning prompt; layout is byte-stable.

    Demos are numbered ``Example 1..N`` in the order given (callers pass
    most-similar first); the test query is ``Example N+1`` and the prompt
    ends immediately after the final ``API Call:`` with no trailing output.
    """
    sections = [f"#[TASK DESCRIPTION]\n{description}"]
    if demos:
        blocks = []
        for i, demo in enumerate(demos, 1):
            if demo.api_call is None:
                raise ValueError(f"demo {demo.id!r} has no api_call")
            blocks.append(f"Example {i}:\nUser: {demo.utterance}\nAPI Call: {demo.api_call}")
        sections.append("#[IN-CONTEXT EXAMPLES]\n" + "\n\n".join(blocks))
    sections.append(
        f"#[TEST QUERY]\nExample {len(demos) + 1}:\nUser: {test_utterance}\nAPI Call:"
    )
    return "\n\n".join(sections)
