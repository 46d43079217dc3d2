"""Semantic retrieval of demonstrations and in-context prompt assembly.

The default embedder is a deterministic hashed bag-of-words (lowercased,
punctuation-split tokens, fixed dimension) so cosine ranking is fully
reproducible without any neural model. Precomputed vectors can be ingested
from an embeddings file keyed by example id for offline parity with a dense
retriever. Embedders give unit vectors, a pool's in one ``embed_pool`` call and
a query's through ``embed``; the index and the ranking use them as they are.
"""

from __future__ import annotations

import hashlib
import itertools
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Protocol

import numpy as np

from .topconvert import Example

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_MAX_CACHED_TOKENS = 1 << 14  # distinct words whose bucket one HashedBowEmbedder keeps
PoolRows = tuple[np.ndarray, np.ndarray, np.ndarray] | np.ndarray  # see Embedder.embed_pool


class Embedder(Protocol):
    """Embeds a query (``embed``) or a whole pool (``embed_pool``) as unit
    vectors, a zero vector left zero.

    ``embed_pool(keys)`` gives the rows ``embed(k)`` for each key either as
    nonzeros (row, dimension, value), ordered by row and then by dimension, or
    as a column-major (P, D) matrix. The embedder picks which; the choice
    affects speed only. A key is an example's id if ``keyed_by_id``, else its
    utterance."""

    dimension: int
    keyed_by_id: bool

    def embed(self, text: str) -> np.ndarray: ...

    def embed_pool(self, keys: list[str]) -> PoolRows: ...


class EmbeddingLookupError(ValueError):
    """Missing id in a precomputed embeddings table."""


class HashedBowEmbedder:
    """Hashed bag-of-words embedder; same text always maps to the same vector.

    Each lowercased word adds 1 to the bucket its SHA-1 picks, and the counts
    are scaled to unit length. ``embed`` (one text, a query) and
    ``embed_pool`` (a whole pool, in one batch) take the buckets from the
    same ``_bucket_ids``, so a text gets one vector."""

    keyed_by_id = False

    def __init__(self, dimension: int = 1024):
        if dimension < 1:
            raise ValueError(f"embedding dimension must be >= 1, got {dimension}")
        self.dimension = dimension
        self._buckets: dict[str, int] = {}

    def _bucket_ids(self, text: str) -> list[int]:
        """The bucket of each word of ``text``, in order, repeats included."""
        cached, miss = self._buckets.get, self._hash
        words = _TOKEN_RE.findall(text.lower())
        return [b if (b := cached(w)) is not None else miss(w) for w in words]

    def _hash(self, token: str) -> int:
        bucket = int(hashlib.sha1(token.encode("utf-8")).hexdigest(), 16) % self.dimension
        # A pool repeats its words, so each is hashed once, up to a bound that
        # keeps an open vocabulary from growing the table without end.
        if len(self._buckets) < _MAX_CACHED_TOKENS:
            self._buckets[token] = bucket
        return bucket

    def embed(self, text: str) -> np.ndarray:
        vec = np.bincount(self._bucket_ids(text), minlength=self.dimension).astype(np.float64)
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        return vec

    def embed_pool(self, texts: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzeros of ``embed(t)`` for each ``t`` in ``texts``, as three
        arrays (row, dimension, value), ordered by row and then by dimension.

        The counts' sums of squares are whole numbers, exact in any order, so
        each row's length, and with it each value, is bitwise embed's."""
        ids = [self._bucket_ids(t) for t in texts]
        lengths = [len(row) for row in ids]
        keys = np.fromiter(itertools.chain.from_iterable(ids), np.int64, sum(lengths))
        keys += np.repeat(np.arange(len(texts), dtype=np.int64) * self.dimension, lengths)
        keys, counts = np.unique(keys, return_counts=True)
        rows, cols = np.divmod(keys, self.dimension)
        counts = counts.astype(np.float64)
        norms = np.sqrt(np.bincount(rows, counts * counts, minlength=len(texts)))
        return rows, cols, counts / norms[rows]


class PrecomputedEmbedder:
    """Vectors keyed by example id; embed() treats its input as an id."""

    keyed_by_id = True

    def __init__(self, vectors: Mapping[str, np.ndarray]):
        if not vectors:
            raise ValueError("precomputed embedder needs at least one vector")
        self.vectors = {k: np.asarray(v, dtype=np.float64) for k, v in vectors.items()}
        for key, v in self.vectors.items():
            if v.ndim != 1:
                raise ValueError(f"vector {key!r} must be 1-D, got shape {v.shape}")
            if not np.isfinite(v).all():
                raise ValueError(f"vector {key!r} has a non-finite component")
        dims = {len(v) for v in self.vectors.values()}
        if len(dims) != 1:
            raise ValueError(f"inconsistent vector dimensions: {sorted(dims)}")
        dimension = dims.pop()
        if dimension < 1:
            raise ValueError(f"embedding dimension must be >= 1, got {dimension}")
        self.dimension = dimension

    def embed(self, key: str) -> np.ndarray:
        """The vector of id ``key`` divided by its length; a zero vector as it is."""
        if key not in self.vectors:
            raise EmbeddingLookupError(f"no precomputed vector for id {key!r}")
        vec = self.vectors[key]
        norm = np.linalg.norm(vec)
        return vec / norm if norm > 0 else vec

    def embed_pool(self, keys: list[str]) -> PoolRows:
        """Each vector (a missing id raises as in ``embed``) divided by its
        length, as ``embed`` divides it: as the column-major (P, D) matrix if
        at least one stored entry in eight is nonzero, else as nonzeros."""
        vectors = [self.vectors[k] if k in self.vectors else self.embed(k) for k in keys]
        n, dim = len(vectors), self.dimension
        norms = [np.linalg.norm(v) for v in vectors]
        if any(8 * c >= n * dim for c in itertools.accumulate(map(np.count_nonzero, vectors))):
            matrix = np.empty((n, dim), order="F")
            for row, vec, norm in zip(matrix, vectors, norms):
                np.divide(vec, norm if norm > 0 else 1.0, out=row)
            return matrix
        units = [vec / norm if norm > 0 else vec for vec, norm in zip(vectors, norms)]
        cols = [np.flatnonzero(unit) for unit in units]
        rows = np.repeat(np.arange(n), [len(c) for c in cols])
        return rows, np.concatenate(cols), np.concatenate([u[c] for u, c in zip(units, cols)])


def load_embeddings(path: str | Path) -> dict[str, np.ndarray]:
    """Read ``id<TAB>v1,v2,...,vD`` line records, one per id, all of the first one's length."""
    out: dict[str, np.ndarray] = {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise ValueError(f"{path}:{lineno}: expected id<TAB>values")
            key, _, values = line.partition("\t")
            if key in out:
                raise ValueError(f"{path}:{lineno}: duplicate id {key!r}")
            try:
                vec = np.array([float(x) for x in values.split(",")], dtype=np.float64)
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: bad vector component") from e
            if not np.isfinite(vec).all():
                raise ValueError(f"{path}:{lineno}: bad vector component")
            if out and len(vec) != dim:
                raise ValueError(
                    f"{path}:{lineno}: vector length {len(vec)}, the first vector's is {dim}")
            dim = len(vec)
            out[key] = vec
    if not out:
        raise ValueError(f"{path}: no vectors")
    return out


def save_embeddings(vectors: Mapping[str, np.ndarray], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(vectors):
            fh.write(key + "\t" + ",".join(repr(float(x)) for x in vectors[key]) + "\n")


@dataclass(frozen=True)
class DemoIndex:
    """The pool's unit rows, in the order of ``examples``, in the layout
    ``embed_pool`` gave: the column-major (P, D) ``matrix``, or one posting
    list per dimension, ``rows[d]`` the ascending numbers of the rows nonzero
    in dimension ``d`` and ``values[d]`` their values in it. The other
    layout's fields are None."""

    examples: tuple[Example, ...]
    rows: tuple[np.ndarray, ...] | None
    values: tuple[np.ndarray, ...] | None
    matrix: np.ndarray | None
    embedder: Embedder


def build_index(examples: list[Example], embedder: Embedder) -> DemoIndex:
    """Embed the pool with one ``embedder.embed_pool`` call and lay it out."""
    if not examples:
        raise ValueError("cannot build an index over zero examples")
    pool = embedder.embed_pool([ex.id if embedder.keyed_by_id else ex.utterance for ex in examples])
    if isinstance(pool, np.ndarray):
        return DemoIndex(tuple(examples), None, None, pool, embedder)
    # Sorting the nonzeros by dimension, stably, keeps each list's rows ascending.
    rows, cols, values = pool
    order = np.argsort(cols, kind="stable")
    rows, values = rows[order], values[order]
    bounds = [0, *np.cumsum(np.bincount(cols, minlength=embedder.dimension)).tolist()]
    spans = list(zip(bounds, bounds[1:]))
    return DemoIndex(
        tuple(examples),
        tuple(rows[a:b] for a, b in spans),
        tuple(values[a:b] for a, b in spans),
        None,
        embedder,
    )


def retrieve_scored(index: DemoIndex, utterance: str, k: int) -> list[tuple[Example, float]]:
    """Top-k entries by cosine similarity, most similar first: the dot
    product of each unit row with the query's ``embed``.

    Similarities that are equal after rounding to 12 decimals are ties, and
    ties go by ascending id; the similarities returned are not rounded. A zero
    vector, in the pool or as the query, has similarity 0 with everything.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    unit = index.embedder.embed(utterance)
    rows, values = index.rows, index.values
    if index.matrix is not None:
        sims = index.matrix @ unit
    elif len(cols := np.flatnonzero(unit)):
        picked = cols.tolist()
        hits = np.concatenate([rows[col] for col in picked])
        products = np.concatenate([values[col] * w for col, w in zip(picked, unit[cols].tolist())])
        # bincount adds the products in the order given, so each row sums its
        # dimensions in ascending order; when no row is hit, it returns
        # integer zeros.
        sims = np.bincount(hits, products, minlength=len(index.examples)).astype(
            np.float64, copy=False
        )
    else:
        sims = np.zeros(len(index.examples))
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
