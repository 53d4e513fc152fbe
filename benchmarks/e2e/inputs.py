"""Seeded input generators.  The harness draws every token of every prompt
from ``--seed`` (the open-loop *schedule* — arrival times, tenant order,
lengths — is frozen, see ``shared_prefix_arrivals``) and hands the program
plain token arrays; the program never sees the seed.  Each lane records a
sha256 of what it generated so two runs can prove they measured the same
inputs."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def lane_rng(seed: int, lane: str) -> np.random.Generator:
    """One independent stream per (seed, lane), stable across runs."""
    return np.random.default_rng([seed, int.from_bytes(lane.encode(), "big") % (2**32)])


def digest(*parts) -> str:
    """sha256 over arrays / strings / numbers, in order."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            h.update(part.encode())
        else:
            array = np.ascontiguousarray(part)
            h.update(str(array.dtype).encode() + str(array.shape).encode())
            h.update(array.tobytes())
    return h.hexdigest()


def random_words(rng: np.random.Generator, num_words: int) -> str:
    """The paper's text input: a string of ``num_words`` random words."""
    lengths = rng.integers(2, 10, size=num_words)
    return " ".join(
        "".join(_LETTERS[i] for i in rng.integers(0, 26, size=int(length)))
        for length in lengths
    )


def token_prompt(rng: np.random.Generator, length: int, vocab: int) -> np.ndarray:
    return rng.integers(0, vocab, size=int(length), dtype=np.int64)


@dataclass(frozen=True)
class Arrival:
    """One open-loop request: when it is due and what it asks."""

    due: float  # seconds after the pass starts
    tenant: int
    prompt: np.ndarray


#: Seed of the frozen schedule every open-loop run replays (see below).
_ARRIVAL_SHAPE_SEED = 20240711


def shared_prefix_arrivals(
    rng: np.random.Generator,
    *,
    rate: float,
    count: int,
    tenant_weights: tuple[float, ...],
    prefixes: list[np.ndarray],
    unique_range: tuple[int, int],
    vocab: int,
) -> list[Arrival]:
    """``count`` Poisson arrivals at ``rate`` per second; each prompt opens
    with its tenant's shared prefix (``prefixes``, one per tenant) and ends
    with request-unique tokens.

    Open-loop latency is dominated by how arrivals bunch and which of them
    miss the cache, and one window holds only a few dozen requests: a fresh
    Poisson draw per seed moved the latency medians by 40-60% run to run, and
    even one fixed draw replayed from a seeded starting point left the TTFT
    median moving 6-14% (all measured).  The schedule is therefore frozen,
    like its rate: one fixed sample of exponential inter-arrival gaps (scaled
    to ``count / rate`` seconds), an exact tenant mix (``weights * count``,
    largest remainder) in one fixed shuffled order, and fixed unique-suffix
    lengths.  The seed draws every token of every prefix (by the caller) and
    suffix.
    """
    shape = np.random.default_rng(_ARRIVAL_SHAPE_SEED)
    gaps = shape.exponential(1.0, size=count)
    gaps *= (count / rate) / gaps.sum()
    shares = np.asarray(tenant_weights) * count
    quota = np.floor(shares).astype(int)
    for index in np.argsort(-(shares - quota))[: count - quota.sum()]:
        quota[index] += 1
    tenants = shape.permutation(np.repeat(np.arange(len(tenant_weights)), quota))
    lengths = shape.integers(unique_range[0], unique_range[1] + 1, size=count)
    arrivals = []
    for when, tenant, length in zip(np.cumsum(gaps), tenants, lengths):
        unique = token_prompt(rng, length, vocab)
        arrivals.append(Arrival(float(when), int(tenant), np.concatenate([prefixes[tenant], unique])))
    return arrivals
