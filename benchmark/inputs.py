"""Seeded inputs for the four benchmark workloads.

Every input is drawn from this module's own ``random.Random`` streams, keyed
by workload, seed and operation index, so the package's own generators (for
example ``search.random_resolvable``) never decide what another workload
sees.  Relabelled catalog designs are re-drawn until their concurrence
matrix differs from their source's and from every earlier input's, so no
operation can be served by a cache an earlier operation filled.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from rbdesign import ResolvableDesign, catalog_entry

V, K = 36, 6

WORKLOADS = ("exact", "iso", "search", "spectrum")

#: exact: catalog designs in a fixed order that cycles r = 2..8, so any
#: prefix of the schedule holds every replicate count
EXACT_CATALOG = (
    "gamma-2", "gamma-3", "gamma-4", "gamma-5", "gamma-6", "gamma-c-7", "gamma-rc-8",
    "delta-r-2", "delta-r-3", "delta-r-4", "delta-r-5", "delta-r-6", "delta-r-7", "theta-8",
    "gamma-rc-2", "gamma-rc-3", "theta-4", "gamma-rc-5", "gamma-rc-6", "gamma-rc-7", "delta-rc-8",
    "delta-c-2", "delta-c-3", "delta-c-4", "delta-c-5", "delta-c-6", "delta-c-7",
    "gamma-r-2", "gamma-r-3", "gamma-r-4", "gamma-r-5", "gamma-r-6", "gamma-r-7",
    "delta-2", "delta-3", "delta-4", "delta-5", "delta-6", "delta-rc-7",
    "gamma-c-2", "gamma-c-3", "gamma-c-4", "gamma-c-5", "gamma-c-6", "delta-rc-6",
    "delta-rc-2", "delta-rc-3", "delta-rc-4", "delta-rc-5", "gamma-rc-4",
)

#: iso: the R/C variant pairs, delta-r-3..5 among them, and the three
#: Sylvester designs, in three rounds of nine with a like cost: one
#: Sylvester design, two of the costly delta-3..5 labelings, cheaper ones
ISO_SOURCES = (
    "gamma-rc-8", "delta-r-3", "gamma-r-2", "gamma-c-3", "delta-r-4", "delta-c-2", "gamma-r-6", "gamma-r-5", "delta-r-7",
    "theta-8", "delta-c-3", "delta-r-2", "gamma-r-4", "delta-c-4", "gamma-c-4", "gamma-c-6", "gamma-c-5", "delta-c-7",
    "delta-rc-8", "delta-r-5", "gamma-r-3", "delta-r-6", "delta-c-5", "gamma-c-2", "delta-c-6", "gamma-r-7", "gamma-c-7",
)

#: search: replicate counts of successive anneal calls; two r=4 calls per
#: r=8 call keep the median latency inside the r=4 cluster
SEARCH_R = (4, 4, 8)

#: spectrum: replicate counts of successive unstructured designs
SPECTRUM_R = (4, 8)

#: operations per round: a timed pass stops only after a whole round, so
#: every pass holds the same mix of replicate counts
ROUND = {"exact": 1, "iso": 9, "search": len(SEARCH_R), "spectrum": len(SPECTRUM_R)}


@dataclass(frozen=True)
class Input:
    """One operation's input: a design and where it came from."""

    index: int
    r: int
    source: str  # catalog name, "random", or "anneal"
    design: ResolvableDesign | None = None  # None for search inputs
    search_seed: int | None = None  # search inputs only


def concurrence_bytes(design: ResolvableDesign) -> bytes:
    """The concurrence matrix as int64 bytes, computed without the package."""
    lam = np.zeros((design.v, design.v), dtype=np.int64)
    for rep in design.replicates:
        for block in rep:
            idx = np.asarray(block) - 1
            lam[np.ix_(idx, idx)] += 1
    return lam.tobytes()


def random_design(r: int, rng: random.Random) -> ResolvableDesign:
    """Uniformly random resolvable design: each replicate partitions 1..v."""
    reps = []
    for _ in range(r):
        perm = list(range(1, V + 1))
        rng.shuffle(perm)
        reps.append([perm[i * K:(i + 1) * K] for i in range(V // K)])
    return ResolvableDesign.from_replicates(reps, v=V, k=K, label="random")


def relabel(design: ResolvableDesign, rng: random.Random, seen: set[bytes]) -> ResolvableDesign:
    """A random variety relabelling whose concurrence bytes are not in seen."""
    while True:
        perm = list(range(1, design.v + 1))
        rng.shuffle(perm)
        out = design.relabel(perm)
        key = concurrence_bytes(out)
        if key not in seen:
            seen.add(key)
            return out


def generate(workload: str, seed: int) -> Iterator[Input]:
    """Endless, deterministic input stream for one workload and seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    seen: set[bytes] = set()
    if workload in ("exact", "iso"):
        names = EXACT_CATALOG if workload == "exact" else ISO_SOURCES
        seen.update(concurrence_bytes(catalog_entry(n).design) for n in names)
    index = 0
    catalog_index = 0
    while True:
        rng = random.Random(f"{workload}:{seed}:{index}")
        if workload == "exact" and index % 3 == 2:
            r = 2 + (index // 3) % 7
            yield Input(index, r, "random", random_design(r, rng))
        elif workload in ("exact", "iso"):
            name = names[catalog_index % len(names)]
            catalog_index += 1
            design = relabel(catalog_entry(name).design, rng, seen)
            yield Input(index, design.r, name, design)
        elif workload == "search":
            r = SEARCH_R[index % len(SEARCH_R)]
            yield Input(index, r, "anneal", search_seed=rng.randrange(2**32))
        else:
            r = SPECTRUM_R[index % len(SPECTRUM_R)]
            yield Input(index, r, "random", random_design(r, rng))
        index += 1
