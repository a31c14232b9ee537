"""Seeded input generators for the three workloads.

Every generator is a pure function of its arguments: the same seed gives
the same inputs, and each workload draws from its own stream so that
changing one workload never shifts another's inputs. Cell names are
passed in, so nothing here imports the program.
"""

from __future__ import annotations

import functools
import itertools
import math
import random

#: The sign-off request of ``cold_corners`` and the base scenario of
#: the what-ifs: a 16,384-cell, 1 x 1 mm die.
N_CELLS = 16_384
DIE_MM = 1.0
#: Default estimate-tier capacity of ``repro serve`` (``--cache-entries``).
ESTIMATE_CACHE_ENTRIES = 256
#: Distinct population requests of ``warm_mix`` (two corners x geometries).
POPULATION = 1_000
#: Block-level designs run the O(n) linear transform (``method="auto"``
#: picks it up to 250,000 sites); full-chip designs run the O(1)
#: integral. A tenth of the population is full-chip.
BLOCK_CELLS = (4_000, 250_000)
CHIP_CELLS = (260_000, 10_000_000)
CHIP_SHARE = 0.1
#: Mild enough that one run touches more distinct estimate keys than the
#: cache holds, so the estimate tier evicts (see perfbench/README.md).
ZIPF_EXPONENT = 1.0
#: Request kinds of ``warm_mix`` and their share of the traffic.
MIX = (("population", 75), ("whatif", 20), ("sweep", 3), ("fresh", 2))
SWEEP_POINTS = 16
HEAVY_PROBES = 4
#: Largest share of the cells one what-if swap moves.
EDIT_FRACTION_MAX = 0.01


def _rng(workload: str, seed: int, stream: str = "") -> random.Random:
    return random.Random(f"{workload}:{stream}:{seed}")


#: Ranges of the process corners of ``cold_corners``.
CORNER_RANGES = {"sigma_l": (0.03, 0.07), "temperature_c": (25.0, 100.0),
                 "corr_length_mm": (0.2, 1.5), "d2d_fraction": (0.2, 0.8)}
#: Corners are drawn in Latin-hypercube blocks of this size, so the few
#: corners one run completes cover every range evenly (characterization
#: cost depends on the corner, temperature most).
CORNER_BLOCK = 6


def near_nominal_corner(rng: random.Random) -> dict:
    """A corner within a few percent of the nominal process, where a
    serving fleet sees most of its traffic. The cost of the O(1)
    integral varies several-fold across the full corner range, so the
    warm corners stay near nominal to keep that cost alike across seeds."""
    return {"sigma_l": round(rng.uniform(0.045, 0.055), 6),
            "temperature_c": round(rng.uniform(40.0, 80.0), 4),
            "corr_length_mm": round(rng.uniform(0.45, 0.55), 6),
            "d2d_fraction": round(rng.uniform(0.45, 0.55), 6)}


def corner_request(technology: dict, method: str = "linear",
                   usage=None) -> dict:
    """The full-library sign-off request at one corner."""
    request = {"n_cells": N_CELLS, "width_mm": DIE_MM, "height_mm": DIE_MM,
               "method": method, "technology": dict(technology)}
    if usage is not None:
        request["usage"] = usage
    return request


def cold_corners(seed: int, count: int) -> list:
    """``count`` distinct corners in the order the clients take them."""
    rng = _rng("cold_corners", seed)
    corners, seen = [], set()
    while len(corners) < count:
        columns = {}
        for name, (low, high) in CORNER_RANGES.items():
            strata = [(i + rng.random()) / CORNER_BLOCK
                      for i in range(CORNER_BLOCK)]
            rng.shuffle(strata)
            columns[name] = [round(low + u * (high - low), 6)
                             for u in strata]
        for i in range(CORNER_BLOCK):
            corner = {name: values[i] for name, values in columns.items()}
            key = tuple(sorted(corner.items()))
            if key not in seen and len(corners) < count:
                seen.add(key)
                corners.append(corner)
    return corners


def usage_mix(rng: random.Random, names) -> dict:
    """A full-library usage histogram (every cell used)."""
    weights = [rng.uniform(0.5, 1.5) for _ in names]
    total = sum(weights)
    return {name: weight / total for name, weight in zip(names, weights)}


def swap_edit(rng: random.Random, names) -> dict:
    """A cell swap moving at most ``EDIT_FRACTION_MAX`` of the cells."""
    source, target = rng.sample(list(names), 2)
    return {"type": "cell_swap", "from_cell": source, "to_cell": target,
            "fraction": round(rng.uniform(0.001, EDIT_FRACTION_MAX), 6)}


class WarmMix:
    """Inputs of ``warm_mix``: two corners, the Zipf-ranked population,
    the what-if bases, and a generator of the request stream."""

    def __init__(self, seed: int, names) -> None:
        self.names = tuple(names)
        rng = _rng("warm_mix", seed, "setup")
        self.corners = [near_nominal_corner(rng) for _ in range(2)]
        self.bases = [corner_request(corner) for corner in self.corners]
        #: One what-if per base in set-up builds the server's base snapshot.
        self.prewarm_edits = [swap_edit(rng, self.names) for _ in self.bases]
        self.population = self._population(rng)
        #: Fresh usage mixes (an RG build each), each answered alone on the
        #: drained server between two rungs.
        self.heavy_probes = [corner_request(self.corners[i % 2],
                                            usage=usage_mix(rng, self.names))
                             for i in range(HEAVY_PROBES)]
        #: Block designs and chips, each in its own seeded Zipf rank order.
        self.ranked = {}
        for size, members in (
                ("chip", [b for b in self.population
                          if b["n_cells"] > BLOCK_CELLS[1]]),
                ("block", [b for b in self.population
                           if b["n_cells"] <= BLOCK_CELLS[1]])):
            rng.shuffle(members)
            self.ranked[size] = members
        self._stream = _rng("warm_mix", seed, "stream")
        self._decks = {}

    def _population(self, rng: random.Random) -> list:
        """Cell counts stratified log-uniformly within the block and chip
        ranges, at the base density with seeded aspect ratios; every
        geometry is requested at both corners under ``method="auto"``."""
        per_corner = POPULATION // len(self.corners)
        chips = int(round(CHIP_SHARE * per_corner))
        strata = ([(BLOCK_CELLS, i, per_corner - chips)
                   for i in range(per_corner - chips)]
                  + [(CHIP_CELLS, i, chips) for i in range(chips)])
        population = []
        for cells, index, count in strata:
            die = self._die(rng, cells, (index + rng.random()) / count)
            for corner in self.corners:
                population.append(dict(die, method="auto",
                                       technology=dict(corner)))
        return population

    @staticmethod
    def _die(rng: random.Random, cells, fraction: float) -> dict:
        """A die at ``fraction`` of the log range ``cells``, at the base
        cell density with a seeded aspect ratio."""
        low, high = math.log(cells[0]), math.log(cells[1])
        n_cells = int(round(math.exp(low + fraction * (high - low))))
        aspect = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
        area = n_cells * DIE_MM * DIE_MM / N_CELLS
        width = round(math.sqrt(area * aspect), 6)
        return {"n_cells": n_cells, "width_mm": width,
                "height_mm": round(area / width, 6)}

    def _deal(self, name: str, shares) -> str:
        """Deal from a shuffled deck holding each entry ``share`` times,
        so every stretch of the stream holds the shares closely."""
        deck = self._decks.get(name)
        if not deck:
            deck = self._decks[name] = [entry for entry, share in shares
                                        for _ in range(share)]
            self._stream.shuffle(deck)
        return deck.pop()

    def next_request(self):
        """``(kind, path, body)`` of the next request in the stream.
        Population draws deal block or chip first (chips are the costly
        misses, so their count per run stays fixed), then a Zipf rank
        within that size."""
        rng = self._stream
        kind = self._deal("kind", MIX)
        if kind == "population":
            chips = round(10 * CHIP_SHARE)
            members = self.ranked[self._deal(
                "size", (("block", 10 - chips), ("chip", chips)))]
            rank = rng.choices(range(len(members)),
                               cum_weights=_zipf_cumulative(len(members)))[0]
            return kind, "/v1/estimate", dict(members[rank])
        if kind == "whatif":
            base = rng.randrange(len(self.bases))
            return kind, base, swap_edit(rng, self.names)
        corner = rng.choice(self.corners)
        if kind == "sweep":
            cells = sorted({int(round(math.exp(rng.uniform(
                math.log(4_096), math.log(65_536)))))
                for _ in range(SWEEP_POINTS * 2)})
            cells = sorted(rng.sample(cells, SWEEP_POINTS))
            return kind, "/v1/sweep", {
                "base": corner_request(corner),
                "axes": [{"name": "n_cells", "values": cells}]}
        return kind, "/v1/estimate", corner_request(
            corner, usage=usage_mix(rng, self.names))


@functools.lru_cache(maxsize=None)
def _zipf_cumulative(count: int) -> list:
    return list(itertools.accumulate(
        1.0 / (k + 1) ** ZIPF_EXPONENT for k in range(count)))


def arrivals(seed: int, ladder) -> list:
    """Poisson arrival offsets per ladder rung: ``ladder`` is a list of
    ``(rate_per_s, seconds)``; returns one list of offsets per rung."""
    rng = _rng("warm_mix", seed, "arrivals")
    rungs = []
    for rate, seconds in ladder:
        offsets, t = [], rng.expovariate(rate)
        while t < seconds:
            offsets.append(t)
            t += rng.expovariate(rate)
        rungs.append(offsets)
    return rungs


def check_sample(workload: str, seed: int, population: int,
                 count: int) -> list:
    """Seeded choice of which results the correctness checks redo."""
    rng = _rng(workload, seed, "checks")
    return sorted(rng.sample(range(population), min(count, population)))


class DesignSpace:
    """Inputs of ``design_space``: per round, fresh usage mixes, ECO
    edits and the correlation lengths of the sweep."""

    N_LENGTHS = 20
    N_MIXES = 5
    N_EDITS = 20
    N_EXACT = 3
    EXACT_CELLS = 1_000_000
    EXACT_DIE_MM = 8.0
    THERMAL_CELLS = ("INV_X1", "NAND2_X1")

    def __init__(self, seed: int, names) -> None:
        self.names = tuple(names)
        self._rng = _rng("design_space", seed)

    def lengths_mm(self) -> list:
        return [0.2 + 1.3 * i / (self.N_LENGTHS - 1)
                for i in range(self.N_LENGTHS)]

    def round_inputs(self) -> dict:
        rng = self._rng
        return {"mixes": [usage_mix(rng, self.names)
                          for _ in range(self.N_MIXES)],
                "edits": [swap_edit(rng, self.names)
                          for _ in range(self.N_EDITS)],
                "exact_mixes": [usage_mix(rng, self.names)
                                for _ in range(self.N_EXACT)]}

