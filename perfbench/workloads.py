"""Job pools of the heattrace benchmark and the seeded schedule that draws from them.

A workload is a list of slots.  Each slot has a pool of CLI jobs and a number
of jobs it contributes to every round (one "workload run").  A block is the
smallest number of rounds in which every pool entry runs equally often: the
seed shuffles each pool into the rounds of a block and shuffles the job order
inside each round.  The program only ever sees the generated argv.

Balancing the picks over a block keeps the work of a block the same for every
seed, so seeds change the order and pairing of jobs but not the total work.
Why each workload exists, and what it should show, is in NOTES.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Entry:
    """One CLI job: its arguments (without ``--no-timestamp``) and time budget."""

    args: tuple[str, ...]
    budget_s: float

    @property
    def id(self) -> str:
        return " ".join(self.args)


@dataclass(frozen=True)
class Slot:
    name: str
    pool: tuple[Entry, ...]
    per_round: int = 1


def _entries(budget_s: float, *argvs: tuple[str, ...]) -> tuple[Entry, ...]:
    return tuple(Entry(argv, budget_s) for argv in argvs)


_RANK1 = ("cp:3", "hp:2", "op2")
_SHORT_FAMILIES = (
    [f"hyperbolic-odd:{m}" for m in range(1, 6)]
    + ["e6-f4", "su-star:3"]
    + [f"complex-group:{g}" for g in
       ("A2", "A3", "B2", "B3", "B4", "B5", "C2", "C3", "C4", "C5", "D3", "D4", "D5")]
)

WORKLOADS: dict[str, tuple[Slot, ...]] = {
    "rank1-deep": (
        Slot("product", _entries(
            30, *(("coeffs", "--space", f"product(cp:2, dual(sphere:{m}))", "--n-max", "300")
                  for m in (1, 2, 3)))),
        Slot("csv", _entries(
            30, *(("coeffs", "--space", x, "--n-max", "300", "--format", "csv") for x in _RANK1))),
        Slot("growth", _entries(
            30, *(("growth", "--space", x, "--n-max", "300") for x in _RANK1))),
    ),
    "plancherel-algebra": (
        Slot("short", _entries(10, *(("closed-form", "--family", f) for f in _SHORT_FAMILIES)),
             per_round=10),
        Slot("cliff", _entries(30, ("closed-form", "--family", "su-star:4"))),
        Slot("mixed-product", _entries(
            20, ("coeffs", "--space", "product(su-star:3, e6-f4, dual(hyperbolic-odd:4))",
                 "--n-max", "300"))),
        Slot("vanishing", _entries(
            10, ("coeffs", "--space", "product(hyperbolic-odd:1, dual(hyperbolic-odd:1))",
                 "--n-max", "300"))),
    ),
    "oracle-fit": (
        Slot("fill", _entries(
            20, *(("coeffs", "--space", f"sphere:{m}", "--n-max", "20", "--oracle-fill")
                  for m in (3, 4, 5))),
             per_round=3),
        Slot("verify", _entries(40, ("verify", "--suite", "unit-s3-chain"))),
    ),
}


def rounds_per_block(slots: tuple[Slot, ...]) -> int:
    """Rounds in which every slot's pool entries run equally often."""
    rounds = max(len(s.pool) // s.per_round for s in slots)
    for s in slots:
        if len(s.pool) % s.per_round or (rounds * s.per_round) % len(s.pool):
            raise ValueError(f"slot {s.name!r} does not divide into {rounds} rounds")
    return rounds


def block(slots: tuple[Slot, ...], rng: random.Random) -> list[list[Entry]]:
    """One block: a list of rounds, each a list of jobs in run order."""
    k = rounds_per_block(slots)
    rounds: list[list[Entry]] = [[] for _ in range(k)]
    for s in slots:
        seq: list[Entry] = []
        for _ in range(k * s.per_round // len(s.pool)):
            seq += rng.sample(s.pool, len(s.pool))
        for r in range(k):
            rounds[r] += seq[r * s.per_round:(r + 1) * s.per_round]
    for jobs in rounds:
        rng.shuffle(jobs)
    return rounds


def all_entries() -> list[Entry]:
    """Every pool entry of every workload, once each."""
    seen: dict[str, Entry] = {}
    for slots in WORKLOADS.values():
        for s in slots:
            for e in s.pool:
                seen.setdefault(e.id, e)
    return list(seen.values())
