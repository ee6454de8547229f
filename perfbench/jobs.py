"""Jobs and workloads as the harness sees them; nothing here imports the library."""

from __future__ import annotations

import os
import random
import resource
from fractions import Fraction
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
HASH_SEED = "0"


class Job:
    """One verified answer: a timed `run` and an untimed `check` of its output."""

    __slots__ = ("stratum", "run", "check")

    def __init__(self, stratum: str, run, check):
        self.stratum = stratum
        self.run = run
        self.check = check


class Workload:
    """A cycle of strata; `job(i)` builds the i-th job of the run from the seed."""

    name = ""
    # stratum specs; job i uses cycle[i % len(cycle)]
    cycle: tuple = ()
    # strata run once each, from a derived seed, before timing starts
    warmup: tuple = ()

    def __init__(self, seed: int):
        self.seed = seed

    @property
    def block(self) -> int:
        """Jobs per block.  A run stops only at a block boundary; a whole
        cycle keeps every stratum's share of the jobs whatever the run length."""
        return len(self.cycle)

    def job(self, i: int, tag: str = "run") -> Job:
        rng = random.Random(f"{self.name}:{tag}:{self.seed}:{i}")
        spec = self.cycle[i % len(self.cycle)]
        return self.make(spec, rng)

    def warmup_jobs(self):
        return [self.job(k, "warmup") for k in self.warmup]

    def make(self, spec, rng: random.Random) -> Job:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process that runs the jobs."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def slowness(self) -> float:
        """The machine's speed right now for jobs like these, as the speed
        reference's time over its nominal time (speed.py)."""
        return speed.tick() / speed.NOMINAL_TICK_S

    def operand(self, rng: random.Random):
        """(re, im) of a scalar like those in this workload's inputs, for the scalar batches."""
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3)), Fraction(0)


def child_env() -> dict:
    """Environment of every child: the package from this checkout, the pinned hash seed."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = HASH_SEED
    return env
