"""The benchmark's three workloads, built from a seed.

Every workload measures paired visits (one page under H2 and under
H3, each with the paper's double visit) through the public entry
point ``repro.measurement.execute(CampaignPlan(...))``, serially
(``workers=1``): a closed loop with one client, where the next visit
starts only when the previous one is done.

The seed selects the universe seed, the campaign seed and the page
window; the simulator only ever sees the generated inputs.  The window
is a stratified sample: the universe's pages are ordered by resource
count and cut into ``WINDOW`` equal strata, and the seed picks one
page per stratum.  Visit cost grows with page size, so stratifying
keeps the work per pass close to constant across seeds while every
seed still measures different pages.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
from dataclasses import dataclass

from repro.measurement import CampaignPlan, SimConfig, execute
from repro.store import ResultStore
from repro.web.topsites import GeneratorConfig, cached_universe

#: Paired visits per pass over the page window.
WINDOW = 24

#: The seed whose outputs are pinned by digest (``outputs.PINNED``).
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    #: netem loss rate imposed at every probe.
    loss_rate: float
    #: ``None`` (no store), ``"write"`` (write-through to a fresh store
    #: every pass) or ``"replay"`` (cold fill in setup, replays timed).
    store: str | None
    #: Paired visits per wall second that a run on the reference host
    #: (2-CPU x86-64 container, C event kernel) reaches even in a slow
    #: host regime.  It fixes the tail percentile at the chosen run
    #: length (``stats.tail_percentile``), so every run has at least 10
    #: samples beyond it and the tail means the same thing at any speed.
    nominal_visits_per_s: float


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("clean-campaign", loss_rate=0.0, store=None, nominal_visits_per_s=4.0),
        Workload("lossy-campaign", loss_rate=0.01, store="write", nominal_visits_per_s=4.0),
        Workload("store-replay", loss_rate=0.0, store="replay", nominal_visits_per_s=100.0),
    )
}


def _derive(label: str, seed: int) -> int:
    digest = hashlib.blake2b(f"perfbench:{label}:{seed}".encode(), digest_size=4)
    return int.from_bytes(digest.digest(), "big")


def universe_seed(seed: int) -> int:
    return _derive("universe", seed)


def campaign_seed(seed: int) -> int:
    return _derive("campaign", seed)


def page_window(universe, seed: int, size: int = WINDOW) -> tuple[int, ...]:
    """One page index per resource-count stratum, in universe order."""
    pages = universe.pages
    if size > len(pages):
        raise ValueError(f"window of {size} pages from {len(pages)}")
    ranked = sorted(range(len(pages)), key=lambda i: (len(pages[i].resources), i))
    rng = random.Random(_derive("window", seed))
    picks = []
    for stratum in range(size):
        lo = stratum * len(ranked) // size
        hi = (stratum + 1) * len(ranked) // size
        picks.append(ranked[rng.randrange(lo, hi)])
    return tuple(sorted(picks))


class WorkloadRun:
    """One workload's inputs and state inside one process.

    ``setup`` builds everything a user pays for before the first timed
    visit; ``run_pass`` runs one campaign over the page window and
    returns its :class:`~repro.measurement.campaign.CampaignResult`.
    """

    def __init__(
        self, workload: Workload, seed: int, workdir: str, window: int = WINDOW
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.window = window
        self.universe = None
        self.pages: tuple = ()
        self.sim = SimConfig(
            loss_rate=workload.loss_rate, seed=campaign_seed(seed)
        )
        self.store: ResultStore | None = None
        #: The cold fill's result (``store-replay`` only).
        self.fill = None
        self._passes = 0

    def setup(self) -> None:
        self.universe = cached_universe(GeneratorConfig(), seed=universe_seed(self.seed))
        self.pages = tuple(
            self.universe.pages[i]
            for i in page_window(self.universe, self.seed, self.window)
        )
        if self.workload.store == "replay":
            self.store = ResultStore(os.path.join(self.workdir, "replay-store"))
            self.fill = execute(
                CampaignPlan(
                    universe=self.universe,
                    sim=self.sim,
                    pages=self.pages,
                    store=self.store,
                    run_name="fill",
                )
            )

    def run_pass(self):
        self._passes += 1
        if self.workload.store == "write":
            store = ResultStore(os.path.join(self.workdir, f"lossy-{self._passes}"))
            try:
                return execute(
                    CampaignPlan(
                        universe=self.universe,
                        sim=self.sim,
                        pages=self.pages,
                        store=store,
                        run_name="lossy",
                    )
                )
            finally:
                store.close()
        return execute(
            CampaignPlan(
                universe=self.universe,
                sim=self.sim,
                pages=self.pages,
                store=self.store,
            )
        )

    def discard_pass_files(self) -> None:
        """Delete the previous pass's write-through store (untimed)."""
        if self.workload.store == "write":
            shutil.rmtree(
                os.path.join(self.workdir, f"lossy-{self._passes}"),
                ignore_errors=True,
            )

    def close(self) -> None:
        if self.store is not None:
            self.store.close()
            self.store = None
        shutil.rmtree(self.workdir, ignore_errors=True)
