"""Output checks: what makes a paired visit correct.

Every pass over the page window is checked three ways:

* **Structure** (any seed): the pass holds one paired visit per window
  page, in window order; both protocol modes are present; both PLTs
  are positive; no HAR entry failed (no fault profile is active, so a
  failed fetch is a simulator defect).
* **Repeatability**: the simulator is deterministic, so every pass of
  a run must reproduce the first pass's digest exactly; for
  ``store-replay`` the replayed passes must also equal the cold fill.
* **Pinned digest** (the default seed): the digest must equal the one
  recorded in :data:`PINNED` for the workload.

A visit's digest line covers the probe, page URL, exact H2/H3 PLTs
(``repr`` of the float), HAR entry counts and both ``PoolStats``.
"""

from __future__ import annotations

import hashlib
import json

from repro.browser.browser import H2_ONLY, H3_ENABLED

#: Digest of one pass over the default seed's page window.  Store
#: replay serves the clean campaign's visits, so it shares that digest.
PINNED: dict[str, str] = {
    "clean-campaign": "fe9a715a136149b7ccb37cb5c44058c9",
    "lossy-campaign": "ddd1bad99564e529803742ded21e8a4a",
    "store-replay": "fe9a715a136149b7ccb37cb5c44058c9",
}


def visit_line(visit) -> str:
    h2, h3 = visit.h2, visit.h3
    return "|".join(
        (
            visit.probe_name,
            h2.page_url,
            repr(h2.plt_ms),
            repr(h3.plt_ms),
            str(len(h2.entries)),
            str(len(h3.entries)),
            json.dumps(h2.pool_stats.to_dict(), sort_keys=True),
            json.dumps(h3.pool_stats.to_dict(), sort_keys=True),
        )
    )


def digest(paired_visits) -> str:
    h = hashlib.blake2b(digest_size=16)
    for visit in paired_visits:
        h.update(visit_line(visit).encode())
        h.update(b"\n")
    return h.hexdigest()


def visit_problems(visit, expected_url: str) -> list[str]:
    """Structural invariants of one paired visit."""
    problems = []
    if visit.page.url != expected_url:
        problems.append(f"visit for {visit.page.url}, expected {expected_url}")
    for mode, measured in ((H2_ONLY, visit.h2), (H3_ENABLED, visit.h3)):
        if measured is None or measured.protocol_mode != mode:
            problems.append(f"{expected_url}: {mode} visit missing")
            continue
        if measured.page_url != expected_url:
            problems.append(f"{expected_url}: {mode} visit is for {measured.page_url}")
        if not measured.plt_ms > 0.0:
            problems.append(f"{expected_url}: {mode} PLT {measured.plt_ms!r}")
        if measured.failed_entries:
            problems.append(
                f"{expected_url}: {mode} has {measured.failed_entries} failed entries"
            )
    return problems


def failed_visits(result, pages) -> tuple[int, list[str]]:
    """Count the window pages of one pass without a correct paired visit.

    A page whose visit is absent (a recorded failure or a short result)
    counts as failed; so does every visit for a page outside the window.
    """
    problems = [f"{f.page_url}: {f.error}" for f in result.failures]
    by_url = {visit.page.url: visit for visit in result.paired_visits}
    failed = 0
    for page in pages:
        visit = by_url.pop(page.url, None)
        if visit is None:
            found = [f"{page.url}: no paired visit"]
        else:
            found = visit_problems(visit, page.url)
        if found:
            failed += 1
            problems.extend(found)
    failed += len(by_url)
    problems.extend(f"{url}: visit outside the window" for url in by_url)
    order = [visit.page.url for visit in result.paired_visits]
    if not failed and order != [page.url for page in pages]:
        problems.append("paired visits out of window order")
    return failed, problems
