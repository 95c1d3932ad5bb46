"""The campaign workloads (``perfbench/README.md`` says why each was chosen)."""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class CampaignWorkload:
    name: str
    knobs: dict
    #: SHA-256 of ``CampaignResult.report()`` at seed 7 on unmodified code.
    pinned_seed7: str

    def config(self, seed: int):
        from repro.core.campaign import CampaignConfig

        return CampaignConfig(seed=seed, **self.knobs)


CAMPAIGNS = {
    workload.name: workload for workload in (
        CampaignWorkload(
            name="census_2018",
            knobs=dict(year=2018, scale=4096, time_compression=4),
            pinned_seed7="a2794777f5d5d8f97160e6c45859e90e55d3454e0c702f97b57a8e59c89fc186",
        ),
        CampaignWorkload(
            name="scan_2013_mc",
            knobs=dict(year=2013, scale=2048, time_compression=64,
                       dnssec=False, mode="stream", engine="multicore",
                       workers=2),
            pinned_seed7="5f75efe37455160589b2cdf6e6c29c6017d28efbe9df297d9fcf2ab4b4161b6c",
        ),
    )
}
