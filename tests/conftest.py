"""Shared session-scoped campaign fixtures.

Full campaign runs are the most expensive thing the suite does; the
fixtures here are computed once per session and shared between the
end-to-end campaign tests and the golden-table pins so the suite never
runs the same (seed, scale, year) world twice.
"""

import collections
import sys

import pytest

from repro.core import Campaign, CampaignConfig
from repro.dnslib import wire

#: Scale of the single-year end-to-end world.
E2E_SCALE = 16384

#: Scale of the two-year temporal-contrast worlds. Finer than the
#: single-year tests so the malicious tail (12,874 / 26,926 R2 at full
#: scale) survives subsampling.
CONTRAST_SCALE = 2048


@pytest.fixture(scope="session")
def result_2018():
    return Campaign(CampaignConfig(year=2018, scale=E2E_SCALE, seed=11)).run()


@pytest.fixture(scope="session")
def both_years():
    from repro.analysis.compare import compare_years

    result_2013 = Campaign(
        CampaignConfig(
            year=2013, scale=CONTRAST_SCALE, seed=11, time_compression=64.0
        )
    ).run()
    result_2018 = Campaign(
        CampaignConfig(
            year=2018, scale=CONTRAST_SCALE, seed=11, time_compression=8.0
        )
    ).run()
    comparison = compare_years(
        result_2013.correctness,
        result_2018.correctness,
        result_2013.estimates,
        result_2018.estimates,
        result_2013.malicious_categories,
        result_2018.malicious_categories,
    )
    return result_2013, result_2018, comparison


@pytest.fixture
def codec_calls(monkeypatch):
    """Counts of ``encode_message``/``decode_message`` calls in a test.

    ``from ... import`` copies the functions into each importing module,
    so every loaded binding is replaced, not just the codec module's.
    """
    counts = collections.Counter()

    def patch(name):
        original = getattr(wire, name)

        def counting(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    monkeypatch.setattr(module, key, counting)

    patch("encode_message")
    patch("decode_message")
    return counts
