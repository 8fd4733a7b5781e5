"""Checks on the benchmark itself.

    python3 -m pytest perfbench/tests

One traced pass per workload, twice, on the default seed: the outputs must
match the golden digests, the work counters must repeat exactly, and the
mask counters of the two engines must line up.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402  (puts this checkout's src on the path)
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counters_repeat_and_masks_line_up(name):
    batch = WORKLOADS[name](run.DEFAULT_SEED)
    golden = run.golden_digests(name, run.DEFAULT_SEED)
    first, _, counters = run.traced_pass(batch, golden, 0)
    again, _, counters_again = run.traced_pass(batch, golden, 0)
    assert first.failed == again.failed == 0
    assert counters == counters_again
    assert counters["engine.masks_reached"] <= counters["reference.masks_enumerated"]
    # pp_mine's own masks stat counts exactly the masks it was handed
    assert counters["reference.masks_stat"] == counters["reference.masks_enumerated"]
