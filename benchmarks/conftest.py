"""Shared benchmark knobs for ``bench_soak`` and ``bench_obs_overhead``.

Set ``REPRO_BENCH_SCALE=tiny`` to smoke them quickly; their budgets are
enforced only at the calibrated ``small`` scale.  The paper's artifacts
are not benchmarks: ``python -m repro.experiments all`` regenerates them
and checks the claims table (``repro.experiments.claims``).
"""

from __future__ import annotations

import os

SCALE = os.environ.get("REPRO_BENCH_SCALE", "small")
#: Budgets and shape assertions only run at the calibrated benchmark scale.
ASSERT_SHAPES = SCALE == "small"
