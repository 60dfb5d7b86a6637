"""Per-rule fixture tests for the per-node rules (R1, R2, R4, R6).

Each rule gets at least one *bad* fixture that must fire and one *good*
fixture that must stay silent; its seeded mutation of a real module is
in ``test_analysis_lint.py``.  Path-scoped rules (R1, R2, R6) are
exercised through ``lint_source``'s path argument: the engine scopes by
module key, so a fixture opts in by claiming a ``repro/...`` path.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import LintEngine


def run_rule(rule_id: str, source: str, path: str = "repro/somewhere.py"):
    engine = LintEngine.for_rule_ids([rule_id])
    report = engine.lint_source(textwrap.dedent(source), path)
    return report


def rule_hits(rule_id: str, source: str, path: str = "repro/somewhere.py"):
    return [v for v in run_rule(rule_id, source, path).violations]


# ----------------------------------------------------------------------
# R1 — determinism
# ----------------------------------------------------------------------
class TestDeterminismRule:
    def test_import_random_flagged(self):
        hits = rule_hits("R1", "import random\n")
        assert len(hits) == 1
        assert hits[0].rule == "R1"
        assert hits[0].line == 1
        assert "random" in hits[0].message

    def test_from_random_import_flagged(self):
        assert rule_hits("R1", "from random import choice\n")

    def test_time_time_flagged(self):
        hits = rule_hits("R1", "import time\nt = time.time()\n")
        assert len(hits) == 1
        assert "time.time" in hits[0].message

    def test_datetime_now_flagged(self):
        src = "import datetime\nn = datetime.datetime.now()\n"
        hits = rule_hits("R1", src)
        assert len(hits) == 1 and "datetime.now" in hits[0].message

    def test_numpy_global_rng_flagged(self):
        assert rule_hits("R1", "import numpy as np\nx = np.random.rand()\n")

    def test_allowed_modules_exempt(self):
        src = "import random\nimport time\nt = time.time()\n"
        assert not rule_hits("R1", src, "repro/utils/rng.py")
        assert not rule_hits("R1", src, "repro/obs/clock.py")

    def test_seeded_rng_usage_clean(self):
        src = """\
        from repro.utils.rng import seeded_rng

        def draw(seed):
            return seeded_rng(seed).random()
        """
        assert not rule_hits("R1", src)

    def test_monotonic_clock_clean(self):
        # time.perf_counter / monotonic are fine — only wall-clock reads
        # and ambient randomness break replay determinism.
        assert not rule_hits("R1", "import time\nt = time.perf_counter()\n")


# ----------------------------------------------------------------------
# R2 — error taxonomy
# ----------------------------------------------------------------------
class TestErrorTaxonomyRule:
    def test_value_error_in_service_flagged(self):
        src = "def f():\n    raise ValueError('x')\n"
        hits = rule_hits("R2", src, "repro/service/manager.py")
        assert len(hits) == 1 and "ValueError" in hits[0].message

    def test_runtime_error_in_gui_flagged(self):
        src = "def f():\n    raise RuntimeError('x')\n"
        assert rule_hits("R2", src, "repro/gui/panels.py")

    def test_cli_scoped(self):
        src = "def f():\n    raise ValueError('x')\n"
        assert rule_hits("R2", src, "repro/cli.py")

    def test_out_of_scope_paths_ignored(self):
        src = "def f():\n    raise ValueError('x')\n"
        assert not rule_hits("R2", src, "repro/core/blender.py")

    def test_typed_errors_clean(self):
        src = """\
        from repro.errors import SessionError

        def f():
            raise SessionError("x")
        """
        assert not rule_hits("R2", src, "repro/service/manager.py")

    def test_type_error_allowed(self):
        # TypeError flags caller bugs, not runtime failure domains.
        src = "def f():\n    raise TypeError('x')\n"
        assert not rule_hits("R2", src, "repro/gui/latency.py")

    def test_bare_reraise_allowed(self):
        src = "def f():\n    try:\n        g()\n    except Exception:\n        raise\n"
        assert not rule_hits("R2", src, "repro/service/server.py")


# ----------------------------------------------------------------------
# R4 — metrics & span taxonomy
# ----------------------------------------------------------------------
class TestMetricsSpanTaxonomyRule:
    def test_bad_prefix_flagged(self):
        hits = rule_hits("R4", "c = metrics.counter('requests_total')\n")
        assert len(hits) == 1 and "repro_" in hits[0].message

    def test_counter_needs_total_suffix(self):
        hits = rule_hits("R4", "c = metrics.counter('repro_requests')\n")
        assert len(hits) == 1 and "_total" in hits[0].message

    def test_gauge_must_not_end_total(self):
        assert rule_hits("R4", "g = metrics.gauge('repro_live_total')\n")

    def test_histogram_needs_unit(self):
        assert rule_hits("R4", "h = metrics.histogram('repro_latency')\n")

    def test_well_named_instruments_clean(self):
        src = """\
        c = metrics.counter("repro_runs_total")
        g = registry.gauge("repro_sessions_live")
        h = reg.histogram("repro_run_seconds")
        """
        assert not rule_hits("R4", src)

    def test_unknown_span_name_flagged(self):
        hits = rule_hits("R4", "with tracer.span('nope.nothere'):\n    pass\n")
        assert len(hits) == 1 and "taxonomy" in hits[0].message

    def test_taxonomy_span_names_clean(self):
        src = """\
        with tracer.span("phase.run"):
            pass
        with tracer.span("pool.drain"):
            pass
        with tracer.span("action.new_vertex"):
            pass
        """
        assert not rule_hits("R4", src)

    def test_dynamic_span_names_ignored(self):
        assert not rule_hits("R4", "with tracer.span(name):\n    pass\n")

    def test_unrelated_receivers_ignored(self):
        assert not rule_hits("R4", "c = stats.counter('whatever')\n")


# ----------------------------------------------------------------------
# R6 — lock discipline
# ----------------------------------------------------------------------
class TestLockDisciplineRule:
    def test_oracle_call_under_lock_flagged(self):
        src = """\
        class Mgr:
            def f(self, oracle):
                with self._lock:
                    return oracle.distance(1, 2)
        """
        hits = rule_hits("R6", src, "repro/service/manager.py")
        assert len(hits) == 1 and ".distance" in hits[0].message

    def test_run_actions_under_lock_flagged(self):
        src = """\
        class Mgr:
            def f(self, session, actions):
                with self._lock:
                    session.run_actions(actions)
        """
        assert rule_hits("R6", src, "repro/service/manager.py")

    def test_bookkeeping_under_lock_clean(self):
        src = """\
        class Mgr:
            def f(self):
                with self._lock:
                    self._sessions.pop("sid", None)
                    return len(self._sessions)
        """
        assert not rule_hits("R6", src, "repro/service/manager.py")

    def test_compute_outside_lock_clean(self):
        src = """\
        class Mgr:
            def f(self, oracle):
                with self._lock:
                    sid = self._next_id
                return oracle.distance(1, 2)
        """
        assert not rule_hits("R6", src, "repro/service/manager.py")

    def test_out_of_scope_ignored(self):
        src = """\
        class Cache:
            def f(self, oracle):
                with self._lock:
                    return oracle.distance(1, 2)
        """
        assert not rule_hits("R6", src, "repro/indexing/oracle.py")


# ----------------------------------------------------------------------
# Regression guards: the satellites this PR fixed stay fixed
# ----------------------------------------------------------------------
class TestFixedViolationsStayFixed:
    @pytest.mark.parametrize(
        "module", ["repro.gui.latency", "repro.soak.harness"]
    )
    def test_no_raw_random(self, module):
        import importlib
        from pathlib import Path

        mod = importlib.import_module(module)
        path = Path(mod.__file__)
        report = LintEngine.for_rule_ids(["R1"]).lint_paths([path])
        assert report.ok, [v.format() for v in report.violations]

    def test_cli_and_latency_raise_typed(self):
        import importlib
        from pathlib import Path

        for module in ("repro.cli", "repro.gui.latency"):
            path = Path(importlib.import_module(module).__file__)
            report = LintEngine.for_rule_ids(["R2"]).lint_paths([path])
            assert report.ok, [v.format() for v in report.violations]
