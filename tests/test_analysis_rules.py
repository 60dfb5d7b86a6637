"""Per-rule fixture tests for the boomerlint catalog (R1–R8).

Each rule gets at least one *bad* fixture that must fire and one *good*
fixture that must stay silent.  Path-scoped rules (R1, R2, R6) are
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
# R3 — oracle batch contract
# ----------------------------------------------------------------------
class TestOracleContractRule:
    SCALAR_ONLY = """\
    class MyOracle:
        def distance(self, u, v):
            return 0

        def within(self, u, v, upper):
            return True
    """

    def test_scalar_only_class_flagged(self):
        hits = rule_hits("R3", self.SCALAR_ONLY)
        assert len(hits) == 1
        assert "MyOracle" in hits[0].message
        assert "batch_via_shim" in hits[0].message

    def test_batch_methods_satisfy(self):
        src = """\
        class MyOracle:
            def distance(self, u, v):
                return 0

            def within(self, u, v, upper):
                return True

            def distances_from(self, source, targets):
                return []

            def within_many(self, sources, targets, upper):
                return []
        """
        assert not rule_hits("R3", src)

    def test_shim_marker_satisfies(self):
        src = """\
        class MyOracle:
            batch_via_shim = True

            def distance(self, u, v):
                return 0

            def within(self, u, v, upper):
                return True
        """
        assert not rule_hits("R3", src)

    def test_protocol_classes_exempt(self):
        src = """\
        from typing import Protocol

        class DistanceOracle(Protocol):
            def distance(self, u, v): ...
            def within(self, u, v, upper): ...
        """
        assert not rule_hits("R3", src)

    def test_unrelated_class_ignored(self):
        assert not rule_hits("R3", "class Pure:\n    def distance(self, u, v):\n        return 0\n")


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
# R5 — public-API coherence
# ----------------------------------------------------------------------
class TestPublicApiRule:
    def test_missing_binding_flagged(self):
        hits = rule_hits("R5", "__all__ = ['ghost']\n")
        assert len(hits) == 1 and "ghost" in hits[0].message

    def test_duplicate_flagged(self):
        src = "__all__ = ['a', 'a']\na = 1\n"
        hits = rule_hits("R5", src)
        assert len(hits) == 1 and "more than once" in hits[0].message

    def test_bindings_of_every_kind_seen(self):
        src = """\
        __all__ = ["f", "C", "x", "mod", "alias", "looped", "handled"]

        import mod
        from pkg import thing as alias

        x = 1

        def f():
            local = 2  # noqa: F841 - locals never count as module names
            return local

        class C:
            pass

        for looped in range(3):
            pass

        try:
            pass
        except ValueError:
            handled = True
        """
        assert not rule_hits("R5", src)

    def test_except_as_name_is_drift(self):
        # ``except ... as e`` names are deleted when the handler exits,
        # so exporting one is genuine drift.
        src = """\
        __all__ = ["caught"]

        try:
            pass
        except ValueError as caught:
            pass
        """
        assert rule_hits("R5", src)

    def test_function_locals_do_not_leak(self):
        src = """\
        __all__ = ["hidden"]

        def f():
            hidden = 1
            return hidden
        """
        hits = rule_hits("R5", src)
        assert len(hits) == 1 and "hidden" in hits[0].message

    def test_star_import_disables_check(self):
        assert not rule_hits("R5", "from os.path import *\n__all__ = ['join']\n")

    def test_computed_all_skipped(self):
        assert not rule_hits("R5", "__all__ = sorted(globals())\n")

    def test_no_all_is_fine(self):
        assert not rule_hits("R5", "a = 1\n")


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
# R7 — storage seam
# ----------------------------------------------------------------------
class TestStorageSeamRule:
    def test_direct_label_array_access_flagged(self):
        src = """\
        def peek(oracle):
            return oracle._label_offsets[0]
        """
        hits = rule_hits("R7", src, "repro/service/manager.py")
        assert len(hits) == 1
        assert "_label_offsets" in hits[0].message
        assert "EngineBasis" in hits[0].message

    def test_all_three_csr_arrays_flagged(self):
        src = """\
        def peek(pml):
            a = pml._label_offsets
            b = pml._label_ranks_arr
            c = pml._label_dists_arr
            return a, b, c
        """
        assert len(rule_hits("R7", src, "repro/core/blender.py")) == 3

    def test_indexing_and_storage_exempt(self):
        src = """\
        def kernel(oracle):
            return oracle._label_ranks_arr.sum()
        """
        assert not rule_hits("R7", src, "repro/indexing/batch.py")
        assert not rule_hits("R7", src, "repro/storage/basis.py")

    def test_self_access_clean(self):
        src = """\
        class MyOracle:
            def peek(self):
                return self._label_offsets[0]
        """
        assert not rule_hits("R7", src, "repro/core/blender.py")

    def test_other_private_attrs_clean(self):
        src = """\
        def peek(pml):
            return pml._order, pml.query_count
        """
        assert not rule_hits("R7", src, "repro/datasets/registry.py")

    def test_tree_is_currently_clean(self):
        from pathlib import Path

        import repro

        root = Path(repro.__file__).parent
        report = LintEngine.for_rule_ids(["R7"]).lint_paths([root])
        assert report.ok, [v.format() for v in report.violations]


# ----------------------------------------------------------------------
# Regression guards: the satellites this PR fixed stay fixed
# ----------------------------------------------------------------------
class TestFixedViolationsStayFixed:
    @pytest.mark.parametrize(
        "module", ["repro.faults.injectors", "repro.resilience.checker"]
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


# ----------------------------------------------------------------------
# R8 — graph mutation seam
# ----------------------------------------------------------------------
class TestGraphMutationSeamRule:
    def test_epoch_write_flagged(self):
        hits = rule_hits("R8", "def f(graph):\n    graph._epoch = 0\n")
        assert len(hits) == 1
        assert hits[0].rule == "R8"
        assert "repro.updates" in hits[0].message

    def test_csr_writes_flagged(self):
        src = """\
        def splice(g, arr):
            g._neighbors = arr
            g._offsets = arr
            g._num_edges += 1
        """
        assert len(rule_hits("R8", src)) == 3

    def test_label_index_write_flagged(self):
        assert rule_hits("R8", "def f(g):\n    g._label_index = {}\n")

    def test_annotated_assign_flagged(self):
        # AnnAssign is a distinct AST node; the rule must catch it too.
        assert rule_hits("R8", "def f(g):\n    g._epoch: int = 3\n")

    def test_updates_and_graph_packages_exempt(self):
        src = "def f(g):\n    g._epoch = 1\n    g._num_edges += 1\n"
        assert not rule_hits("R8", src, "repro/updates/csr.py")
        assert not rule_hits("R8", src, "repro/graph/graph.py")
        assert not rule_hits("R8", src, "repro/storage/basis.py")

    def test_self_writes_clean(self):
        # A class managing its *own* slots (Graph itself, any view with an
        # _offsets of its own) is construction, not cross-object mutation.
        src = """\
        class View:
            def __init__(self, offsets):
                self._offsets = offsets
        """
        assert not rule_hits("R8", src, "repro/core/somewhere.py")

    def test_reads_and_other_attrs_clean(self):
        src = """\
        def peek(g):
            e = g._epoch
            g.cursor = e
            return g.epoch
        """
        assert not rule_hits("R8", src)

    def test_tree_is_currently_clean(self):
        from pathlib import Path

        import repro

        root = Path(repro.__file__).parent
        report = LintEngine.for_rule_ids(["R8"]).lint_paths([root])
        assert report.ok, [v.format() for v in report.violations]
