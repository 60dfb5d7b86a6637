"""R12 lock-guard inference (``repro.analysis.rules_flow``) and the walk
it uses, which skips nested scopes.

The rule gets the fixture pair every rule gets: a seeded violation it
must fire on, and the corrected form it must stay silent on — plus the
shapes (in-place mutation, lock-held helpers, condition variables) that
a naive implementation would get wrong.
"""

from __future__ import annotations

import ast
import textwrap

import pytest

from repro.analysis import LintEngine
from repro.analysis.rules_flow import scoped_walk


def lint(src: str, path: str, rule: str):
    report = LintEngine.for_rule_ids([rule]).lint_source(
        textwrap.dedent(src), path
    )
    return report


class TestScopedWalk:
    def test_scoped_walk_skips_nested_function_bodies(self):
        src = """
        def f():
            x = 1
            def g():
                hidden = 2
            return x
        """
        fn = ast.parse(textwrap.dedent(src)).body[0]
        names = {
            n.id for n in scoped_walk(fn) if isinstance(n, ast.Name)
        }
        assert "x" in names and "hidden" not in names


class TestLockGuardRule:
    FIRES = """
    import threading

    class Manager:
        def __init__(self):
            self._lock = threading.Lock()
            self._count = 0

        def bump(self):
            with self._lock:
                self._count += 1

        def peek(self):
            return self._count
    """

    CLEAN = """
    import threading

    class Manager:
        def __init__(self):
            self._lock = threading.Lock()
            self._count = 0

        def bump(self):
            with self._lock:
                self._count += 1

        def peek(self):
            with self._lock:
                return self._count
    """

    def test_fires_on_bare_read_of_guarded_attr(self):
        report = lint(self.FIRES, "repro/service/manager.py", "R12")
        assert [v.rule for v in report.violations] == ["R12"]
        assert "_count" in report.violations[0].message
        assert "self._lock" in report.violations[0].message

    def test_silent_when_every_access_is_held(self):
        assert lint(self.CLEAN, "repro/service/manager.py", "R12").ok

    def test_init_writes_are_exempt(self):
        # __init__ happens-before every reader; the FIRES fixture already
        # writes self._count = 0 bare there and must not fire for it.
        report = lint(self.CLEAN, "repro/service/manager.py", "R12")
        assert report.ok

    def test_helper_whose_callers_all_hold_the_lock(self):
        src = """
        import threading

        class Manager:
            def __init__(self):
                self._lock = threading.Lock()
                self._n = 0

            def bump(self):
                with self._lock:
                    self._bump_locked()

            def _bump_locked(self):
                self._n += 1
        """
        assert lint(src, "repro/service/manager.py", "R12").ok

    def test_helper_with_one_bare_caller_still_fires(self):
        src = """
        import threading

        class Manager:
            def __init__(self):
                self._lock = threading.Lock()
                self._n = 0

            def bump(self):
                with self._lock:
                    self._n += 1

            def sneaky(self):
                self._bump_locked()

            def _bump_locked(self):
                self._n += 1
        """
        report = lint(src, "repro/service/manager.py", "R12")
        assert not report.ok

    def test_condition_variable_joins_its_lock_group(self):
        src = """
        import threading

        class Queue:
            def __init__(self):
                self._lock = threading.Lock()
                self._ready = threading.Condition(self._lock)
                self._items = []

            def put(self, item):
                with self._lock:
                    self._items = self._items + [item]

            def drain(self):
                with self._ready:
                    return list(self._items)
        """
        assert lint(src, "repro/service/manager.py", "R12").ok

    def test_lockless_attrs_are_not_flagged(self):
        src = """
        import threading

        class Manager:
            def __init__(self):
                self._lock = threading.Lock()
                self._guarded = 0
                self._stats = 0

            def work(self):
                with self._lock:
                    self._guarded += 1
                self._stats += 1

            def stats(self):
                return self._stats
        """
        assert lint(src, "repro/service/manager.py", "R12").ok

    def test_out_of_scope_path_is_ignored(self):
        assert lint(self.FIRES, "repro/indexing/pml.py", "R12").ok

    IN_PLACE = """
    import threading

    class Manager:
        def __init__(self):
            self._lock = threading.Lock()
            self._sessions = {}

        def close(self, sid):
            with self._lock:
                self._sessions.{call}

        def ids(self):
            return list(self._sessions)
    """

    @pytest.mark.parametrize(
        "call",
        ["pop(sid, None)", "clear()", "update({sid: 1})", "setdefault(sid, 1)"],
    )
    def test_in_place_mutation_under_lock_is_a_write(self, call):
        report = lint(
            self.IN_PLACE.replace("{call}", call), "repro/service/manager.py", "R12"
        )
        assert [v.rule for v in report.violations] == ["R12"]
        assert "'_sessions'" in report.violations[0].message
        assert "'ids'" in report.violations[0].message

    def test_read_only_method_call_is_not_a_write(self):
        src = self.IN_PLACE.replace("self._sessions.{call}", "n = self._sessions.get(sid)")
        assert lint(src, "repro/service/manager.py", "R12").ok
