"""Lock-order race detector: unit behavior plus the service integration.

The acceptance criterion for this detector is the intentional-inversion
test: two locks taken A->B on one thread and B->A on another MUST be
reported as a cycle, with no actual deadlock required to witness it.
"""

from __future__ import annotations

import threading

import pytest

from repro.analysis import (
    LockOrderMonitor,
    MonitoredLock,
    MonitoredRLock,
    patch_locks,
)
from repro.errors import LockOrderViolationError


def run_thread(fn) -> None:
    t = threading.Thread(target=fn)
    t.start()
    t.join(timeout=30)
    assert not t.is_alive()


class TestMonitorCore:
    def test_consistent_order_is_clean(self):
        monitor = LockOrderMonitor()
        a = MonitoredLock(monitor, name="a")
        b = MonitoredLock(monitor, name="b")
        for _ in range(3):
            with a, b:
                pass
        assert monitor.inversions() == []
        monitor.assert_clean()
        assert monitor.edges() == {"a": {"b"}}

    def test_intentional_inversion_detected(self):
        """The acceptance test: A->B on one thread, B->A on another."""
        monitor = LockOrderMonitor()
        a = MonitoredLock(monitor, name="a.py:1")
        b = MonitoredLock(monitor, name="b.py:2")

        with a, b:
            pass

        def inverted() -> None:
            with b, a:
                pass

        run_thread(inverted)

        inversions = monitor.inversions()
        assert len(inversions) == 1
        inv = inversions[0]
        assert inv.edge == ("b.py:2", "a.py:1")
        assert set(inv.cycle) == {"a.py:1", "b.py:2"}
        assert "inversion" in inv.describe()
        with pytest.raises(LockOrderViolationError) as excinfo:
            monitor.assert_clean()
        assert excinfo.value.code == "lock_order_inversion"
        assert excinfo.value.inversions == inversions

    def test_transitive_cycle_detected(self):
        """a->b and b->c recorded, then c->a closes a 3-cycle."""
        monitor = LockOrderMonitor()
        a = MonitoredLock(monitor, name="a")
        b = MonitoredLock(monitor, name="b")
        c = MonitoredLock(monitor, name="c")
        with a, b:
            pass
        with b, c:
            pass

        def closes() -> None:
            with c, a:
                pass

        run_thread(closes)
        (inv,) = monitor.inversions()
        assert inv.edge == ("c", "a")
        assert inv.cycle[0] == inv.cycle[-1]
        assert set(inv.cycle) == {"a", "b", "c"}

    def test_same_site_pair_is_inversion(self):
        """Two locks from one allocation site nested = undefined order."""
        monitor = LockOrderMonitor()

        def make():
            return MonitoredLock(monitor, name="session.py:99")

        first, second = make(), make()
        with first, second:
            pass
        (inv,) = monitor.inversions()
        assert inv.edge == ("session.py:99", "session.py:99")

    def test_nonblocking_acquire_records_no_edge(self):
        """Trylock cannot deadlock; the donation path depends on this."""
        monitor = LockOrderMonitor()
        a = MonitoredLock(monitor, name="a")
        b = MonitoredLock(monitor, name="b")
        with a:
            assert b.acquire(blocking=False)
            b.release()
        # Reverse order via trylock as well: still no edges, no inversion.
        with b:
            assert a.acquire(blocking=False)
            a.release()
        assert monitor.edges() == {}
        monitor.assert_clean()

    def test_release_out_of_order_tolerated(self):
        monitor = LockOrderMonitor()
        a = MonitoredLock(monitor, name="a")
        b = MonitoredLock(monitor, name="b")
        a.acquire()
        b.acquire()
        a.release()  # hand-over-hand release order
        b.release()
        assert monitor.held_sites() == ()
        monitor.assert_clean()


class TestMonitoredRLock:
    def test_reentry_records_no_edges(self):
        monitor = LockOrderMonitor()
        r = MonitoredRLock(monitor, name="r")
        with r:
            with r:  # reentrant: no self-edge, no inversion
                assert r._is_owned()
        assert monitor.edges() == {}
        monitor.assert_clean()

    def test_foreign_release_rejected(self):
        monitor = LockOrderMonitor()
        r = MonitoredRLock(monitor, name="r")
        with pytest.raises(RuntimeError):
            r.release()

    def test_condition_wait_notify_works(self):
        """Condition built on a monitored RLock must work unchanged."""
        monitor = LockOrderMonitor()
        r = MonitoredRLock(monitor, name="r")
        cond = threading.Condition(r)
        fired = []

        def waiter() -> None:
            with cond:
                while not fired:
                    cond.wait(timeout=10)

        t = threading.Thread(target=waiter)
        t.start()
        with cond:
            fired.append(True)
            cond.notify_all()
        t.join(timeout=30)
        assert not t.is_alive()
        monitor.assert_clean()


class TestPatchLocks:
    def test_created_locks_are_monitored(self):
        monitor = LockOrderMonitor()
        with patch_locks(monitor):
            lock = threading.Lock()
            rlock = threading.RLock()
            with lock:
                pass
            with rlock:
                pass
        assert isinstance(lock, MonitoredLock)
        assert isinstance(rlock, MonitoredRLock)
        assert monitor.locks_created == 2
        assert monitor.acquisitions == 2

    def test_factories_restored_on_exit(self):
        before = (threading.Lock, threading.RLock)
        with patch_locks(LockOrderMonitor()):
            assert threading.Lock is not before[0]
        assert (threading.Lock, threading.RLock) == before

    def test_sites_point_at_allocation(self):
        monitor = LockOrderMonitor()
        with patch_locks(monitor):
            lock = threading.Lock()  # tagged with THIS file:line
        assert lock.site.startswith("test_analysis_lockorder.py:")


class TestServiceIntegration:
    def test_session_manager_locking_is_cycle_free(self, pooled_ctx):
        """Drive the real concurrent-session workload under the monitor.

        Same shape as test_service_concurrency's interleaved drive: eight
        barrier-released threads formulating and running against one
        shared manager.  Any manager/session/scheduler lock-order cycle
        the scheduling can produce shows up as an inversion here.
        """
        from repro.service import ServeConfig, SessionManager

        from tests.test_service_concurrency import drive_interleaved

        monitor = LockOrderMonitor()
        with patch_locks(monitor):
            manager = SessionManager(pooled_ctx, ServeConfig(max_sessions=8))
            drive_interleaved(manager)
        assert monitor.locks_created > 0
        assert monitor.acquisitions > 0
        monitor.assert_clean()
