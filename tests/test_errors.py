"""Exception-hierarchy contract tests."""

import pytest

from repro import errors


def test_all_errors_derive_from_repro_error():
    for name in errors.__all__:
        cls = getattr(errors, name)
        assert issubclass(cls, errors.ReproError)


def test_graph_errors_hierarchy():
    assert issubclass(errors.GraphBuildError, errors.GraphError)
    assert issubclass(errors.VertexNotFoundError, errors.GraphError)
    assert issubclass(errors.GraphIOError, errors.GraphError)


def test_vertex_not_found_is_key_error():
    # Lookup-style failures should be catchable as KeyError too.
    assert issubclass(errors.VertexNotFoundError, KeyError)
    assert issubclass(errors.QueryVertexNotFoundError, KeyError)
    assert issubclass(errors.QueryEdgeNotFoundError, KeyError)


def test_bounds_error_is_value_error():
    assert issubclass(errors.BoundsError, ValueError)


def test_vertex_not_found_message_and_payload():
    err = errors.VertexNotFoundError(42)
    assert err.vertex == 42
    assert "42" in str(err)


def test_query_errors_hierarchy():
    assert issubclass(errors.QueryValidationError, errors.QueryError)
    assert issubclass(errors.BoundsError, errors.QueryError)


def test_index_errors_hierarchy():
    assert issubclass(errors.StaleIndexError, errors.IndexError_)
    assert issubclass(errors.CAPStateError, errors.CAPError)


def test_session_errors_hierarchy():
    assert issubclass(errors.ActionError, errors.SessionError)


def test_resilience_errors_hierarchy():
    assert issubclass(errors.ResilienceError, errors.ReproError)
    assert issubclass(errors.DeadlineExceededError, errors.ResilienceError)
    assert issubclass(errors.RetryExhaustedError, errors.ResilienceError)
    assert not hasattr(errors, "CAPCorruptionError")
    assert not hasattr(errors, "DegradedModeError")


def test_deadline_exceeded_is_timeout_error():
    # Generic timeout handlers (concurrent.futures style) must catch it.
    assert issubclass(errors.DeadlineExceededError, TimeoutError)


def test_deadline_exceeded_payload():
    err = errors.DeadlineExceededError("pool drain", limit=2.5)
    assert err.context == "pool drain"
    assert err.limit == 2.5
    assert "pool drain" in str(err) and "2.500" in str(err)
    bare = errors.DeadlineExceededError()
    assert bare.limit is None


def test_retry_exhausted_payload():
    cause = RuntimeError("oracle down")
    err = errors.RetryExhaustedError("probe", 3, cause)
    assert err.operation == "probe"
    assert err.attempts == 3
    assert err.last_error is cause
    assert "probe" in str(err) and "RuntimeError" in str(err)


def test_single_except_clause_catches_everything():
    with pytest.raises(errors.ReproError):
        raise errors.DatasetError("nope")
