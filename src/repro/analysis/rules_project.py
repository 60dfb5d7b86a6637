"""Cross-module boomerlint rules: R9 protocol-drift.

The wire contract is spread over four files by design — the op registry
lives in ``service/protocol.py``, the handlers in ``service/dispatch.py``
(and the pool's ``dispatcher.py``), and the callers in
``service/client.py``.  R1–R8 parse one file at a time and therefore
cannot see the seams this rule exists for: a verb added to ``OPS`` that
one dispatcher never routes, or a request parameter that collides with a
reserved envelope key (the exact bug the ``update`` verb's ``v`` key
was).  (An error's ``code`` and ``retryable`` verdict are declared once,
on the class in ``errors.py``, so there is no second copy to drift.)

Each sub-check only runs when *every* module it reads is part of the
lint run (see :class:`~repro.analysis.project.ProjectRule`), so linting
a subtree or a test fixture never yields phantom drift.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.project import ModuleFacts, ProjectIndex, ProjectRule
from repro.analysis.registry import Violation, register

__all__ = ["ProtocolDriftRule"]

PROTOCOL = "repro/service/protocol.py"
DISPATCH = "repro/service/dispatch.py"
CLIENT = "repro/service/client.py"
POOL_DISPATCH = "repro/service/pool/dispatcher.py"

#: Envelope keys owned by the transport; request params must not shadow
#: them because the client merges params flat into the envelope dict.
ENVELOPE_KEYS = frozenset({"v", "req_id", "op", "ok", "result", "error"})


@register
class ProtocolDriftRule(ProjectRule):
    """``OPS`` must agree with both dispatchers and the client."""

    id = "R9"
    title = (
        "the wire-protocol op registry (OPS) must agree with both "
        "dispatchers and the client"
    )

    def finalize(self, project: ProjectIndex) -> Iterator[Violation]:
        if project.has_all(PROTOCOL, DISPATCH):
            yield from self._check_ops(project, DISPATCH)
        if project.has_all(PROTOCOL, POOL_DISPATCH):
            yield from self._check_ops(project, POOL_DISPATCH)
        if project.has_all(PROTOCOL, CLIENT):
            yield from self._check_client(project)

    # -- OPS <-> dispatcher coverage -------------------------------------
    @staticmethod
    def _handled_ops(dispatcher: ModuleFacts) -> dict[str, tuple[int, int]]:
        """op literal -> first handling site, from ``op == "x"`` compares
        and ``op in <same-module str tuple>`` memberships."""
        handled: dict[str, tuple[int, int]] = {}
        for compare in dispatcher.eq_compares:
            if compare["name"] == "op":
                handled.setdefault(
                    compare["value"], (compare["line"], compare["col"])
                )
        for membership in dispatcher.memberships:
            if membership["name"] != "op":
                continue
            registry = dispatcher.str_tuples.get(membership["container"])
            if registry is None:
                continue
            for value in registry["values"]:
                handled.setdefault(
                    value, (membership["line"], membership["col"])
                )
        return handled

    def _check_ops(
        self, project: ProjectIndex, dispatcher_key: str
    ) -> Iterator[Violation]:
        protocol = project.modules[PROTOCOL]
        dispatcher = project.modules[dispatcher_key]
        registry = protocol.str_tuples.get("OPS")
        if registry is None:
            return
        ops = set(registry["values"])
        handled = self._handled_ops(dispatcher)

        for op in registry["values"]:
            if op not in handled:
                yield self.at(
                    protocol,
                    registry["line"],
                    1,
                    f"op {op!r} is registered in OPS but never handled in "
                    f"{dispatcher.display}; the verb would fail with "
                    "unknown_op at runtime",
                )
        for op, (line, col) in sorted(handled.items()):
            if op not in ops:
                yield self.at(
                    dispatcher,
                    line,
                    col,
                    f"{dispatcher.display} handles op {op!r} which is not "
                    "registered in OPS in service/protocol.py",
                )

    # -- client requests: ops + envelope-key collisions -------------------
    def _check_client(self, project: ProjectIndex) -> Iterator[Violation]:
        protocol = project.modules[PROTOCOL]
        client = project.modules[CLIENT]
        registry = protocol.str_tuples.get("OPS")
        ops = set(registry["values"]) if registry else None

        for call in client.self_calls:
            if call["method"] not in ("request", "_request_once"):
                continue
            if ops is not None and call["arg"] not in ops:
                yield self.at(
                    client,
                    call["line"],
                    call["col"],
                    f"client requests op {call['arg']!r} which is not "
                    "registered in OPS in service/protocol.py",
                )
            if call["method"] != "request":
                continue
            collisions = sorted(set(call["kwargs"]) & ENVELOPE_KEYS)
            for key in collisions:
                yield self.at(
                    client,
                    call["line"],
                    call["col"],
                    f"request param {key!r} collides with a reserved "
                    "envelope key; the flat param merge would overwrite "
                    "the transport field (the update-verb 'v' bug class)",
                )
