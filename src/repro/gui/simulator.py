"""Simulated user: query instance -> timed action stream.

Replaces the study participants: given a :class:`QueryInstance` and an edge
construction order (default Figure-4 order or a Table-2 QFS), emit the
``NewVertex``/``NewEdge`` actions a human would produce, annotated with the
GUI latency the *next* visual step will provide (paper Sec. 5.3: the
fragment drawn at step *i* is processed inside the latency of step *i+1*).

Vertex ordering rule: a vertex is drawn immediately before the first edge
that needs it, matching how people formulate connected patterns; the
resulting vertex order is the matching order ``M``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace

from repro.core.actions import Action, NewEdge, NewVertex, Run
from repro.errors import ExperimentError
from repro.gui.latency import LatencyModel
from repro.workload.generator import QueryInstance

__all__ = ["SimulatedUser"]


class SimulatedUser:
    """Deterministic (seeded) stand-in for a study participant."""

    def __init__(self, latency_model: LatencyModel) -> None:
        self.latency = latency_model

    def formulate(
        self,
        instance: QueryInstance,
        edge_order: Sequence[int] | None = None,
    ) -> list[Action]:
        """Produce the action list (ending with ``Run``) for ``instance``.

        ``edge_order`` is a permutation of 1-based edge indices (a QFS);
        defaults to the template's Figure-4 construction order.
        """
        template = instance.template
        order = tuple(edge_order) if edge_order is not None else tuple(
            range(1, template.num_edges + 1)
        )
        if sorted(order) != list(range(1, template.num_edges + 1)):
            raise ExperimentError(
                f"edge order {order} is not a permutation of "
                f"e1..e{template.num_edges}"
            )

        actions: list[Action] = []
        drawn: set[int] = set()
        for index in order:
            u, v = template.edges[index - 1]
            for q in (u, v):
                if q not in drawn:
                    drawn.add(q)
                    actions.append(
                        NewVertex(vertex_id=q, label=instance.labels[q - 1])
                    )
            bounds = instance.bounds[index - 1]
            actions.append(NewEdge(u=u, v=v, lower=bounds.lower, upper=bounds.upper))
        # A template is connected, so every vertex is drawn by now; guard
        # against malformed templates anyway.
        if len(drawn) != template.num_vertices:
            raise ExperimentError(
                f"{template.name}: vertices {set(range(1, template.num_vertices + 1)) - drawn} "
                "never referenced by an edge"
            )
        actions.append(Run())
        return self._attach_latencies(actions)

    def _attach_latencies(self, actions: list[Action]) -> list[Action]:
        """Set each action's ``latency_after`` to the next step's duration."""
        durations = [self.latency.action_time(a) for a in actions]
        timed: list[Action] = []
        for i, action in enumerate(actions):
            if isinstance(action, Run):
                timed.append(action)
            else:
                timed.append(replace(action, latency_after=durations[i + 1]))
        return timed
