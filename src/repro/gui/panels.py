"""The four-panel visual interface of Section 3.2, as a state machine.

The paper's GUI consists of a **Data Panel** (networks available for
querying), an **Attribute Panel** (vertex labels of the selected network),
a **Query Panel** (the BPH query under construction) and a **Results
Panel** (one small-region match at a time).  A query is built by the seven
steps of Section 3.2: move to the Attribute Panel, scan/select a label,
drag-drop it as a vertex, connect vertex pairs, fill the bounds combo box,
and finally press Run.

:class:`InterfaceSession` models exactly that protocol.  It is the
fine-grained layer *above* the semantic actions: each panel interaction
both advances the interface state and — when a semantic action completes —
feeds the blender, charging the step times of the latency model along the
way.  The engine stays GUI-agnostic (Section 4: BOOMER "is independent of
these steps"); this module exists so the reproduction also covers the
interface protocol itself, not only its action stream.
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.core.actions import DeleteEdge, ModifyBounds, NewEdge, NewVertex, Run
from repro.core.blender import Boomer, RunResult
from repro.core.context import EngineContext
from repro.core.lowerbound import ResultSubgraph
from repro.errors import ActionError, SessionError
from repro.gui.latency import LatencyModel

__all__ = ["InterfaceSession"]

Label = Hashable


class InterfaceSession:
    """Panel-level interaction protocol driving a :class:`Boomer` blender.

    The session accumulates the *virtual* user time spent on panel steps
    (``user_time_seconds``) and exposes the standard blender results.  A
    vertex requires ``select_label`` followed by ``drop_vertex`` (Steps
    1-3); an edge is ``connect`` (Step 5) optionally followed by
    ``set_bounds`` (Step 6) — matching the combo-box default of ``[1, 1]``.
    """

    def __init__(
        self,
        ctx: EngineContext,
        latency: LatencyModel | None = None,
        strategy: str = "DI",
        max_results: int | None = None,
    ) -> None:
        self.boomer = Boomer(ctx, strategy=strategy, max_results=max_results)
        self.latency = latency or LatencyModel(jitter=0.0)
        self.user_time_seconds = 0.0
        self._selected_label: Label | None = None
        self._next_vertex_id = 0
        self._results = None  # the Results Panel's position in iter_results()
        self._available_labels = sorted(
            ctx.graph.distinct_labels(), key=repr
        )

    # ------------------------------------------------------------------
    # Attribute Panel (Steps 1-2)
    # ------------------------------------------------------------------
    @property
    def attribute_panel(self) -> list[Label]:
        """Labels displayed on the Attribute Panel."""
        return list(self._available_labels)

    def select_label(self, label: Label) -> None:
        """Steps 1-2: move to the Attribute Panel, scan and select a label."""
        if label not in self._available_labels:
            raise ActionError(f"label {label!r} is not on the Attribute Panel")
        self.user_time_seconds += (
            self.latency.constants.t_move + self.latency.constants.t_select
        )
        self._selected_label = label

    # ------------------------------------------------------------------
    # Query Panel (Steps 3-6)
    # ------------------------------------------------------------------
    def drop_vertex(self) -> int:
        """Step 3: drag the selected label onto the Query Panel."""
        if self._selected_label is None:
            raise ActionError("select a label before dropping a vertex")
        self.user_time_seconds += self.latency.constants.t_drag
        vertex_id = self._next_vertex_id
        self._next_vertex_id += 1
        self.boomer.apply(NewVertex(vertex_id, self._selected_label))
        self._selected_label = None
        return vertex_id

    def connect(self, u: int, v: int) -> None:
        """Step 5: click two query vertices to draw an edge (bounds [1,1])."""
        self.user_time_seconds += self.latency.constants.t_edge
        self.boomer.apply(NewEdge(u, v, 1, 1))

    def set_bounds(self, u: int, v: int, lower: int, upper: int) -> None:
        """Step 6: fill the bounds combo box of an existing edge."""
        self.user_time_seconds += self.latency.constants.t_bounds
        self.boomer.apply(ModifyBounds(u, v, lower, upper))

    def delete_edge(self, u: int, v: int) -> None:
        """Modification: remove an edge from the Query Panel.

        Routes through the engine's action dispatch into
        :func:`repro.core.modification.delete_edge`, which removes the
        query edge and re-syncs the deferred-edge pool from the query in
        one step — the GUI never touches pool or CAP state directly, so
        query-side and engine-side edge state cannot diverge.
        """
        self.user_time_seconds += (
            self.latency.constants.t_move + self.latency.constants.t_bounds
        )
        self.boomer.apply(DeleteEdge(u, v))

    # ------------------------------------------------------------------
    # Run + Results Panel
    # ------------------------------------------------------------------
    def press_run(self) -> RunResult:
        """Click the Run icon; returns the run result."""
        self.user_time_seconds += self.latency.constants.t_move
        self.boomer.apply(Run())
        result = self.boomer.run_result
        assert result is not None
        return result

    def next_result(self) -> ResultSubgraph | None:
        """Iterate the Results Panel: next validated match, or None at end.

        Matches failing the just-in-time lower-bound check are skipped
        transparently, exactly as the paper's Results Panel would.
        """
        if self.boomer.run_result is None:
            raise SessionError("press Run before browsing results")
        if self._results is None:
            self._results = self.boomer.iter_results()
        return next(self._results, None)

    def reset_results(self) -> None:
        """Rewind the Results Panel iteration."""
        self._results = None
