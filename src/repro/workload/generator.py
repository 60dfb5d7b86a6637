"""Instantiating template queries on a data graph.

A template fixes topology and default bounds; an *instance* additionally
fixes the vertex labels.  Like most graph-matching benchmarks (and like the
paper's user study, where participants formulated queries that make sense
on the dataset), labels are drawn from an actual *region* of the data graph
so that instances are satisfiable rather than vacuously empty: a seeded
random walk picks ``|V_B|`` nearby data vertices and their labels become
the template's vertex labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.query import BPHQuery, Bounds
from repro.errors import ExperimentError
from repro.graph.graph import Graph
from repro.utils.rng import seeded_rng
from repro.workload.templates import QueryTemplate, get_template

__all__ = ["QueryInstance", "instantiate", "instantiate_from_region"]


@dataclass(frozen=True)
class QueryInstance:
    """A fully specified BPH query ready to be formulated.

    ``labels[i]`` is the label of template vertex ``q{i+1}``; ``bounds[i]``
    the bounds of template edge ``e{i+1}``.
    """

    template: QueryTemplate
    labels: tuple[object, ...]
    bounds: tuple[Bounds, ...]
    dataset: str = ""
    seed: int = 0
    tag: str = ""
    extras: dict[str, object] = field(default_factory=dict, hash=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.labels) != self.template.num_vertices:
            raise ExperimentError(
                f"{self.template.name}: expected {self.template.num_vertices} "
                f"labels, got {len(self.labels)}"
            )
        if len(self.bounds) != self.template.num_edges:
            raise ExperimentError(
                f"{self.template.name}: expected {self.template.num_edges} "
                f"bounds, got {len(self.bounds)}"
            )

    @property
    def name(self) -> str:
        """Readable instance id, e.g. ``Q2@dblp#3``."""
        suffix = f"/{self.tag}" if self.tag else ""
        return f"{self.template.name}@{self.dataset}#{self.seed}{suffix}"

    def with_bounds(self, overrides: dict[int, Bounds], tag: str = "") -> "QueryInstance":
        """New instance with edge bounds overridden by 1-based edge index."""
        new_bounds = list(self.bounds)
        for index, bounds in overrides.items():
            if not 1 <= index <= len(new_bounds):
                raise ExperimentError(
                    f"{self.template.name} has no edge e{index}"
                )
            new_bounds[index - 1] = bounds
        return replace(self, bounds=tuple(new_bounds), tag=tag or self.tag)

    def with_upper(self, overrides: dict[int, int], tag: str = "") -> "QueryInstance":
        """Override only upper bounds (keeps each edge's lower bound).

        A lower bound above the new upper is clamped down to keep the edge
        well-formed.
        """
        for index in overrides:
            if not 1 <= index <= len(self.bounds):
                raise ExperimentError(f"{self.template.name} has no edge e{index}")
        return self.with_bounds(
            {
                i: Bounds(min(self.bounds[i - 1].lower, upper), upper)
                for i, upper in overrides.items()
            },
            tag=tag,
        )

    def build_query(self) -> BPHQuery:
        """Materialize a :class:`BPHQuery` (vertex ids = 1-based template ids).

        Mostly for direct evaluation (BU, tests); the GUI simulator builds
        the query action-by-action instead.
        """
        query = BPHQuery(name=self.name)
        for i, label in enumerate(self.labels, start=1):
            query.add_vertex(label, vertex_id=i)
        for (u, v), bounds in zip(self.template.edges, self.bounds):
            query.add_edge(u, v, lower=bounds.lower, upper=bounds.upper)
        return query


def instantiate_from_region(
    template: QueryTemplate,
    graph: Graph,
    seed: int = 0,
    dataset: str = "",
) -> QueryInstance:
    """Instantiate ``template`` with labels sampled from a graph region.

    A random walk from a seeded start vertex collects ``num_vertices``
    distinct nearby vertices; their labels (in visit order) label
    ``q1..qk``.  Nearby vertices are mutually reachable within small
    distances, making the instance satisfiable under the default bounds
    with high probability.
    """
    if graph.num_vertices < template.num_vertices:
        raise ExperimentError(
            f"graph {graph.name} too small for template {template.name}"
        )
    rng = seeded_rng(seed)
    for _attempt in range(64):
        start = rng.randrange(graph.num_vertices)
        visited: list[int] = [start]
        current = start
        steps = 0
        while len(visited) < template.num_vertices and steps < 200:
            steps += 1
            nbrs = graph.neighbors(current)
            if len(nbrs) == 0:
                break
            current = int(nbrs[rng.randrange(len(nbrs))])
            if current not in visited:
                visited.append(current)
        if len(visited) == template.num_vertices:
            labels = tuple(graph.label(v) for v in visited)
            return QueryInstance(
                template=template,
                labels=labels,
                bounds=template.default_bounds,
                dataset=dataset or graph.name,
                seed=seed,
            )
    raise ExperimentError(
        f"could not sample a region of size {template.num_vertices} "
        f"from {graph.name} (too sparse/disconnected?)"
    )


def instantiate(
    template_name: str,
    graph: Graph,
    seed: int = 0,
    dataset: str = "",
) -> QueryInstance:
    """Convenience wrapper: look up the template and sample an instance."""
    return instantiate_from_region(
        get_template(template_name), graph, seed=seed, dataset=dataset
    )
