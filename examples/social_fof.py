"""Lower bounds > 1: friends-of-friends exploration on a social network.

Section 3.1 of the paper motivates non-trivial lower bounds with the
friends-of-friends (FOF) pattern: "given a user A, explore the FOF
neighborhood of A" — the query edge from A carries bounds [2, 2]: a match
must be connected to A by a simple path of length exactly two (through a
mutual friend).  Note the semantics is existential (Definition 3.1): a
*direct* friend still qualifies if a mutual friend also exists; what the
lower bound excludes is friends connected *only* directly.

The same mechanism powers the drug-target use case from the introduction
(putative targets 1-2 hops away from an "undruggable" oncogene -> bounds
[2, 3] exclude the oncogene's direct interactors).

This example runs the FOF query on a DBLP-like collaboration network from
the dataset registry, via the full simulated-GUI pipeline.

Run with:  python examples/social_fof.py
"""

from repro.core.actions import NewEdge, NewVertex, Run
from repro.core.blender import Boomer
from repro.datasets import get_dataset


def main() -> None:
    bundle = get_dataset("dblp", scale="tiny")
    graph = bundle.graph
    print(f"collaboration network: {graph}")

    # Pick a well-connected "user A" and query for FOF pairs: a triangle-free
    # wedge A -[2,2]- F where F shares A's community label.
    hub = max(graph.iter_vertices(), key=graph.degree)
    hub_label = graph.label(hub)
    print(f"user A = vertex {hub} (label {hub_label}, degree {graph.degree(hub)})")

    boomer = Boomer(bundle.make_context(), strategy="DI", max_results=500)
    boomer.apply(NewVertex(0, hub_label))       # A's community
    boomer.apply(NewVertex(1, hub_label))       # FOF candidate, same community
    boomer.apply(NewEdge(0, 1, lower=2, upper=2))  # exactly two hops apart
    boomer.apply(Run())

    result = boomer.run_result
    print(
        f"\n{result.num_matches} candidate pairs satisfy the upper bound "
        f"(SRT {result.srt_seconds * 1e3:.2f} ms)"
    )

    # Visualization phase: the JIT lower-bound check keeps the pairs with a
    # genuine 2-hop connection; of those, show the ones matching user A itself.
    fofs = [s for s in boomer.iter_results() if s.assignment[0] == hub]
    rejected_direct = sum(m[0] == hub for m in result.matches) - len(fofs)
    for subgraph in fofs[:10]:
        friend_of_friend = subgraph.assignment[1]
        path = subgraph.paths[(0, 1)]
        middle = path[1]
        is_direct = graph.has_edge(hub, friend_of_friend)
        print(
            f"  FOF: {hub} -> {middle} -> {friend_of_friend}"
            f"{'  (also direct friends)' if is_direct else ''}"
        )
        assert len(path) - 1 == 2
    if len(fofs) > 10:
        print("  ... (showing first 10)")
    print(
        f"\n{rejected_direct} candidate(s) rejected by the just-in-time "
        "lower-bound check (no simple 2-hop path)"
    )


if __name__ == "__main__":
    main()
