"""The answer oracle: a brute-force reasoner-backed scan of the catalog.

It shares nothing with the layers the workloads time: no interval
codes, no packed engine, no capability DAGs, no shards, no wire and no
caches.  Every capability in the catalog is matched against the request
with :class:`~repro.core.matching.TaxonomyMatcher` over the workload's
classified taxonomy.  It is slow (about 10 µs per capability), so the
workloads run it on a sample of answers, outside the timed phase.

The distance is the one the directories document (DESIGN.md, "Levels &
distance"): subsumption from the reasoner, distance the depth difference
below ``owl:Thing``.  On tree-shaped ontologies that equals the
taxonomy's shortest-path level count; on multi-parent concepts (the §5
suite) the two differ, and the directories follow the depth difference.

Each check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.matching import TaxonomyMatcher


class DepthDistanceMatcher(TaxonomyMatcher):
    """Reasoner subsumption with the documented depth-difference distance."""

    def __init__(self, taxonomy) -> None:
        super().__init__(taxonomy)
        self._taxonomy = taxonomy

    def concept_distance(self, over: str, under: str) -> int | None:
        if super().concept_distance(over, under) is None:
            return None
        return max(0, self._taxonomy.depth(under) - self._taxonomy.depth(over))


class Oracle:
    """Exhaustive ``SemanticDistance`` over a catalog of profiles."""

    def __init__(self, taxonomy) -> None:
        self._matcher = DepthDistanceMatcher(taxonomy)

    def distances(self, catalog: Iterable, capability) -> dict[tuple[str, str], int]:
        """``{(service uri, capability uri): distance}`` of every
        advertised capability that matches ``capability``."""
        found = {}
        for profile in catalog:
            for provided in profile.provided:
                distance = self._matcher.semantic_distance(provided, capability)
                if distance is not None:
                    found[(profile.uri, provided.uri)] = distance
        return found

    def check_exact(self, rows, request, catalog) -> list[str]:
        """Exhaustive directories: the answer's ``(requested, service,
        capability, distance)`` set equals the oracle's exactly."""
        expected = {
            (requested.uri, service, capability, distance)
            for requested in request.capabilities
            for (service, capability), distance in self.distances(catalog, requested).items()
        }
        got = {(requested, service, capability, distance) for requested, service, capability, distance in rows}
        problems = []
        if len(got) != len(rows):
            problems.append(f"{request.uri}: duplicate rows in answer")
        if got - expected:
            problems.append(f"{request.uri}: rows not in oracle: {sorted(got - expected)[:3]}")
        if expected - got:
            problems.append(f"{request.uri}: oracle rows missing: {sorted(expected - got)[:3]}")
        return problems

    def check_greedy(self, rows, request, catalog, source_uri: str | None) -> list[str]:
        """Greedy ``SemanticDirectory`` answers to one-capability requests:
        every row carries the oracle's distance, the best distance equals
        the oracle's minimum, and (when given) ``source_uri`` — the
        service the request was generated from — is among the answers."""
        if len(request.capabilities) != 1:
            return [f"{request.uri}: greedy check needs a one-capability request"]
        expected = self.distances(catalog, request.capabilities[0])
        problems = []
        for service, capability, distance in rows:
            if expected.get((service, capability)) != distance:
                problems.append(
                    f"{request.uri}: row {(service, capability, distance)} has oracle "
                    f"distance {expected.get((service, capability))}"
                )
        best_got = min((row[2] for row in rows), default=None)
        best_expected = min(expected.values(), default=None)
        if best_got != best_expected:
            problems.append(f"{request.uri}: best distance {best_got}, oracle {best_expected}")
        if source_uri is not None and source_uri not in {row[0] for row in rows}:
            problems.append(f"{request.uri}: source service {source_uri} not answered")
        return problems
