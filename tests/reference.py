"""Straight-line reference implementations used as test oracles.

Deliberately naive: the expansion reference re-applies the filtering rules
one by one with clustering as a plain group-by afterwards,
the route reference enumerates every pathway without any beam pruning,
the template reference answers every model call with a full scan of
the raw template entries, and the dependency closure works on raw
(product, precursors) pairs. They share nothing with the engine's
expansion/search code paths, the toy oracle or the hypergraph.
"""

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from retroroute.errors import CycleRejected, ModelError, NotCanonicalizable
from retroroute.models import ChemModels, PrecursorSet


@dataclass(frozen=True)
class RefAccepted:
    precursors: PrecursorSet
    likelihood: float


def reference_expansion(
    target: str,
    models: ChemModels,
    normalizer,
    retro_beams: int = 15,
    theta_hi: float = 0.6,
    gap: float = 0.2,
    forward_topk: int = 3,
) -> List[RefAccepted]:
    """Filter + cluster one expansion, rule by rule, nothing shared."""
    suggested = models.retro_predict(target, retro_beams)

    # canonicalize, drop failures, drop self-referential, dedup
    candidates: List[PrecursorSet] = []
    seen: Set[str] = set()
    for precursors in suggested:
        molecules = []
        reagents = set()
        ok = True
        for raw in precursors.molecules:
            try:
                norm = normalizer.normalize(raw)
            except NotCanonicalizable:
                ok = False
                break
            molecules.append(norm)
            if raw in precursors.reagents:
                reagents.add(norm)
        if not ok:
            continue
        candidate = PrecursorSet(tuple(molecules), frozenset(reagents))
        if target in candidate.molecules:
            continue
        if candidate.key() in seen:
            continue
        seen.add(candidate.key())
        candidates.append(candidate)

    # likelihood filter: auto-accept, else top-1 match with a strict gap
    accepted: List[RefAccepted] = []
    for candidate in candidates:
        likelihood = models.score_reaction(candidate, target)
        if likelihood > theta_hi:
            accepted.append(RefAccepted(candidate, likelihood))
            continue
        forward = models.forward_predict(candidate, max(2, forward_topk))
        if not forward:
            continue
        top1 = forward[0]
        runner_up = forward[1].likelihood if len(forward) > 1 else 0.0
        if top1.product == target and top1.likelihood > gap + runner_up:
            accepted.append(RefAccepted(candidate, top1.likelihood))

    # clustering as a set operation: group on (superclass, reactant set),
    # keep the highest-likelihood member of each group
    groups: Dict[object, List[RefAccepted]] = {}
    order: List[object] = []
    for item in accepted:
        try:
            superclass = models.classify(
                f"{item.precursors.joined()}>>{target}"
            ).superclass
            key: object = (
                superclass,
                frozenset(
                    m
                    for m in item.precursors.molecules
                    if m != target and m not in item.precursors.reagents
                ),
            )
        except ModelError:
            key = ("singleton", len(order))
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(item)
    representatives = []
    for key in order:
        members = groups[key]
        representatives.append(
            min(members, key=lambda m: (-m.likelihood, m.precursors.joined()))
        )
    return representatives


@dataclass(frozen=True)
class RefPathway:
    arcs: Tuple[int, ...]
    frontier: FrozenSet[int]
    score: float
    status: str


def reference_enumerate(
    graph_builder,
    max_steps: int,
) -> List[RefPathway]:
    """Enumerate every pathway over a lazily expanded graph.

    `graph_builder` wraps a HyperGraph plus an `ensure_expanded(node)`
    callable; the enumeration itself re-implements forking, termination and
    ranking from scratch (breadth-first over arc sets, no pruning).
    """
    g = graph_builder.graph
    results: List[RefPathway] = []
    root = g.root
    root_frontier = frozenset() if g.nodes[root].in_stock else frozenset({root})
    states = {frozenset(): (tuple(), root_frontier, 1.0, 0)}
    while states:
        next_states = {}
        for arcs_key, (arcs, frontier, score, steps) in sorted(
            states.items(), key=lambda kv: sorted(kv[0])
        ):
            for n in frontier:
                graph_builder.ensure_expanded(n)
            if not frontier:
                results.append(RefPathway(arcs, frontier, score, "solved"))
                continue
            if steps >= max_steps:
                results.append(RefPathway(arcs, frontier, score, "max_steps"))
                continue
            dead = False
            cyclic = False
            for n in frontier:
                node = g.nodes[n]
                if not node.expandable:
                    dead = True
                elif node.expanded and not g.arcs_by_product.get(n):
                    if node.cycle_rejections > 0:
                        cyclic = True
                    else:
                        dead = True
            if dead:
                results.append(RefPathway(arcs, frontier, score, "dead"))
                continue
            if cyclic:
                results.append(RefPathway(arcs, frontier, score, "cyclic"))
                continue
            for n in sorted(frontier):
                for arc_id in g.arcs_by_product.get(n, ()):
                    arc = g.arcs[arc_id]
                    child_arcs = arcs + (arc_id,)
                    produced = {g.arcs[a].product for a in child_arcs}
                    child_frontier = set(frontier)
                    child_frontier.discard(n)
                    for p in arc.precursors:
                        if (
                            p not in arc.reagents
                            and p not in produced
                            and not g.nodes[p].in_stock
                        ):
                            child_frontier.add(p)
                    key = frozenset(child_arcs)
                    if key not in next_states:
                        next_states[key] = (
                            child_arcs,
                            frozenset(child_frontier),
                            score * arc.arc_score,
                            steps + 1,
                        )
        states = next_states
    unique: Dict[FrozenSet[int], RefPathway] = {}
    for p in sorted(results, key=lambda p: (-p.score, len(p.arcs), tuple(sorted(p.arcs)))):
        unique.setdefault(frozenset(p.arcs), p)
    return list(unique.values())


class ReferenceTemplateOracle:
    """Full-scan toy chemistry over raw ``{lhs, rhs, weight, class[, reagents]}``
    entries whose molecules are already in normal form.

    Every call visits all entries in file order, so likelihood sums and
    classification ties follow the file as written.
    """

    def __init__(self, entries):
        self.entries = list(entries)

    def outcomes(self, molecules) -> List[Tuple[str, float]]:
        pool = set(molecules)
        applicable = [e for e in self.entries if all(m in pool for m in e["lhs"])]
        total = sum(e["weight"] for e in applicable)
        likelihoods: Dict[str, float] = {}
        for e in applicable:
            likelihoods[e["rhs"]] = likelihoods.get(e["rhs"], 0.0) + e["weight"]
        return sorted(((p, w / total) for p, w in likelihoods.items()),
                      key=lambda kv: (-kv[1], kv[0]))

    def forward(self, molecules, topk: int) -> List[Tuple[str, float]]:
        return self.outcomes(molecules)[:topk]

    def score(self, molecules, product: str) -> float:
        return dict(self.outcomes(molecules)).get(product, 0.0)

    def retro(self, target: str, beams: int) -> List[Tuple[Tuple[str, ...], FrozenSet[str], float]]:
        """(molecules, reagents, score of the reaction) per suggestion, best first."""
        suggestions = []
        for e in self.entries:
            if e["rhs"] != target:
                continue
            molecules: List[str] = []
            for m in list(e["lhs"]) + list(e.get("reagents", ())):
                if m not in molecules:
                    molecules.append(m)
            reagents = frozenset(e.get("reagents", ()))
            suggestions.append((tuple(molecules), reagents, self.score(molecules, target)))
        suggestions.sort(key=lambda s: (-s[2], ".".join(sorted(s[0]))))
        return suggestions[:beams]

    def classify(self, lhs, rhs) -> Optional[str]:
        """Class code of the heaviest matching entry (first one on ties)."""
        best = None
        for e in self.entries:
            if e["rhs"] in rhs and all(m in lhs for m in e["lhs"]):
                if best is None or e["weight"] > best["weight"]:
                    best = e
        return best["class"] if best is not None else None


# --- dependency closure over raw (product, precursors) pairs -----------------
#
# The adjacency maps a product to every molecule any of its arcs consumes.
# Tests grow it one accepted arc at a time with `reference_add_arc`.


def reference_add_arc(adjacency: Dict[int, Set[int]], product: int, precursors) -> None:
    adjacency.setdefault(product, set()).update(precursors)


def reference_requires(adjacency: Dict[int, Set[int]], node: int) -> Set[int]:
    """Every molecule the synthesis of `node` can depend on (breadth-first)."""
    found: Set[int] = set()
    layer = set(adjacency.get(node, ()))
    while layer:
        found |= layer
        layer = {p for n in layer for p in adjacency.get(n, ())} - found
    return found


def reference_closes_cycle(adjacency: Dict[int, Set[int]], product: int, precursors) -> bool:
    """True iff the arc product <- precursors would make a molecule require itself."""
    return any(p == product or product in reference_requires(adjacency, p) for p in precursors)


def reference_is_acyclic(adjacency: Dict[int, Set[int]]) -> bool:
    """Kahn's algorithm: acyclic iff every molecule can be peeled off."""
    nodes = set(adjacency)
    for precursors in adjacency.values():
        nodes |= precursors
    consumers: Dict[int, int] = {n: 0 for n in nodes}
    for precursors in adjacency.values():
        for p in precursors:
            consumers[p] += 1
    ready = [n for n, count in consumers.items() if count == 0]
    peeled = 0
    while ready:
        n = ready.pop()
        peeled += 1
        for p in adjacency.get(n, ()):
            consumers[p] -= 1
            if consumers[p] == 0:
                ready.append(p)
    return peeled == len(nodes)
