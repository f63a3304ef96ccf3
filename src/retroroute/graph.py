"""Directed acyclic hypergraph of molecules and reaction arcs.

Nodes are deduplicated on their canonical string; arcs connect one product
node to a non-empty precursor set. Attaching an arc that would let a
molecule transitively require itself is rejected, so every selectable
route is loop-free (an intermediate may still feed several steps).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .errors import CycleRejected
from .models import ReactionClass


@dataclass
class MoleculeNode:
    id: int
    smiles: str
    in_stock: bool = False
    simplicity: float = 1.0
    expanded: bool = False
    expandable: bool = True
    # bookkeeping for termination diagnostics
    cycle_rejections: int = 0
    deferrals: int = 0

    def __post_init__(self):
        if not 0.0 <= self.simplicity <= 1.0:
            raise ValueError(f"simplicity {self.simplicity} outside [0,1]")


@dataclass(frozen=True)
class ReactionArc:
    """Immutable after attachment; the score is frozen at attach time."""

    id: int
    product: int
    precursors: Tuple[int, ...]
    reagents: FrozenSet[int]
    forward_likelihood: float
    reaction_class: ReactionClass
    arc_score: float


class HyperGraph:
    def __init__(self) -> None:
        self.nodes: Dict[int, MoleculeNode] = {}
        self.arcs: Dict[int, ReactionArc] = {}
        self.index: Dict[str, int] = {}
        self.arcs_by_product: Dict[int, List[int]] = {}
        self.root: Optional[int] = None
        self._next_node = 0
        self._next_arc = 0

    # --- nodes --------------------------------------------------------------

    def get_or_insert_node(self, smiles: str, **attrs) -> int:
        """Return the node for a canonical string, creating it once."""
        existing = self.index.get(smiles)
        if existing is not None:
            return existing
        node_id = self._next_node
        self._next_node += 1
        self.nodes[node_id] = MoleculeNode(id=node_id, smiles=smiles, **attrs)
        self.index[smiles] = node_id
        self.arcs_by_product[node_id] = []
        if self.root is None:
            self.root = node_id
        return node_id

    def node(self, node_id: int) -> MoleculeNode:
        return self.nodes[node_id]

    # --- arcs ---------------------------------------------------------------

    def would_create_cycle(self, product: int, precursors: Iterable[int]) -> bool:
        """True iff some precursor's synthesis already depends on the product.

        Depth-first walk in the product -> precursor direction from the
        precursors; each node is visited once, so the cost is bounded by the
        subgraph the precursors can reach (nothing, for unexpanded ones).
        """
        stack = list(precursors)
        seen = set(stack)
        while stack:
            node_id = stack.pop()
            if node_id == product:
                return True
            for arc_id in self.arcs_by_product[node_id]:
                for p in self.arcs[arc_id].precursors:
                    if p not in seen:
                        seen.add(p)
                        stack.append(p)
        return False

    def attach_arc(
        self,
        product: int,
        precursors: Iterable[int],
        forward_likelihood: float,
        reaction_class: ReactionClass,
        arc_score: float,
        reagents: Iterable[int] = (),
    ) -> int:
        """Attach a reaction arc, or raise CycleRejected.

        The caller treats a rejected arc as a terminated pathway branch.
        """
        precursors = tuple(precursors)
        if not precursors:
            raise ValueError("precursor set must be non-empty")
        if self.would_create_cycle(product, precursors):
            raise CycleRejected(
                f"arc {self.nodes[product].smiles!r} <- "
                f"{[self.nodes[p].smiles for p in precursors]} closes a cycle"
            )
        arc_id = self._next_arc
        self._next_arc += 1
        arc = ReactionArc(
            id=arc_id,
            product=product,
            precursors=precursors,
            reagents=frozenset(reagents),
            forward_likelihood=forward_likelihood,
            reaction_class=reaction_class,
            arc_score=arc_score,
        )
        self.arcs[arc_id] = arc
        self.arcs_by_product[product].append(arc_id)
        return arc_id

    # --- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "root": self.root,
            "nodes": [
                {
                    "id": n.id,
                    "smiles": n.smiles,
                    "in_stock": n.in_stock,
                    "simplicity": n.simplicity,
                    "expanded": n.expanded,
                    "expandable": n.expandable,
                }
                for n in sorted(self.nodes.values(), key=lambda n: n.id)
            ],
            "arcs": [
                {
                    "id": a.id,
                    "product": a.product,
                    "precursors": list(a.precursors),
                    "reagents": sorted(a.reagents),
                    "likelihood": a.forward_likelihood,
                    "class": a.reaction_class.code,
                    "score": a.arc_score,
                }
                for a in sorted(self.arcs.values(), key=lambda a: a.id)
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "HyperGraph":
        g = cls()
        for entry in data["nodes"]:
            node_id = g.get_or_insert_node(
                entry["smiles"],
                in_stock=entry.get("in_stock", False),
                simplicity=entry.get("simplicity", 1.0),
                expanded=entry.get("expanded", False),
                expandable=entry.get("expandable", True),
            )
            if node_id != entry["id"]:
                raise ValueError("node ids must be dense and ordered in snapshots")
        g.root = data["root"]
        for entry in data["arcs"]:
            arc_id = g.attach_arc(
                product=entry["product"],
                precursors=tuple(entry["precursors"]),
                reagents=entry.get("reagents", ()),
                forward_likelihood=entry["likelihood"],
                reaction_class=ReactionClass.parse(entry["class"]),
                arc_score=entry["score"],
            )
            if arc_id != entry["id"]:
                raise ValueError("arc ids must be dense and ordered in snapshots")
        return g

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "HyperGraph":
        return cls.from_json(json.loads(text))

    # --- visualization ------------------------------------------------------

    def to_dot(self, arc_ids: Optional[Iterable[int]] = None) -> str:
        """DOT rendering: molecules as ellipses, arcs as square junctions."""
        arcs = (
            [self.arcs[a] for a in arc_ids]
            if arc_ids is not None
            else sorted(self.arcs.values(), key=lambda a: a.id)
        )
        used_nodes: Set[int] = set()
        for arc in arcs:
            used_nodes.add(arc.product)
            used_nodes.update(arc.precursors)
        if self.root is not None:
            used_nodes.add(self.root)
        lines = ["digraph routes {", "  rankdir=BT;"]
        for node_id in sorted(used_nodes):
            node = self.nodes[node_id]
            color = "green" if node.in_stock else "black"
            shape_attrs = f'label="{node.smiles}", shape=ellipse, color={color}'
            if node_id == self.root:
                shape_attrs += ", penwidth=2"
            lines.append(f'  n{node_id} [{shape_attrs}];')
        for arc in arcs:
            junction = f"a{arc.id}"
            label = f"{arc.reaction_class.code}\\nL={arc.forward_likelihood:.3f}"
            lines.append(
                f'  {junction} [label="{label}", shape=square, '
                f"width=0.15, fontsize=8];"
            )
            lines.append(f"  {junction} -> n{arc.product};")
            for p in arc.precursors:
                style = "dashed" if p in arc.reagents else "solid"
                lines.append(f"  n{p} -> {junction} [style={style}];")
        lines.append("}")
        return "\n".join(lines) + "\n"

