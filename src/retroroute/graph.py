"""Directed acyclic hypergraph of molecules and reaction arcs.

Nodes are deduplicated on their canonical string; arcs connect one product
node to a non-empty precursor set. Attaching an arc that would let a
molecule transitively require itself is rejected, so every selectable
route is loop-free (an intermediate may still feed several steps).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from .errors import CycleRejected, parse_json
from .models import canonical_code


_INT = {int}
_NUMBER = {int, float}  # a bool is not a number here
_SMALLEST, _LARGEST = -sys.float_info.max, sys.float_info.max  # NaN lies in no range


@dataclass(slots=True)
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
        if type(self.simplicity) not in _NUMBER or not 0.0 <= self.simplicity <= 1.0:
            raise ValueError(f"simplicity {self.simplicity!r} is not a number in [0,1]")


class ReactionArc(NamedTuple):
    """Immutable after attachment; the score is frozen at attach time."""

    id: int
    product: int
    precursors: Tuple[int, ...]
    reagents: FrozenSet[int]
    forward_likelihood: float
    class_code: str  # canonical, as `ReactionClass.code` writes it
    arc_score: float


class HyperGraph:
    def __init__(self) -> None:
        self.nodes: Dict[int, MoleculeNode] = {}
        self.arcs: Dict[int, ReactionArc] = {}
        self.index: Dict[str, int] = {}
        self.arcs_by_product: Dict[int, List[int]] = {}
        self.root: Optional[int] = None

    # --- nodes --------------------------------------------------------------

    def get_or_insert_node(self, smiles: str, in_stock: bool = False, simplicity: float = 1.0,
                           expandable: bool = True) -> int:
        """Return the node for a canonical string, creating it once."""
        existing = self.index.get(smiles)
        if existing is not None:
            return existing
        node_id = len(self.nodes)  # nothing removes nodes, so ids stay dense
        self.nodes[node_id] = MoleculeNode(node_id, smiles, in_stock, simplicity, False, expandable)
        self.index[smiles] = node_id
        self.arcs_by_product[node_id] = []
        if self.root is None:
            self.root = node_id
        return node_id

    # --- arcs ---------------------------------------------------------------

    def would_create_cycle(self, product: int, precursors: Sequence[int]) -> bool:
        """True iff some precursor's synthesis already depends on the product.

        Depth-first walk in the product -> precursor direction from the
        precursors; each node is visited once, so the cost is bounded by the
        subgraph the precursors can reach (nothing, for unexpanded ones).
        """
        by_product = self.arcs_by_product
        if product not in precursors:  # looked up in the order the walk pops them
            for p in reversed(precursors):
                if by_product[p]:
                    break
            else:  # no precursor has arcs, so the walk would reach nothing more
                return False
        stack = list(precursors)
        seen = set(stack)
        while stack:
            node_id = stack.pop()
            if node_id == product:
                return True
            for arc_id in by_product[node_id]:
                for p in self.arcs[arc_id].precursors:
                    if p not in seen:
                        seen.add(p)
                        stack.append(p)
        return False

    def _cycle_error(self, product: int, precursors: Tuple[int, ...]) -> CycleRejected:
        smiles = [self.nodes[p].smiles for p in precursors]
        return CycleRejected(f"arc {self.nodes[product].smiles!r} <- {smiles} closes a cycle")

    def attach_arc(self, product: int, precursors: Iterable[int], forward_likelihood: float,
                   class_code: str, arc_score: float, reagents: Iterable[int] = ()) -> int:
        """Attach a reaction arc, or raise CycleRejected.

        The caller treats a rejected arc as a terminated pathway branch.
        """
        precursors = tuple(precursors)
        if not precursors:
            raise ValueError("precursor set must be non-empty")
        if self.would_create_cycle(product, precursors):
            raise self._cycle_error(product, precursors)
        arc_id = len(self.arcs)  # nothing removes arcs, so ids stay dense
        self.arcs[arc_id] = ReactionArc(arc_id, product, precursors, frozenset(reagents),
                                        forward_likelihood, class_code, arc_score)
        self.arcs_by_product[product].append(arc_id)
        return arc_id

    # --- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "root": self.root,
            "nodes": [
                {"id": n.id, "smiles": n.smiles, "in_stock": n.in_stock,
                 "simplicity": n.simplicity, "expanded": n.expanded, "expandable": n.expandable}
                for n in self.nodes.values()
            ],
            "arcs": [
                {"id": a.id, "product": a.product, "precursors": list(a.precursors),
                 "reagents": sorted(a.reagents), "likelihood": a.forward_likelihood,
                 "class": a.class_code, "score": a.arc_score}
                for a in self.arcs.values()
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "HyperGraph":
        """Replay a snapshot in one pass with the checks of `attach_arc`. Ids must be dense
        ints in order (a repeated smiles fails as a non-dense node id), a node's flags, when
        given, booleans, an arc's reagents a list of node ids, its likelihood and score finite
        numbers, and its class a reaction class code (kept in canonical form)."""
        g = cls()
        nodes, index, by_product, arcs = g.nodes, g.index, g.arcs_by_product, g.arcs
        try:
            node_entries, root, arc_entries = data["nodes"], data["root"], data["arcs"]
        except KeyError as exc:
            raise ValueError(f"snapshot has no {exc} key") from exc
        if type(node_entries) is not list or type(arc_entries) is not list:
            raise ValueError("snapshot nodes and arcs must be lists")
        try:
            for node_id, entry in enumerate(node_entries):
                smiles = entry["smiles"]
                if type(smiles) is not str:
                    raise ValueError(f"smiles {smiles!r} is not a string")
                if ((i := entry["id"]) != node_id or type(i) is not int
                        or index.setdefault(smiles, node_id) != node_id):
                    raise ValueError("id must be its list position, an int, and smiles unique")
                in_stock, simplicity = entry.get("in_stock", False), entry.get("simplicity", 1.0)
                expanded, expandable = entry.get("expanded", False), entry.get("expandable", True)
                if not (type(in_stock) is type(expanded) is type(expandable) is bool):
                    raise ValueError("in_stock, expanded and expandable must be booleans")
                nodes[node_id] = MoleculeNode(node_id, smiles, in_stock, simplicity, expanded, expandable)
                by_product[node_id] = []
        except KeyError as exc:
            raise ValueError(f"node {node_id}: missing key {exc}") from exc
        except ValueError as exc:
            raise ValueError(f"node {node_id}: {exc}") from exc
        if root is not None and (type(root) is not int or root not in nodes):
            raise ValueError(f"root {root!r} is not a node id")
        g.root = root
        try:
            for arc_id, entry in enumerate(arc_entries):
                product, precursors = entry["product"], tuple(entry["precursors"])
                likelihood, score = entry["likelihood"], entry["score"]
                reagents = entry.get("reagents", [])
                if (i := entry["id"]) != arc_id or type(i) is not int:
                    raise ValueError("id must be its list position, an int")
                if not precursors:
                    raise ValueError("precursor set must be non-empty")
                if type(product) is not int or not _INT.issuperset(map(type, precursors)):
                    raise ValueError("product and precursors must be node ids")
                if type(reagents) is not list or reagents and not _INT.issuperset(map(type, reagents)):
                    raise ValueError("reagents must be a list of node ids")
                reagents = frozenset(reagents)
                if reagents and not reagents.issubset(precursors):
                    raise ValueError("reagents must be among its precursors")
                if (type(likelihood) not in _NUMBER or type(score) not in _NUMBER or not (
                        _SMALLEST <= likelihood <= _LARGEST and _SMALLEST <= score <= _LARGEST)):
                    raise ValueError("likelihood and score must be finite numbers")
                class_code = canonical_code(entry["class"])
                if g.would_create_cycle(product, precursors):
                    raise g._cycle_error(product, precursors)
                arcs[arc_id] = ReactionArc(arc_id, product, precursors, reagents, likelihood,
                                           class_code, score)
                by_product[product].append(arc_id)
        except KeyError as exc:
            raise ValueError(f"arc {arc_id}: missing key or unknown node id {exc}") from exc
        except ValueError as exc:
            raise ValueError(f"arc {arc_id}: {exc}") from exc
        return g

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "HyperGraph":
        return cls.from_json(parse_json(text, "bad JSON", ValueError))

    # --- visualization ------------------------------------------------------

    def to_dot(self, arc_ids: Optional[Iterable[int]] = None) -> str:
        """DOT rendering: molecules as ellipses, arcs as square junctions."""
        arcs = self.arcs.values() if arc_ids is None else [self.arcs[a] for a in arc_ids]
        used_nodes: Set[int] = set()
        for arc in arcs:
            used_nodes.add(arc.product)
            used_nodes.update(arc.precursors)
        if self.root is not None:
            used_nodes.add(self.root)
        lines = ["digraph routes {", "  rankdir=BT;"]
        for node_id, node in self.nodes.items():  # in id order
            if node_id not in used_nodes:
                continue
            color = "green" if node.in_stock else "black"
            shape_attrs = f'label="{node.smiles}", shape=ellipse, color={color}'
            if node_id == self.root:
                shape_attrs += ", penwidth=2"
            lines.append(f'  n{node_id} [{shape_attrs}];')
        for arc in arcs:
            junction = f"a{arc.id}"
            lines.append(f'  {junction} [label="{arc.class_code}\\nL={arc.forward_likelihood:.3f}", '
                         "shape=square, width=0.15, fontsize=8];")
            lines.append(f"  {junction} -> n{arc.product};")
            for p in arc.precursors:
                style = "dashed" if p in arc.reagents else "solid"
                lines.append(f"  n{p} -> {junction} [style={style}];")
        lines.append("}")
        return "\n".join(lines) + "\n"

