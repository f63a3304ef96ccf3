"""Output checks that share no code with the package.

Each check returns a list of problems; an empty list means the output is
correct. The checks read the package's outputs as plain JSON or DOT text and
compare them with the generator's ground truth (see chemgen.py).
"""

from __future__ import annotations

import re
from typing import Dict, List, Sequence, Set

MAX_STEPS = 6


def check_routes(
    target: str,
    routes: Sequence[dict],
    truth: Dict[str, List[dict]],
    stock: Set[str],
    dead: Set[str],
) -> List[str]:
    """Check the routes planned for one target.

    Every solved step must be an accepted generated template with its
    likelihood and class, every leaf must be in stock, and the steps must
    form one tree rooted at the target. The target must be solved exactly
    when it is not dead.
    """
    problems: List[str] = []
    solved = [r for r in routes if r.get("status") == "solved"]
    if bool(solved) == (target in dead):
        problems.append(
            f"{target}: {len(solved)} solved routes, but the target is "
            f"{'dead' if target in dead else 'solvable'}"
        )
    for i, route in enumerate(solved):
        where = f"{target} route {i}"
        steps = route.get("steps", [])
        if route.get("n_steps") != len(steps) or not 0 < len(steps) <= MAX_STEPS:
            problems.append(f"{where}: {len(steps)} steps, n_steps {route.get('n_steps')}")
            continue
        if not route.get("cumulative_score", 0) > 0:
            problems.append(f"{where}: non-positive score")
        for step in steps:
            if not _is_accepted_template(step, truth):
                problems.append(f"{where}: step {step.get('product')} is not an accepted template")
        problems += [f"{where}: {p}" for p in _tree_problems(target, steps, stock)]
    return problems


def _is_accepted_template(step: dict, truth: Dict[str, List[dict]]) -> bool:
    for entry in truth.get(step.get("product"), ()):
        if (
            entry["accepted"]
            and sorted(step.get("precursors", [])) == entry["reactants"]
            and sorted(step.get("reagents", [])) == sorted(entry["reagents"])
            and step.get("class") == entry["class"]
            and abs(step.get("likelihood", -1.0) - entry["likelihood"]) < 1e-9
        ):
            return True
    return False


def _tree_problems(target: str, steps: Sequence[dict], stock: Set[str]) -> List[str]:
    by_product: Dict[str, dict] = {}
    for step in steps:
        if step["product"] in by_product:
            return [f"{step['product']} is made twice"]
        by_product[step["product"]] = step
    if target not in by_product:
        return ["no step makes the target"]
    visited: Set[str] = set()
    problems: List[str] = []
    todo = [target]
    while todo:
        molecule = todo.pop()
        step = by_product.get(molecule)
        if step is None:
            if molecule not in stock:
                problems.append(f"leaf {molecule} is not in stock")
            continue
        if molecule in visited:
            problems.append(f"{molecule} is reached twice")
            continue
        visited.add(molecule)
        todo.extend(step["precursors"])
    if len(visited) != len(by_product):
        problems.append(f"{len(by_product) - len(visited)} steps are not connected to the target")
    return problems


def expected_eval(targets: Sequence[str], truth: Dict[str, List[dict]]) -> Dict[str, float]:
    """Round-trip accuracy and coverage (percent) the toy models must give.

    A suggestion round-trips when the forward top-1 of its precursors is
    the target; a target is covered when one of its suggestions does.
    """
    total = valid = covered = 0
    for target in targets:
        entries = truth.get(target, [])
        hits = sum(1 for e in entries if e["top1"] == target)
        total += len(entries)
        valid += hits
        covered += 1 if hits else 0
    return {
        "round_trip_pct": 100.0 * valid / total,
        "coverage_pct": 100.0 * covered / len(targets),
        "n_suggestions": total,
        "n_targets": len(targets),
    }


def check_eval_report(
    targets: Sequence[str], report: dict, truth: Dict[str, List[dict]]
) -> List[str]:
    """Compare an eval report with the recomputation from the ground truth."""
    expected = expected_eval(targets, truth)
    problems = []
    for key, value in expected.items():
        if not isinstance(report.get(key), (int, float)) or abs(report[key] - value) > 1e-9:
            problems.append(f"eval {key}: got {report.get(key)!r}, expected {value!r}")
    return problems


_NODE_LINE = re.compile(r"^\s*n(\d+) \[")
_JUNCTION_LINE = re.compile(r"^\s*a(\d+) \[")
_EDGE_LINE = re.compile(r"^\s*(n|a)(\d+) -> (n|a)(\d+)")


def dot_expectation(snapshot: dict) -> dict:
    """What the DOT rendering of a snapshot must contain, without the snapshot."""
    return {
        "nodes": sorted(n["id"] for n in snapshot["nodes"]),
        "arcs": sorted(a["id"] for a in snapshot["arcs"]),
        "edges": sum(1 + len(a["precursors"]) for a in snapshot["arcs"]),
    }


def check_dot(expected: dict, dot: str) -> List[str]:
    """One node per snapshot node, one junction per arc, and their edges."""
    nodes: List[int] = []
    junctions: List[int] = []
    edges = 0
    for line in dot.splitlines():
        if _EDGE_LINE.match(line):
            edges += 1
        elif (m := _NODE_LINE.match(line)) is not None:
            nodes.append(int(m.group(1)))
        elif (m := _JUNCTION_LINE.match(line)) is not None:
            junctions.append(int(m.group(1)))
    problems = []
    if sorted(nodes) != expected["nodes"]:
        problems.append(f"dot has {len(nodes)} nodes, snapshot {len(expected['nodes'])}")
    if sorted(junctions) != expected["arcs"]:
        problems.append(f"dot has {len(junctions)} junctions, snapshot {len(expected['arcs'])}")
    if edges != expected["edges"]:
        problems.append(f"dot has {edges} edges, expected {expected['edges']}")
    return problems
