"""Reference verdicts that the benchmark checks conemix's outputs against.

Nothing here imports conemix.  Stochastic maps are judged from their
transition digraph alone, with this module's own strongly-connected-
component and period code:

* ergodic      <=> exactly one closed communicating class;
* mixing       <=> ergodic and that class is aperiodic;
* irreducible  <=> the digraph is strongly connected;
* primitive    <=> strongly connected and aperiodic.

Maps built so that their verdicts are known (dense generator maps, square-
cone rotations, random channels) use the constant verdict sets below.
"""

from __future__ import annotations

import math

VERDICTS = ("ergodic", "mixing", "irreducible", "primitive")

#: dense cone-positive maps send every nonzero cone vector to the interior
PRIMITIVE = dict.fromkeys(VERDICTS, True)
#: a rotation of the square cone permutes its four extreme rays cyclically
ROTATION = {"ergodic": True, "mixing": False, "irreducible": True,
            "primitive": False}


def transition_digraph(matrix) -> list:
    """Successor lists of a column-stochastic matrix: j -> i iff A[i][j] > 0."""
    d = len(matrix)
    return [[i for i in range(d) if matrix[i][j] > 0] for j in range(d)]


def components(succ) -> list:
    """Strongly connected components (iterative Kosaraju), as sorted lists."""
    n = len(succ)
    seen = [False] * n
    order = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(succ[root]))]
        while stack:
            v, it = stack[-1]
            w = next(it, None)
            if w is None:
                stack.pop()
                order.append(v)
            elif not seen[w]:
                seen[w] = True
                stack.append((w, iter(succ[w])))
    pred = [[] for _ in range(n)]
    for v in range(n):
        for w in succ[v]:
            pred[w].append(v)
    comp_of = [-1] * n
    comps = []
    for root in reversed(order):
        if comp_of[root] != -1:
            continue
        comp_of[root] = len(comps)
        members = [root]
        frontier = [root]
        while frontier:
            v = frontier.pop()
            for w in pred[v]:
                if comp_of[w] == -1:
                    comp_of[w] = len(comps)
                    members.append(w)
                    frontier.append(w)
        comps.append(sorted(members))
    return comps


def class_period(succ, members) -> int:
    """Period of the subgraph induced on one strongly connected class.

    Every edge (u, v) inside the class contributes |level(u) + 1 - level(v)|
    of a BFS layering to a gcd; a class without cycles has period 0.
    """
    inside = set(members)
    level = {members[0]: 0}
    frontier = [members[0]]
    while frontier:
        nxt = []
        for u in frontier:
            for v in succ[u]:
                if v in inside and v not in level:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    p = 0
    for u in members:
        for v in succ[u]:
            if v in inside:
                p = math.gcd(p, abs(level[u] + 1 - level[v]))
    return p


def chain_verdicts(matrix) -> dict:
    """Verdicts of a column-stochastic matrix, from its digraph alone."""
    succ = transition_digraph(matrix)
    comps = components(succ)
    comp_of = {v: k for k, comp in enumerate(comps) for v in comp}
    closed = [comp for k, comp in enumerate(comps)
              if all(comp_of[w] == k for v in comp for w in succ[v])]
    ergodic = len(closed) == 1
    aperiodic = ergodic and class_period(succ, closed[0]) == 1
    irreducible = len(comps) == 1
    return {"ergodic": ergodic, "mixing": aperiodic,
            "irreducible": irreducible, "primitive": irreducible and aperiodic}


def mismatches(expected: dict, got: dict, label: str) -> list:
    """One message per verdict where ``got`` differs from ``expected``."""
    return [f"{label}: {key} is {got.get(key)}, expected {expected[key]}"
            for key in VERDICTS if got.get(key) != expected[key]]
