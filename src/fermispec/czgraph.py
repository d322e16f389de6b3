"""CZ-circuit synthesis by greedy graph decimation.

A CZ circuit is a simple graph G with U_G = prod_{(i,j) in E} CZ_{i,j}.
Three rewrite moves on (i, j) toggle the edges (i, k), k != i, and satisfy
U_G = W U_{G'} V, with V and W in circuit order:

  move                 k ranges over      V          W     cost
  CzRemoval(i,j)       {j}                CZ         -     1
  CxConjugation(i,j)   n(j)               CX [Z_i]   CX    2
  CxCyWrap(i,j)        n(j) ^ {j}         CY [Z_i]   CX    2

CX/CY take i as control.  Both CX moves emit the Z_i by-product exactly when
i in n(j): that is when the toggle set would contain the self-pair (i,i),
which is dropped (validated against the dense oracle in the tests).

The greedy loop picks, among the moves that shrink the graph, the one
minimizing |G'| - |G| + C, plus a tunable penalty for moves that cannot join
the current circuit layer; ties break lexicographically on (rule, i, j).
Removing an existing edge always shrinks the graph, so a candidate exists
while edges remain, and the loop terminates for any finite penalty.

The adjacency A is held once, as an n x n float32 array of 0s and 1s, and one
move (`_move`) toggles it for both `decimate` and `apply_rule`.  With a = A[i, j]
and c = (A A)[i, j] the common neighbours, the three moves change |G| by
1 - 2a, deg_j - 2c - a and deg_j - 2c - 3a + 1.  On a non-edge CX conjugation
thus scores exactly 1 below the wrap, on an edge the wrap exactly 1 below CX
conjugation, and the dominated move shrinks the graph only when the other
does, so it never wins.  What can win is CZ removal (0 or the penalty, on an
edge) or

  y[i, j] = deg_j - 2 (A A + A)[i, j] + 2,

the score of CX conjugation on a non-edge and of the wrap on an edge, whose
move shrinks the graph iff y < 2.  Each step reads y from one BLAS product A A
(exact: its integers stay below 2^24; its diagonal holds the degrees) and adds
the penalty once, into one float64 array.  Its first minimum, with CZ removal
winning ties and then a non-edge, is the first minimum over (rule, i, j) of a
plain scan over the moves in that order, so every emitted circuit is the scan's.
Only a penalty beyond 2^52 in size, whose rounding can give y and y + 1 the
same score, lets a dominated move tie; the minimum's few hits check for that.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .circuits import (Circuit, Gate, are_qubits, cz, cx, cy, listing_qubits,
                       require_finite_real, require_integer, require_memory, require_qubits, z)
from .tableau import CliffordTableau, tableau_of, tableau_of_cz_edges


@dataclass(frozen=True)
class CZGraph:
    num_qubits: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        require_integer("num_qubits", self.num_qubits)
        edges = set()
        for a, b in self.edges:
            if not are_qubits((a, b), self.num_qubits):
                require_qubits(f"edge ({a}, {b})", (a, b), self.num_qubits)
            if (edge := (a, b) if a < b else (b, a)) in edges:  # CZ squares to the identity
                raise ValueError(f"repeated edge ({a}, {b})")
            edges.add(edge)
        object.__setattr__(self, "edges", frozenset(edges))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def tableau(self) -> CliffordTableau:
        return tableau_of_cz_edges(self.num_qubits, self.edges)


def graph_from_edges(num_qubits: int, edges) -> CZGraph:
    return CZGraph(num_qubits, edges)


class DecimationRule(Enum):
    CZ_REMOVAL = 0
    CX_CONJUGATION = 1
    CX_CY_WRAP = 2


_COSTS = (1, 2, 2)  # two-qubit gates per move, by rule value


@dataclass(frozen=True)
class DecimationStep:
    rule: DecimationRule
    i: int
    j: int

    @property
    def cost(self) -> int:
        return _COSTS[self.rule.value]


# --------------------------------------------------------------------------
# the moves, on the dense 0/1 adjacency (float32, so that A @ A runs in BLAS)
# --------------------------------------------------------------------------

def _rows(graph: CZGraph) -> np.ndarray:
    """The adjacency as an n x n float32 array of 0s and 1s."""
    n = graph.num_qubits
    adj = np.zeros((n, n), dtype=np.float32)
    a, b = np.array(list(graph.edges), dtype=np.intp).reshape(-1, 2).T
    adj[a, b] = adj[b, a] = 1.0
    return adj


def _move(adj: np.ndarray, rule: DecimationRule, i: int,
          j: int) -> tuple[list[Gate], list[Gate]]:
    """Apply the move on (i, j) to `adj` in place: toggle the edges (i, k) for
    k in the rule's target set minus i.  Returns (V, W) with U_G = W U_G' V,
    G before and G' after the move."""
    z_i = bool(adj[j, i])  # i in n(j), read before toggling
    mask = np.zeros(len(adj), adj.dtype) if rule is DecimationRule.CZ_REMOVAL else adj[j].copy()
    if rule is not DecimationRule.CX_CONJUGATION:
        mask[j] = 1.0 - mask[j]
    mask[i] = 0.0
    adj[i] = adj[:, i] = adj[i] != mask

    if rule is DecimationRule.CZ_REMOVAL:
        return [cz(i, j)], []
    v = [cx(i, j) if rule is DecimationRule.CX_CONJUGATION else cy(i, j)]
    if z_i:
        v.append(z(i))
    return v, [cx(i, j)]


def apply_rule(graph: CZGraph, step: DecimationStep) -> CZGraph:
    n, i, j = graph.num_qubits, step.i, step.j
    require_qubits(f"step qubits ({i}, {j})", (i, j), n)
    adj = _rows(graph)
    _move(adj, step.rule, i, j)
    return CZGraph(n, frozenset(map(tuple, np.argwhere(np.triu(adj, 1)).tolist())))


# --------------------------------------------------------------------------
# greedy decimation
# --------------------------------------------------------------------------

def decimate(graph: CZGraph, depth_penalty: float = 0.5) -> Circuit:
    """Synthesize a circuit realizing U_G exactly (phases included).

    Step t rewrites G_t into G_{t+1} with U_{G_t} = W_t U_{G_{t+1}} V_t, so the
    emitted gate order is [V_1 .. V_m, W_m .. W_1].  `depth_penalty` must be
    finite; it may be negative.  Too large a graph fails the memory rule first.
    """
    require_finite_real("depth_penalty", depth_penalty)
    depth_penalty = float(depth_penalty)  # float64 scores for every real type
    n = graph.num_qubits
    # a scoring step holds about 41 B per (i, j) (float32 A and y; float64
    # penalty, scores and CZ scores, each built while the last step's is still
    # held; a bool mask), the gates emitted so far the rest: over n in
    # {100, 200, 300}, densities {0.1, 0.5, 0.9} and penalties {-1, 0, 0.5}
    # tracemalloc measured at most 56 n^2 B above the circuit, 82 n^2 B in all
    require_memory(96 * n * n, f"decimate on {n} qubits would hold its scoring arrays")
    adj = _rows(graph)
    in_layer = np.zeros(n, dtype=bool)

    v_side: list[Gate] = []
    w_side: list[list[Gate]] = []

    while True:
        # y in place on A A (float32), inf where no move of the CX family shrinks
        y = adj @ adj
        deg = y.diagonal().copy()
        if not deg.any():
            break
        y += adj
        y *= -2.0
        y += deg + 2.0
        y[y >= 2.0] = np.inf
        y.flat[::n + 1] = np.inf

        # add the penalty once; the first minimum in C order is the tie-break on
        # (i, j), CZ removal before CX conjugation (non-edges) before the wrap
        pen = np.where(in_layer[:, None] | in_layer, depth_penalty, 0.0)
        score = y + pen
        cz_scores = np.where(adj, pen, np.inf)
        best, rule = int(np.argmin(cz_scores)), DecimationRule.CZ_REMOVAL
        m = score.min()
        if m < cz_scores.flat[best]:
            hits = np.flatnonzero(score == m)
            # CX conjugation first: on a non-edge, or on an edge where y + 1 +
            # pen rounds to the wrap's score (only for |pen| beyond 2^52)
            yh = y.flat[hits]
            cx = (adj.flat[hits] == 0) | ((yh < 1) & (yh + 1.0 + pen.flat[hits] == m))
            k = int(np.argmax(cx))
            best = int(hits[k])
            rule = DecimationRule.CX_CONJUGATION if cx[k] else DecimationRule.CX_CY_WRAP
        i, j = divmod(best, n)

        v_gates, w_gates = _move(adj, rule, i, j)
        v_side.extend(v_gates)
        w_side.append(w_gates)

        if in_layer[i] or in_layer[j]:
            in_layer[:] = False
        in_layer[[i, j]] = True

    gates = v_side + [g for gs in reversed(w_side) for g in gs]
    return Circuit(n, tuple(gates), {"steps": len(w_side)})


def verify_equivalence(circuit: Circuit, graph: CZGraph) -> bool:
    """Tableau equality (global phase quotiented) of the circuit against U_G;
    raises NonCliffordGateError on a gate outside the Clifford group."""
    if circuit.num_qubits != graph.num_qubits:
        return False
    return tableau_of(circuit) == graph.tableau()


# --------------------------------------------------------------------------
# edge-list file format: one "i j" pair per line, '#' comments
# --------------------------------------------------------------------------

def parse_edge_list(text: str, num_qubits: int | None = None) -> CZGraph:
    """Parse the edge-list format; the register size is `listing_qubits`, as
    in `parse_circuit`.  A malformed line, a self-loop, an edge outside a
    register size the listing fixes, or an edge listed twice in either order
    (CZ squares to the identity), raises ValueError naming its line."""
    n = listing_qubits(text, num_qubits)
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2 or not all(f.isdecimal() for f in fields):
            raise ValueError(f"line {lineno}: expected 'i j', got {line!r}")
        a, b = int(fields[0]), int(fields[1])
        # with no register size fixed yet, only a self-loop can fail
        require_qubits(f"line {lineno}: edge ({a}, {b})", (a, b),
                       max(a, b) + 1 if n is None else n)
        if (a, b) in edges or (b, a) in edges:
            raise ValueError(f"line {lineno}: repeated edge ({a}, {b})")
        edges.add((a, b))
    if n is None:
        n = max(1, 1 + max((q for e in edges for q in e), default=-1))
    return graph_from_edges(n, edges)


def format_edge_list(graph: CZGraph) -> str:
    lines = [f"# qubits: {graph.num_qubits}"]
    lines += [f"{a} {b}" for (a, b) in sorted(graph.edges)]
    return "\n".join(lines) + "\n"
