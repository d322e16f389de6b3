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
while edges remain, and the loop terminates for any penalty.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .circuits import Circuit, Gate, GateKind, cz, cx, cy, z
from .tableau import CliffordTableau, tableau_of, tableau_of_cz_edges

_CLIFFORD_VERIFY_KINDS = frozenset({GateKind.CZ, GateKind.CX, GateKind.CY,
                                    GateKind.Z, GateKind.S, GateKind.SDG,
                                    GateKind.BARRIER})


def _norm_edge(e) -> tuple[int, int]:
    a, b = e
    if a == b:
        raise ValueError("self-loops are not allowed")
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class CZGraph:
    num_qubits: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "edges", frozenset(_norm_edge(e) for e in self.edges))
        for (a, b) in self.edges:
            if not (0 <= a < self.num_qubits and 0 <= b < self.num_qubits):
                raise ValueError(f"edge ({a},{b}) out of range")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def tableau(self) -> CliffordTableau:
        return tableau_of_cz_edges(self.num_qubits, self.edges)


def graph_from_edges(num_qubits: int, edges) -> CZGraph:
    return CZGraph(num_qubits, frozenset(_norm_edge(e) for e in edges))


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
# the moves, on a bitmask adjacency list (bit k of adj[q] = edge (q, k))
# --------------------------------------------------------------------------

def _adjacency(graph: CZGraph) -> list[int]:
    adj = [0] * graph.num_qubits
    for (a, b) in graph.edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def _targets(adj: list[int], j: int) -> tuple[int, int, int]:
    """For rule value r = 0, 1, 2: the mask of k whose edge (i, k) the move
    on (i, j) toggles.  The caller drops bit i."""
    return (1 << j, adj[j], adj[j] ^ (1 << j))


def _toggle(adj: list[int], i: int, mask: int) -> None:
    """Toggle the edges (i, k) for every bit k of `mask`, in place."""
    adj[i] ^= mask
    while mask:
        low = mask & -mask
        adj[low.bit_length() - 1] ^= 1 << i
        mask ^= low


def _move_gates(adj: list[int], rule: DecimationRule, i: int,
                j: int) -> tuple[list[Gate], list[Gate]]:
    """(V, W) with U_G = W U_G' V, G' the graph after the move on `adj`."""
    if rule is DecimationRule.CZ_REMOVAL:
        return [cz(i, j)], []
    v = [cx(i, j) if rule is DecimationRule.CX_CONJUGATION else cy(i, j)]
    if (adj[j] >> i) & 1:
        v.append(z(i))
    return v, [cx(i, j)]


def apply_rule(graph: CZGraph, step: DecimationStep) -> CZGraph:
    n, i, j = graph.num_qubits, step.i, step.j
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"invalid step qubits ({i},{j})")
    adj = _adjacency(graph)
    _toggle(adj, i, _targets(adj, j)[step.rule.value] & ~(1 << i))
    return CZGraph(n, frozenset((a, b) for a in range(n) for b in range(a + 1, n)
                                if (adj[a] >> b) & 1))


# --------------------------------------------------------------------------
# greedy decimation
# --------------------------------------------------------------------------

def decimate(graph: CZGraph, depth_penalty: float = 0.5) -> Circuit:
    """Synthesize a circuit realizing U_G exactly (phases included).

    Step t rewrites G_t into G_{t+1} with U_{G_t} = W_t U_{G_{t+1}} V_t, so the
    emitted gate order is [V_1 .. V_m, W_m .. W_1].
    """
    n = graph.num_qubits
    adj = _adjacency(graph)
    edge_count = graph.num_edges

    v_side: list[Gate] = []
    w_side: list[list[Gate]] = []
    layer_mask = 0

    while edge_count:
        targets = [_targets(adj, j) for j in range(n)]
        best = None  # (score, rule value, i, j, delta)
        for i in range(n):
            bit_i, row = 1 << i, adj[i]
            degree = row.bit_count()
            for j in range(n):
                if j == i or not adj[j]:
                    continue  # an isolated j offers no shrinking move
                pen = depth_penalty if layer_mask & (bit_i | (1 << j)) else 0.0
                for rule, target in enumerate(targets[j]):
                    delta = (row ^ (target & ~bit_i)).bit_count() - degree
                    if delta < 0:
                        cand = (delta + _COSTS[rule] + pen, rule, i, j, delta)
                        if best is None or cand < best:
                            best = cand
        _, rule, i, j, delta = best
        v_gates, w_gates = _move_gates(adj, DecimationRule(rule), i, j)
        _toggle(adj, i, targets[j][rule] & ~(1 << i))
        edge_count += delta
        v_side.extend(v_gates)
        w_side.append(w_gates)

        qubits_mask = (1 << i) | (1 << j)
        layer_mask = qubits_mask if layer_mask & qubits_mask else layer_mask | qubits_mask

    gates = v_side + [g for gs in reversed(w_side) for g in gs]
    return Circuit(n, tuple(gates), {"steps": len(w_side)})


def verify_equivalence(circuit: Circuit, graph: CZGraph) -> bool:
    """Tableau equality (global phase quotiented) of the circuit against U_G."""
    for g in circuit.gates:
        if g.kind not in _CLIFFORD_VERIFY_KINDS:
            raise ValueError(f"non-Clifford verification gate: {g.kind.value}")
    if circuit.num_qubits != graph.num_qubits:
        return False
    return tableau_of(circuit) == graph.tableau()


# --------------------------------------------------------------------------
# edge-list file format: one "i j" pair per line, '#' comments
# --------------------------------------------------------------------------

def parse_edge_list(text: str, num_qubits: int | None = None) -> CZGraph:
    """Parse the edge-list format; an explicit `num_qubits` wins over a
    `# qubits:` header, as in `parse_circuit`."""
    edges = []
    declared = num_qubits
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            if "qubits:" in raw and num_qubits is None:
                declared = int(raw.split("qubits:")[1].strip())
            continue
        fields = line.split()
        if len(fields) != 2 or not all(f.isdigit() for f in fields):
            raise ValueError(f"line {lineno}: expected 'i j', got {line!r}")
        edges.append((int(fields[0]), int(fields[1])))
    n = declared
    if n is None:
        n = 1 + max((q for e in edges for q in e), default=-1)
        n = max(n, 1)
    return graph_from_edges(n, edges)


def format_edge_list(graph: CZGraph) -> str:
    lines = [f"# qubits: {graph.num_qubits}"]
    lines += [f"{a} {b}" for (a, b) in sorted(graph.edges)]
    return "\n".join(lines) + "\n"
