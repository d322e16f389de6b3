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

The adjacency is held once, as rows of uint64 words, and one move (`_move`)
toggles them for both `decimate` and `apply_rule`.  Each step scores all
3 n^2 candidate moves in one vectorized numpy pass over those rows; the first
minimum in (rule, i, j) order wins, so the tie-break (and every emitted
circuit) is the one of a plain scan over the moves in that order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from numbers import Real

import numpy as np

from .circuits import Circuit, Gate, cz, cx, cy, listing_qubits, require_qubit_count, z
from .tableau import CliffordTableau, tableau_of, tableau_of_cz_edges


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
        require_qubit_count(self.num_qubits)
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
# the moves, on adjacency rows of uint64 words (bit k & 63 of word k >> 6 of
# row q = edge (q, k))
# --------------------------------------------------------------------------

def _rows(graph: CZGraph) -> np.ndarray:
    """The adjacency as an (n, ceil(n / 64)) array of little-endian uint64 words."""
    n = graph.num_qubits
    dense = np.zeros((n, 64 * ((n + 63) // 64)), dtype=bool)
    a, b = np.array(list(graph.edges), dtype=np.intp).reshape(-1, 2).T
    dense[a, b] = dense[b, a] = True
    return np.packbits(dense, axis=1, bitorder="little").view("<u8")


def _move(rows: np.ndarray, rule: DecimationRule, i: int,
          j: int) -> tuple[list[Gate], list[Gate]]:
    """Apply the move on (i, j) to `rows` in place: toggle the edges (i, k) for
    k in the rule's target set minus i.  Returns (V, W) with U_G = W U_G' V,
    G before and G' after the move."""
    bit_i = np.uint64(1 << (i & 63))
    z_i = bool(rows[j, i >> 6] & bit_i)  # i in n(j), read before toggling
    mask = np.zeros_like(rows[j]) if rule is DecimationRule.CZ_REMOVAL else rows[j].copy()
    if rule is not DecimationRule.CX_CONJUGATION:
        mask[j >> 6] ^= np.uint64(1 << (j & 63))
    mask[i >> 6] &= ~bit_i
    in_mask = np.unpackbits(mask.view(np.uint8), count=len(rows), bitorder="little")
    rows[i] ^= mask
    rows[:, i >> 6] ^= in_mask * bit_i

    if rule is DecimationRule.CZ_REMOVAL:
        return [cz(i, j)], []
    v = [cx(i, j) if rule is DecimationRule.CX_CONJUGATION else cy(i, j)]
    if z_i:
        v.append(z(i))
    return v, [cx(i, j)]


def apply_rule(graph: CZGraph, step: DecimationStep) -> CZGraph:
    n, i, j = graph.num_qubits, step.i, step.j
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"invalid step qubits ({i},{j})")
    rows = _rows(graph)
    _move(rows, step.rule, i, j)
    dense = np.unpackbits(rows.view(np.uint8), axis=1, bitorder="little")[:, :n]
    return CZGraph(n, frozenset(map(tuple, np.argwhere(np.triu(dense, 1)).tolist())))


# --------------------------------------------------------------------------
# greedy decimation
# --------------------------------------------------------------------------

def check_depth_penalty(depth_penalty: float) -> None:
    """Raise ValueError unless the depth penalty is a finite real number (any
    sign) and not a bool."""
    if isinstance(depth_penalty, bool) or not isinstance(depth_penalty, Real):
        raise ValueError(f"depth_penalty must be a real number, got {depth_penalty!r}")
    if not math.isfinite(depth_penalty):
        raise ValueError(f"depth_penalty must be finite, got {depth_penalty}")


def decimate(graph: CZGraph, depth_penalty: float = 0.5) -> Circuit:
    """Synthesize a circuit realizing U_G exactly (phases included).

    Step t rewrites G_t into G_{t+1} with U_{G_t} = W_t U_{G_{t+1}} V_t, so the
    emitted gate order is [V_1 .. V_m, W_m .. W_1].  `depth_penalty` must be
    finite; it may be negative.
    """
    check_depth_penalty(depth_penalty)
    n = graph.num_qubits
    words = _rows(graph)
    width = words.shape[1]
    edge_count = graph.num_edges
    qubit = np.arange(n)
    word_of, bit_of = qubit >> 6, (qubit & 63).astype(np.uint64)
    costs = np.array(_COSTS)
    in_layer = np.zeros(n, dtype=bool)

    v_side: list[Gate] = []
    w_side: list[list[Gate]] = []

    while edge_count:
        # delta[rule, i, j] = |row_i ^ (target[rule, j] & ~bit_i)| - deg_i, the
        # edge-count change of the move, from the Hamming distance
        # h = |row_i ^ row_j| and the edge bit a = A[i, j] (i != j): CZ removal
        # toggles one edge, 1 - 2a; CX conjugation h - a - deg_i, as
        # row_i ^ row_j holds bit i exactly when a; the wrap also toggles bit j
        # of that, so it is the sum of the two.
        a = ((words[:, word_of] >> bit_of) & 1).astype(np.int32)
        h = np.zeros((n, n), dtype=np.int32)
        for w in range(width):
            h += np.bitwise_count(words[:, None, w] ^ words[None, :, w])
        delta = np.empty((3, n, n), dtype=np.int32)
        np.subtract(1, 2 * a, out=delta[0])
        np.subtract(h - a, a.sum(1, dtype=np.int32)[:, None], out=delta[1])
        np.add(delta[0], delta[1], out=delta[2])
        shrinks = delta < 0
        shrinks[:, qubit, qubit] = False  # no move; an isolated j has delta >= 0

        # score the shrinking moves as (delta + cost) + penalty; argmin takes the
        # first minimum in C order, i.e. the tie-break on (rule, i, j)
        cand = np.flatnonzero(shrinks)
        rules, i_s, j_s = np.unravel_index(cand, shrinks.shape)
        pen = np.where(in_layer[i_s] | in_layer[j_s], depth_penalty, 0.0)
        score = (delta.ravel()[cand] + costs[rules]) + pen
        best = int(cand[np.argmin(score)])
        rule, i, j = (int(x) for x in np.unravel_index(best, shrinks.shape))

        v_gates, w_gates = _move(words, DecimationRule(rule), i, j)
        edge_count += int(delta.flat[best])
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
        if a == b:
            raise ValueError(f"line {lineno}: self-loop ({a}, {b}) is not allowed")
        if n is not None and max(a, b) >= n:
            raise ValueError(f"line {lineno}: edge ({a}, {b}) out of range for {n} qubits")
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
