import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermispec import czgraph, verify
from fermispec.circuits import Circuit, GateKind, cx, cy, cz, format_circuit, z
from fermispec.czgraph import (CZGraph, DecimationRule, DecimationStep, _move,
                               _rows, apply_rule, decimate, format_edge_list,
                               graph_from_edges, parse_edge_list,
                               verify_equivalence)
from fermispec.fft import FFTPlan, InterleaveStrategy, interleave_cz_graph, \
    interleave_permutation, imported_interleave_sequence
from fermispec.statevector import circuit_unitary, unitaries_equal_up_to_phase
from fermispec.tableau import NonCliffordGateError, tableau_of


def su(c):
    return circuit_unitary(c)


def cz_unitary(g: CZGraph):
    return su(Circuit(g.num_qubits, tuple(cz(a, b) for (a, b) in sorted(g.edges))))


# ---------------------------------------------------------------- rules

def test_cz_removal_toggles_and_involutes():
    g = graph_from_edges(3, [])
    step = DecimationStep(DecimationRule.CZ_REMOVAL, 0, 2)
    g1 = apply_rule(g, step)
    assert g1.edges == frozenset({(0, 2)})
    assert apply_rule(g1, step) == g


def test_cx_conjugation_star():
    # star centered at j=1 with leaves 2,3; i=0 not adjacent to 1
    g = graph_from_edges(4, [(1, 2), (1, 3)])
    step = DecimationStep(DecimationRule.CX_CONJUGATION, 0, 1)
    g1 = apply_rule(g, step)
    assert g1.edges == frozenset({(1, 2), (1, 3), (0, 2), (0, 3)})
    v, _ = _move(_rows(g), step.rule, step.i, step.j)
    assert GateKind.Z not in [gate.kind for gate in v]


def test_cx_conjugation_involution():
    # n(j) never contains edges toggled by the move, so applying twice restores
    g = graph_from_edges(5, [(0, 1), (1, 2), (1, 3), (2, 4)])
    for (i, j) in [(0, 1), (4, 1), (2, 3), (3, 1)]:
        step = DecimationStep(DecimationRule.CX_CONJUGATION, i, j)
        assert apply_rule(apply_rule(g, step), step) == g


def test_cx_cy_wrap_on_path():
    # path 0-1-2, wrap on (0,1): toggles (0,2) and (0,1)
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    step = DecimationStep(DecimationRule.CX_CY_WRAP, 0, 1)
    g1 = apply_rule(g, step)
    assert g1.edges == frozenset({(1, 2), (0, 2)})


def test_rule_identities_dense():
    """U_G = W U_G' V holds exactly on the gates each move emits, Z_i by-products included."""
    for edges in ([(0, 1)], [(1, 2)], [(0, 1), (1, 2)], [(0, 1), (0, 2), (1, 2)], []):
        g = graph_from_edges(3, edges)
        ug = cz_unitary(g)
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                for rule in DecimationRule:
                    g1 = apply_rule(g, DecimationStep(rule, i, j))
                    v, w = _move(_rows(g), rule, i, j)
                    rhs = su(Circuit(3, tuple(w))) @ cz_unitary(g1) @ su(Circuit(3, tuple(v)))
                    assert np.max(np.abs(ug - rhs)) < 1e-12, (edges, rule, i, j)


def test_apply_rule_validates_indices():
    g = graph_from_edges(3, [])
    with pytest.raises(ValueError):
        apply_rule(g, DecimationStep(DecimationRule.CZ_REMOVAL, 1, 1))
    with pytest.raises(ValueError):
        apply_rule(g, DecimationStep(DecimationRule.CZ_REMOVAL, 0, 5))
    for i, j in ((0, 1.5), (0, True), (-1, 2)):
        with pytest.raises(ValueError, match="step qubits .* out of range for 3 qubits"):
            apply_rule(g, DecimationStep(DecimationRule.CZ_REMOVAL, i, j))


@pytest.mark.parametrize("edge", [(0, 1.5), (0, True), (-1, 2), (0, 3), (1, 1)])
def test_graph_rejects_bad_edges(edge):
    """A float edge used to pass and be truncated: (0, 1.5) decimated to CZ(0, 1)."""
    with pytest.raises(ValueError,
                       match=r"edge \(.*\) (out of range for 3 qubits|repeats a qubit)"):
        decimate(CZGraph(3, {edge}))


@pytest.mark.parametrize("build", [
    lambda: graph_from_edges(3, [(0, 1), (1, 0)]),
    lambda: graph_from_edges(3, [(1, 2), (0, 2), (1, 2)]),
    lambda: CZGraph(3, frozenset({(0, 1), (1, 0)})),
], ids=["list-reversed", "list-twice", "frozenset-reversed"])
def test_graph_rejects_repeated_edge(build):
    """An edge listed twice in either order used to collapse to one edge, and
    `decimate` emitted CZ(0, 1) for a product that is the identity."""
    with pytest.raises(ValueError, match=r"repeated edge \((0, 1|1, 0|1, 2)\)"):
        build()
    g = graph_from_edges(4, [(1, 0), (2, 1), (np.int64(3), 0)])
    assert g.edges == frozenset({(0, 1), (1, 2), (0, 3)}) and g.num_edges == 3


def test_step_costs():
    assert DecimationStep(DecimationRule.CZ_REMOVAL, 0, 1).cost == 1
    assert DecimationStep(DecimationRule.CX_CONJUGATION, 0, 1).cost == 2
    assert DecimationStep(DecimationRule.CX_CY_WRAP, 0, 1).cost == 2


# ---------------------------------------------------------------- decimate

def test_decimate_empty_graph():
    assert decimate(graph_from_edges(3, [])).gates == ()


def test_decimate_single_edge():
    c = decimate(graph_from_edges(2, [(0, 1)]))
    assert [g.kind for g in c.gates] == [GateKind.CZ]


def test_decimate_nine_qubit_interleave():
    g = interleave_cz_graph(interleave_permutation(9, 3))
    c = decimate(g)
    assert verify.decimation_sound([(g, c)], dense_tol=None)  # 9 edges: <= 9 gates
    wrong = verify.decimation_sound([(g, c), (g, Circuit(9, c.gates[:-1], c.meta))],
                                    dense_tol=None)
    assert not wrong and "trial 1 (9 qubits, 9 edges): tableau" in wrong.detail
    assert tableau_of(c) == tableau_of(imported_interleave_sequence(9))


def test_decimate_deterministic():
    g = graph_from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 4), (3, 5)])
    assert decimate(g).gates == decimate(g).gates


@given(st.integers(2, 7), st.data())
@settings(max_examples=40)
def test_decimate_soundness(n, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=12, unique=True))
    g = graph_from_edges(n, edges)
    assert verify.decimation_sound([(g, decimate(g))], dense_tol=1e-10)


def test_depth_penalty_variants_stay_sound():
    g = graph_from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    assert verify.decimation_sound(
        [(g, decimate(g, penalty)) for penalty in (0.0, 0.5, 2.0)], dense_tol=None)


def _seeded_graphs(n):
    rng = np.random.default_rng(1000 + n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for density in (0.2, 0.4, 0.6, 0.8):
        keep = rng.random(len(pairs)) < density
        yield graph_from_edges(n, [p for p, k in zip(pairs, keep) if k])


def test_large_penalty_terminates_sound():
    """Above penalty 2 a non-shrinking move can outscore every removal; only
    shrinking moves are candidates, so each step still removes an edge."""
    # each step emits at most two two-qubit gates
    syntheses = [(g, decimate(g, penalty)) for n in range(2, 12)
                 for g in _seeded_graphs(n) for penalty in (3.0, 5.0)]
    assert verify.decimation_sound(syntheses, dense_tol=None, gates_per_edge=2)


# The oracle's own moves, on a bitmask adjacency list (bit k of adj[q] = edge
# (q, k)), independent of the dense adjacency that `decimate` and `apply_rule` use.

_COSTS = (1, 2, 2)


def _int_adjacency(graph: CZGraph) -> list[int]:
    adj = [0] * graph.num_qubits
    for (a, b) in graph.edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def _int_targets(adj: list[int], j: int) -> tuple[int, int, int]:
    """For rule value r = 0, 1, 2: the mask of k whose edge (i, k) the move
    on (i, j) toggles, before dropping bit i."""
    return (1 << j, adj[j], adj[j] ^ (1 << j))


def _int_move(adj: list[int], rule: DecimationRule, i: int, j: int):
    """The move on (i, j), in place on `adj`; returns (V, W) as `_move` does."""
    if rule is DecimationRule.CZ_REMOVAL:
        v, w = [cz(i, j)], []
    else:
        v = [cx(i, j) if rule is DecimationRule.CX_CONJUGATION else cy(i, j)]
        if (adj[j] >> i) & 1:
            v.append(z(i))
        w = [cx(i, j)]
    mask = _int_targets(adj, j)[rule.value] & ~(1 << i)
    adj[i] ^= mask
    while mask:
        low = mask & -mask
        adj[low.bit_length() - 1] ^= 1 << i
        mask ^= low
    return v, w


@pytest.mark.parametrize("n", [63, 64, 65, 128, 129])
def test_move_matches_int_move_at_word_boundaries(n):
    """`_move` (gates and rows) and `apply_rule` against the bitmask move, for
    every rule and every (i, j) among the first two and last two qubits and
    those on each side of every 64-qubit word boundary."""
    qubits = sorted({0, 1, n - 2, n - 1} | {q for b in range(64, n, 64) for q in (b - 1, b)})
    rng = np.random.default_rng(3000 + n)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    for density in (0.1, 0.5):
        keep = rng.random(len(pairs)) < density
        g = graph_from_edges(n, [p for p, k in zip(pairs, keep) if k])
        for i in qubits:
            for j in qubits:
                if i == j:
                    continue
                for rule in DecimationRule:
                    adj = _int_adjacency(g)
                    gates = _int_move(adj, rule, i, j)
                    g1 = CZGraph(n, frozenset((a, b) for (a, b) in pairs if (adj[a] >> b) & 1))
                    rows = _rows(g)
                    assert _move(rows, rule, i, j) == gates, (density, rule, i, j)
                    np.testing.assert_array_equal(rows, _rows(g1))
                    assert apply_rule(g, DecimationStep(rule, i, j)) == g1, (density, rule, i, j)


def _scan_decimate(graph: CZGraph, depth_penalty: float = 0.5) -> Circuit:
    """The oracle for `decimate`: the same greedy loop, scoring the moves one by
    one in (i, j, rule) order and keeping the least (score, rule, i, j)."""
    n = graph.num_qubits
    adj = _int_adjacency(graph)
    edge_count = graph.num_edges

    v_side = []
    w_side = []
    layer_mask = 0

    while edge_count:
        targets = [_int_targets(adj, j) for j in range(n)]
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
        v_gates, w_gates = _int_move(adj, DecimationRule(rule), i, j)
        edge_count += delta
        v_side.extend(v_gates)
        w_side.append(w_gates)

        qubits_mask = (1 << i) | (1 << j)
        layer_mask = qubits_mask if layer_mask & qubits_mask else layer_mask | qubits_mask

    gates = v_side + [g for gs in reversed(w_side) for g in gs]
    return Circuit(n, tuple(gates), {"steps": len(w_side)})


def _oracle_graphs(n):
    """`_seeded_graphs(n)` for n <= 12.  At the 64-bit word boundaries, where
    the scan takes seconds to a minute per dense graph, two seeded graphs on
    18 of the n qubits: the first, the last, those on each side of every word
    boundary below n, and random others."""
    if n <= 12:
        yield from _seeded_graphs(n)
        return
    rng = np.random.default_rng(2000 + n)
    fixed = sorted({0, n - 1} | {q for b in range(64, n, 64) for q in (b - 1, b)})
    rest = rng.choice(sorted(set(range(n)) - set(fixed)), 18 - len(fixed), replace=False)
    qubits = fixed + [int(q) for q in rest]
    pairs = [(a, b) for k, a in enumerate(qubits) for b in qubits[k + 1:]]
    for density in (0.3, 0.7):
        keep = rng.random(len(pairs)) < density
        yield graph_from_edges(n, [p for p, k in zip(pairs, keep) if k])


ORACLE_PENALTIES = (-0.5, 0.0, 0.5, 2.0, 3.0)


@pytest.mark.parametrize("n", list(range(2, 13)) + [63, 64, 65, 127, 128, 129])
def test_decimate_matches_scan_oracle(n):
    """For n <= 12 also at penalties +-1: an integer penalty ties CZ removal
    (score = penalty) exactly with CX-family moves (integer + penalty)."""
    for g in _oracle_graphs(n):
        for penalty in ORACLE_PENALTIES + ((1.0, -1.0) if n <= 12 else ()):
            assert (format_circuit(decimate(g, penalty))
                    == format_circuit(_scan_decimate(g, penalty))), (n, g.num_edges, penalty)


@pytest.mark.parametrize("n", [17, 20])
def test_decimate_huge_penalty_matches_scan_oracle(n):
    """At |penalty| = 1e17 the float spacing is 16, so adding the penalty can
    round a move's score and that of the move it dominates (1 higher) to one
    value; on these dense graphs the scan then takes the dominated move."""
    g = list(_seeded_graphs(n))[-1]  # density 0.8
    for penalty in (1e17, -1e17):
        assert (format_circuit(decimate(g, penalty))
                == format_circuit(_scan_decimate(g, penalty))), penalty


def test_numpy_float32_penalty_scores_in_float64():
    """A float32 penalty scores as its float64 value: in float32, -3 + 1e-9
    would round to -3 and tie with an untouched move."""
    for g in _seeded_graphs(8):
        for penalty in (np.float32(1e-9), np.float32(-3e-8)):
            assert (format_circuit(decimate(g, penalty))
                    == format_circuit(_scan_decimate(g, float(penalty)))), penalty


@pytest.mark.parametrize("n,radix", [(27, 3), (64, 2)])
def test_decimate_interleave_matches_scan_oracle(n, radix):
    g = interleave_cz_graph(interleave_permutation(n, radix))
    for penalty in ORACLE_PENALTIES:
        assert (format_circuit(decimate(g, penalty))
                == format_circuit(_scan_decimate(g, penalty))), penalty


@pytest.mark.parametrize("penalty", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_depth_penalty_rejected(penalty):
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(ValueError, match="depth_penalty must be finite"):
        decimate(g, penalty)
    with pytest.raises(ValueError, match="depth_penalty must be finite"):
        FFTPlan(9, 3, InterleaveStrategy.GRAPH_DECIMATED, penalty)


def test_decimate_memory_fails_fast(monkeypatch):
    """At 100 000 qubits the dense adjacency alone would be about 9.3 GiB and
    one scoring step far more: the memory rule raises before `_rows` builds
    anything, even for a graph with no edges."""
    def forbidden(*args, **kwargs):
        raise AssertionError("adjacency built")

    monkeypatch.setattr(czgraph, "_rows", forbidden)
    with pytest.raises(ValueError, match=r"decimate on 100000 qubits .* GiB \(limit 1 GiB\)"):
        decimate(CZGraph(100_000, frozenset()))


@pytest.mark.parametrize("penalty", ["0.5", None, True, np.bool_(False), 1j])
def test_non_real_depth_penalty_rejected(penalty):
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(ValueError, match="depth_penalty must be a real number"):
        decimate(g, penalty)
    with pytest.raises(ValueError, match="depth_penalty must be a real number"):
        FFTPlan(9, 3, InterleaveStrategy.GRAPH_DECIMATED, penalty)


def test_negative_qubit_count_rejected():
    with pytest.raises(ValueError, match="num_qubits must be >= 0, got -2"):
        CZGraph(-2, frozenset())
    assert CZGraph(0, frozenset()).num_edges == 0


@pytest.mark.parametrize("count", [True, 2.0, 2.5])
def test_non_integer_qubit_count_rejected(count):
    with pytest.raises(ValueError, match=f"num_qubits must be an integer, got {count!r}"):
        CZGraph(count, frozenset())


# sha256 of format_circuit(decimate(g, p)): per n, the four _seeded_graphs(n)
# at p in {0, 0.5, 2}; per interleave, the default p.  Any change to a chosen
# move, a tie-break or an emitted gate changes a digest.
RANDOM_DIGESTS = {
    2: "61847ce52b467d1c71b08df83d0c244bbb3e77e4f5ee81fd2554102d25c8da44",
    3: "6d88ea4cc178cb758d65fb104101e7bdbc49a1933a4e82db343a5e28af2474bc",
    4: "7a4962498b981cb519cd784f425d6d9644c95df572f3e541c917d79feecdf4b5",
    5: "a79538ed0f167cc448716b2d871e9226d5b418f0b85ce1bb4bdc3805c08ef09f",
    6: "9211820b0b766565e7b3a9f1adb83cc0c9341bcdeaa6d50c68249c61ba8bcc2a",
    7: "6534e8b8a8c272e181d5858bf352bf211a9207e00b54eff4dd3d66298522862b",
    8: "58ccfa4ed5324f8044e132ee5b2549972b7344abeda4d9c70200eb61e65211a3",
    9: "308296cff67b31b70e196e2927057ff868e83f51d77e28340d983219e05b0405",
    10: "bd67d229993953ac9675ca4c4623e2f46499e55f82ff8fd115248e85cace6223",
    11: "c343e80a7e7c91c0695956fdb5230f5c403d7c928a64521be4cad0e13098e3e1",
    12: "4e34c21ae775d54652639aac2f26e6def488f7435e9cafbefb7a5854310fc7ab",
}
INTERLEAVE_DIGESTS = {
    (9, 3): "42fc9212595aa6cb2bbb2bd39eb2668e7c41c8161146af50887eb634ecf73201",
    (27, 3): "2dbaeaba8d477ace3bbf147d940ea167b0bc8c301b4c5bf76fe494970074a8d5",
    (64, 2): "35c0435de8473bb515b8f026064ceaae93c72b1384cc6ca99315c80357cd6c67",
    (81, 3): "9acb1a168281ab36c7490066c8d1aac8e3517e902be2bdb203f7e7373c249b76",
    (128, 2): "62610652d02de7d7ed92f88b9d918e878720c8cc5b5f6db4aed881db8facea58",
    (243, 3): "cbe4d2ec9849a9a330599a5772741b511960b09a4fe3cdb738d6db7099d916cc",
}
# the same digest over two seeded graphs of each benchmark shape (n qubits,
# round(density * n (n - 1) / 2) edges), where the scan oracle is too slow
SHAPE_DIGESTS = {
    (48, 0.3): "662b17d913bf3a70222ca01057bce85b1bfa8ba109b0591549f357df2c165d2e",
    (36, 0.5): "5c835e4cba4f3df8cfef7f9c790cd57f7504433ae7f015d397551620e4e211b9",
}


@pytest.mark.parametrize("n", sorted(RANDOM_DIGESTS))
def test_decimate_random_graphs_pinned(n):
    h = hashlib.sha256()
    for g in _seeded_graphs(n):
        for penalty in (0.0, 0.5, 2.0):
            h.update(format_circuit(decimate(g, penalty)).encode())
    assert h.hexdigest() == RANDOM_DIGESTS[n]


@pytest.mark.parametrize("n,density", sorted(SHAPE_DIGESTS))
def test_decimate_benchmark_shapes_pinned(n, density):
    rng = np.random.default_rng(4000 + n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    h = hashlib.sha256()
    for _ in range(2):
        picked = rng.choice(len(pairs), round(density * len(pairs)), replace=False)
        g = graph_from_edges(n, [pairs[k] for k in picked])
        for penalty in (0.0, 0.5, 2.0):
            h.update(format_circuit(decimate(g, penalty)).encode())
    assert h.hexdigest() == SHAPE_DIGESTS[n, density]


@pytest.mark.parametrize("n,radix", sorted(INTERLEAVE_DIGESTS))
def test_decimate_interleave_graphs_pinned(n, radix):
    c = decimate(interleave_cz_graph(interleave_permutation(n, radix)))
    assert hashlib.sha256(format_circuit(c).encode()).hexdigest() == INTERLEAVE_DIGESTS[n, radix]


# ---------------------------------------------------------------- verify

def test_verify_equivalence_examples():
    assert verify_equivalence(Circuit(2, (cz(0, 1),)), graph_from_edges(2, [(0, 1)]))
    assert not verify_equivalence(Circuit(2, (cx(0, 1),)), graph_from_edges(2, []))


def test_verify_equivalence_rejects_non_clifford():
    from fermispec.circuits import givens, rz
    for gate in (givens(0.3, 0, 1), givens(0.4, 0, 1), rz(0.3, 1)):
        with pytest.raises(NonCliffordGateError):
            verify_equivalence(Circuit(2, (gate,)), graph_from_edges(2, []))


def test_verify_equivalence_any_clifford_kind():
    # the tableau decides what is Clifford: SWAP, FSWAP and X need no whitelist
    from fermispec.circuits import fswap, givens, rz, swap, x
    g01 = graph_from_edges(3, [(0, 1)])
    g12 = graph_from_edges(3, [(1, 2)])
    cases = [((swap(0, 2), cz(1, 2), swap(0, 2)), g01, True),
             ((swap(0, 1), fswap(0, 1)), g01, True),
             ((fswap(0, 1),), g01, False),
             ((x(0), cz(0, 1), x(0)), g01, False),
             ((x(0), cz(1, 2), x(0)), g12, True),
             ((rz(np.pi, 1), cz(1, 2), rz(-np.pi, 1)), g12, True),
             ((givens(np.pi / 2, 0, 1),), g01, False)]
    for gates, graph, want in cases:
        c = Circuit(3, gates)
        assert verify_equivalence(c, graph) is want
        graph_u = su(Circuit(3, tuple(cz(i, j) for (i, j) in graph.edges)))
        assert unitaries_equal_up_to_phase(su(c), graph_u, 1e-9) is want


def test_verify_27_qubit_listing_vs_graph():
    g = interleave_cz_graph(interleave_permutation(27, 3))
    assert verify_equivalence(imported_interleave_sequence(27), g)


def test_edge_list_round_trip():
    g = graph_from_edges(5, [(0, 3), (1, 2)])
    assert parse_edge_list(format_edge_list(g)) == g


def test_edge_list_explicit_qubits_win_over_header():
    assert parse_edge_list("# qubits: 3\n0 1\n", num_qubits=5).num_qubits == 5
    assert parse_edge_list("# qubits: 3\n0 1\n").num_qubits == 3


@pytest.mark.parametrize("text", ["0 1\n2\n", "0 1\n1 x\n", "0 1\n1 2 3\n",
                                  "0 1\n# qubits: x\n", "0 1\n1 \u00b2\n",
                                  "0 1\n1 0\n", "0 1\n0 1 # again\n",
                                  "# qubits: 3\n# qubits: 4\n0 1\n", "0 1\n# total qubits: 2\n"])
def test_edge_list_malformed_line_names_it(text):
    with pytest.raises(ValueError, match="line 2"):
        parse_edge_list(text)


@pytest.mark.parametrize("text, message", [
    ("0 1\n2 2\n", r"line 2: edge \(2, 2\) repeats a qubit"),
    ("# qubits: 2\n0 3\n", r"line 2: edge \(0, 3\) out of range for 2 qubits"),
], ids=["self-loop", "out-of-range"])
def test_edge_list_graph_checks_name_the_line(text, message):
    with pytest.raises(ValueError, match=message):
        parse_edge_list(text)
