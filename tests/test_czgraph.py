import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermispec.circuits import (Circuit, GateKind, cx, cz, format_circuit,
                                two_qubit_count)
from fermispec.czgraph import (CZGraph, DecimationRule, DecimationStep,
                               _adjacency, _move_gates, apply_rule, decimate,
                               format_edge_list, graph_from_edges,
                               parse_edge_list, verify_equivalence)
from fermispec.fft import interleave_cz_graph, interleave_permutation, \
    imported_interleave_sequence
from fermispec.statevector import circuit_unitary, unitaries_equal_up_to_phase
from fermispec.tableau import tableau_of


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
    v, _ = _move_gates(_adjacency(g), step.rule, step.i, step.j)
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
                    v, w = _move_gates(_adjacency(g), rule, i, j)
                    rhs = su(Circuit(3, tuple(w))) @ cz_unitary(g1) @ su(Circuit(3, tuple(v)))
                    assert np.max(np.abs(ug - rhs)) < 1e-12, (edges, rule, i, j)


def test_apply_rule_validates_indices():
    g = graph_from_edges(3, [])
    with pytest.raises(ValueError):
        apply_rule(g, DecimationStep(DecimationRule.CZ_REMOVAL, 1, 1))
    with pytest.raises(ValueError):
        apply_rule(g, DecimationStep(DecimationRule.CZ_REMOVAL, 0, 5))


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
    assert two_qubit_count(c) <= 9
    assert verify_equivalence(c, g)
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
    c = decimate(g)
    assert two_qubit_count(c) <= g.num_edges
    assert verify_equivalence(c, g)
    assert unitaries_equal_up_to_phase(su(c), cz_unitary(g), 1e-10)


def test_depth_penalty_variants_stay_sound():
    g = graph_from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    for penalty in (0.0, 0.5, 2.0):
        c = decimate(g, penalty)
        assert verify_equivalence(c, g)


def _seeded_graphs(n):
    rng = np.random.default_rng(1000 + n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for density in (0.2, 0.4, 0.6, 0.8):
        keep = rng.random(len(pairs)) < density
        yield graph_from_edges(n, [p for p, k in zip(pairs, keep) if k])


def test_large_penalty_terminates_sound():
    """Above penalty 2 a non-shrinking move can outscore every removal; only
    shrinking moves are candidates, so each step still removes an edge."""
    for n in range(2, 12):
        for g in _seeded_graphs(n):
            for penalty in (3.0, 5.0):
                c = decimate(g, penalty)
                assert c.meta["steps"] <= g.num_edges
                assert verify_equivalence(c, g), (n, penalty)


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
}


@pytest.mark.parametrize("n", sorted(RANDOM_DIGESTS))
def test_decimate_random_graphs_pinned(n):
    h = hashlib.sha256()
    for g in _seeded_graphs(n):
        for penalty in (0.0, 0.5, 2.0):
            h.update(format_circuit(decimate(g, penalty)).encode())
    assert h.hexdigest() == RANDOM_DIGESTS[n]


@pytest.mark.parametrize("n,radix", sorted(INTERLEAVE_DIGESTS))
def test_decimate_interleave_graphs_pinned(n, radix):
    c = decimate(interleave_cz_graph(interleave_permutation(n, radix)))
    assert hashlib.sha256(format_circuit(c).encode()).hexdigest() == INTERLEAVE_DIGESTS[n, radix]


# ---------------------------------------------------------------- verify

def test_verify_equivalence_examples():
    assert verify_equivalence(Circuit(2, (cz(0, 1),)), graph_from_edges(2, [(0, 1)]))
    assert not verify_equivalence(Circuit(2, (cx(0, 1),)), graph_from_edges(2, []))


def test_verify_equivalence_rejects_non_clifford():
    from fermispec.circuits import givens
    with pytest.raises(ValueError):
        verify_equivalence(Circuit(2, (givens(0.3, 0, 1),)), graph_from_edges(2, []))


def test_verify_27_qubit_listing_vs_graph():
    g = interleave_cz_graph(interleave_permutation(27, 3))
    assert verify_equivalence(imported_interleave_sequence(27), g)


def test_edge_list_round_trip():
    g = graph_from_edges(5, [(0, 3), (1, 2)])
    assert parse_edge_list(format_edge_list(g)) == g


def test_edge_list_explicit_qubits_win_over_header():
    assert parse_edge_list("# qubits: 3\n0 1\n", num_qubits=5).num_qubits == 5
    assert parse_edge_list("# qubits: 3\n0 1\n").num_qubits == 3


@pytest.mark.parametrize("text", ["0 1\n2\n", "0 1\n1 x\n", "0 1\n1 2 3\n"])
def test_edge_list_malformed_line_names_it(text):
    with pytest.raises(ValueError, match="line 2"):
        parse_edge_list(text)
