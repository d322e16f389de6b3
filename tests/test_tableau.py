import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermispec.circuits import (PARAMETRIC_KINDS, TWO_QUBIT_KINDS, Circuit, Gate,
                                GateKind, cx, cz, gate_matrix, givens, rz, s, z)
from fermispec.statevector import circuit_unitary, unitaries_equal_up_to_phase
from fermispec.tableau import (CliffordTableau, NonCliffordGateError, _cached_table,
                               _compiled_table, _table_key, tableau_of, tableau_of_cz_edges)

from strategies import clifford_circuits, clifford_circuits_8q


def test_identity_tableau():
    assert tableau_of(Circuit(3, ())) == CliffordTableau(3)
    for n in (1, 3, 27):
        t = CliffordTableau(n)
        x, z = np.zeros((2 * n, n), np.uint8), np.zeros((2 * n, n), np.uint8)
        for i in range(n):
            x[i, i] = z[n + i, i] = 1
        assert t.x.dtype == t.z.dtype == t.sign.dtype == np.uint8
        assert np.array_equal(t.x, x) and np.array_equal(t.z, z) and not t.sign.any()


def test_cx_self_inverse():
    assert tableau_of(Circuit(2, (cx(0, 1), cx(0, 1)))) == CliffordTableau(2)


def test_tableau_is_unhashable():
    """A tableau is mutable and compares by value, so it has no hash."""
    t = tableau_of(Circuit(2, (cx(0, 1),)))
    with pytest.raises(TypeError):
        hash(t)


def test_simple_inequivalence():
    assert tableau_of(Circuit(2, (cx(0, 1),))) != CliffordTableau(2)


def test_phase_sensitivity():
    # Z . S . S = identity only up to the sign on the X image
    assert tableau_of(Circuit(1, (s(0), s(0)))) == tableau_of(Circuit(1, (z(0),)))
    assert tableau_of(Circuit(1, (s(0), s(0), z(0)))) == CliffordTableau(1)


def test_global_phase_quotient():
    # GIVENS(pi) = Z(x)Z which equals (Z tensor Z) exactly; RZ(pi) = -iZ
    assert tableau_of(Circuit(1, (rz(np.pi, 0),))) == tableau_of(Circuit(1, (z(0),)))
    assert tableau_of(Circuit(2, (givens(np.pi, 0, 1),))) == \
        tableau_of(Circuit(2, (z(0), z(1))))


def test_non_clifford_rejected():
    with pytest.raises(NonCliffordGateError):
        tableau_of(Circuit(1, (rz(0.3, 0),)))
    with pytest.raises(NonCliffordGateError):
        tableau_of(Circuit(2, (givens(0.4, 0, 1),)))


def test_clifford_angle_accepted():
    t = tableau_of(Circuit(2, (givens(np.pi / 2, 0, 1),)))
    assert t.is_symplectic()


@given(clifford_circuits)
def test_symplectic_preserved(c):
    assert tableau_of(c).is_symplectic()


@given(clifford_circuits_8q, clifford_circuits_8q)
@settings(max_examples=200)
def test_tableau_equality_iff_dense_equality(c1, c2):
    n = max(c1.num_qubits, c2.num_qubits)
    c1 = Circuit(n, c1.gates)
    c2 = Circuit(n, c2.gates)
    t_eq = tableau_of(c1) == tableau_of(c2)
    d_eq = unitaries_equal_up_to_phase(circuit_unitary(c1), circuit_unitary(c2), 1e-9)
    assert t_eq == d_eq


@given(clifford_circuits)
def test_tableau_equality_on_padded_copies(c):
    # an equal pair, since random pairs almost never collide
    c2 = Circuit(c.num_qubits, c.gates + (cx(0, 1), cx(0, 1)))
    assert tableau_of(c) == tableau_of(c2)


def test_cz_edges_helper():
    edges = [(0, 1), (1, 2)]
    want = tableau_of(Circuit(3, (cz(0, 1), cz(1, 2))))
    assert tableau_of_cz_edges(3, edges) == want


# ------------------------------------------------ oracles: the old brute force

def _pauli_1q(xb: int, zb: int) -> np.ndarray:
    m = np.eye(2, dtype=complex)
    if xb:
        m = np.array([[0, 1], [1, 0]], dtype=complex) @ m
    if zb:
        m = m @ np.diag([1, -1]).astype(complex)
        m = (1j if xb else 1) * m  # W(1,1) = iXZ = Y
    return m


def _match_pauli(m: np.ndarray, nq: int):
    """Return (bits, sign) with m == (-1)^sign * W(bits), or None."""
    rng = [(xb, zb) for xb in (0, 1) for zb in (0, 1)]
    for bits in ([(a,) for a in rng] if nq == 1 else
                 [(a, b) for a in rng for b in rng]):
        p = _pauli_1q(*bits[0])
        for extra in bits[1:]:
            p = np.kron(p, _pauli_1q(*extra))
        for sign in (0, 1):
            if np.allclose(m, (-1) ** sign * p, atol=1e-9):
                return tuple(v for pair in bits for v in pair), sign
    return None


def _brute_force_table(u: np.ndarray, nq: int):
    """Search every candidate Pauli for each local Pauli's image."""
    n_patterns = 4 ** nq
    bits_out = np.zeros((n_patterns, 2 * nq), dtype=np.uint8)
    sign_out = np.zeros(n_patterns, dtype=np.uint8)
    for idx in range(n_patterns):
        xs = [(idx >> (2 * (nq - 1 - q) + 1)) & 1 for q in range(nq)]
        zs = [(idx >> (2 * (nq - 1 - q))) & 1 for q in range(nq)]
        p = _pauli_1q(xs[0], zs[0])
        for q in range(1, nq):
            p = np.kron(p, _pauli_1q(xs[q], zs[q]))
        hit = _match_pauli(u @ p @ u.conj().T, nq)
        if hit is None:
            raise NonCliffordGateError("gate does not map Paulis to Paulis")
        bits_out[idx], sign_out[idx] = hit
    return bits_out, sign_out


def _cz_edges_by_gates(num_qubits: int, edges) -> CliffordTableau:
    """The graph's tableau, one CZ gate per edge."""
    t = CliffordTableau(num_qubits)
    for (i, j) in sorted(tuple(sorted(e)) for e in edges):
        t.apply_gate(Gate(GateKind.CZ, (i, j)))
    return t


# sha256 of bits_out.tobytes() + sign_out.tobytes() of each cached table, as
# built by the brute-force search above
TABLE_SHA256 = {
    (GateKind.CZ, None): "9696381ae46c5b02b740d5399bf3530c4618c159f482812a3aa072309952cc03",
    (GateKind.CX, None): "1ea323bff3447272b5206a15a3d784e2d085f1eb2f7f93bccf106731e0ac9cda",
    (GateKind.CY, None): "7f5f2ac43b4187de88158a5eea34debef9dae1c945790691d17281fd91855106",
    (GateKind.SWAP, None): "ebef705135451565c4c865dce1830d3fe4df93ed76c20b7327ae03759ec278f0",
    (GateKind.FSWAP, None): "93cd52968743bc7664d2b29a01ae1e3ba4511f5cbed897a9c179e7c44266893d",
    (GateKind.X, None): "43145cf16515433b3e5ab674693997037f1fb33c6571758e96caf1eb751aac7c",
    (GateKind.Z, None): "a83523c1d0e5aad8a1b28ff8351a6cc1209803de57e3c9b61a5273ad38dfbde3",
    (GateKind.S, None): "9f405b388e22321e7fd9c86b79d4808b798fdb01660e6183501cc070e8a1bc23",
    (GateKind.SDG, None): "db8b2302c283d28e15da437e69f793fb0a7377817f1dfb94e5e1efb450d36db8",
    (GateKind.RZ, 0): "f6491039a7a5ae522e14e5a39a24b1699256894d3ab7ba1a7c1e68331409c1da",
    (GateKind.RZ, 1): "9f405b388e22321e7fd9c86b79d4808b798fdb01660e6183501cc070e8a1bc23",
    (GateKind.RZ, 2): "a83523c1d0e5aad8a1b28ff8351a6cc1209803de57e3c9b61a5273ad38dfbde3",
    (GateKind.RZ, 3): "db8b2302c283d28e15da437e69f793fb0a7377817f1dfb94e5e1efb450d36db8",
    (GateKind.GIVENS, 0): "f7ec4f90b853c920e9c745b684c6528315fd6696456b0db822b10a7446a54228",
    (GateKind.GIVENS, 1): "bb8f16be8a283feecd2c4a050961a538225371a787bc4e045544acfd0ce05be3",
    (GateKind.GIVENS, 2): "56a8a613e4a90b286041d984e3f5352f55c5c72cdd1a455f2e6bb066fba16608",
    (GateKind.GIVENS, 3): "f0185c7eb9452e66b8c0fb48adbaff7acaef3e7257c0d2a4ae967582dc321ca5",
}


def test_table_keys_cover_every_clifford_kind():
    want = {(k, q) for k in GateKind if k is not GateKind.BARRIER
            for q in (range(4) if k in PARAMETRIC_KINDS else [None])}
    assert set(TABLE_SHA256) == want


@pytest.mark.parametrize("key", list(TABLE_SHA256), ids=lambda k: f"{k}")
def test_conjugation_table_pinned_and_equal_to_brute_force(key):
    kind, quarter_turns = key
    bits_out, sign_out = _cached_table(kind, quarter_turns)
    nq = 2 if kind in TWO_QUBIT_KINDS else 1
    assert bits_out.dtype == sign_out.dtype == np.uint8
    assert bits_out.shape == (4 ** nq, 2 * nq) and sign_out.shape == (4 ** nq,)
    digest = hashlib.sha256(bits_out.tobytes() + sign_out.tobytes()).hexdigest()
    assert digest == TABLE_SHA256[key]
    angle = None if quarter_turns is None else quarter_turns * np.pi / 2
    u = gate_matrix(Gate(kind, tuple(range(nq)), angle))
    want_bits, want_sign = _brute_force_table(u, nq)
    assert np.array_equal(bits_out, want_bits) and np.array_equal(sign_out, want_sign)


def _graphs(n, rng):
    pairs = list(itertools.combinations(range(n), 2))
    yield []
    yield pairs
    sparse = [p for p in pairs if rng.random() < 0.3]
    yield sparse
    # duplicated and reversed edges: a pair listed twice cancels
    yield sparse + [(j, i) for (i, j) in sparse[::3]] + sparse[1::4]


@pytest.mark.parametrize("n", [1, 2, 5, 63, 64, 65])
def test_cz_edges_closed_form_matches_gates(n):
    rng = np.random.default_rng(n)
    for edges in _graphs(n, rng):
        t = tableau_of_cz_edges(n, edges)
        assert t == _cz_edges_by_gates(n, edges)
        assert t.is_symplectic()


@pytest.mark.parametrize("edges", [[(1, 1)], [(0, 1), (2, 2)], [(-1, 2)], [(0, -3)],
                                   [(0, 4)], [(5, 1)], [(0, 1.5)], [(True, 2)]])
def test_cz_edges_reject_bad_edges(edges):
    with pytest.raises(ValueError,
                       match=r"CZ edge \(.*\) (out of range for 4 qubits|repeats a qubit)"):
        tableau_of_cz_edges(4, edges)


@pytest.mark.parametrize("n", [-1, True, 2.0])
def test_tableau_rejects_bad_qubit_count(n):
    with pytest.raises(ValueError, match="num_qubits must be"):
        CliffordTableau(n)


def test_gate_outside_register_rejected():
    t = CliffordTableau(3)
    with pytest.raises(ValueError, match=r"qubits=\(1, 3\).* out of range for 3 qubits"):
        t.apply_gate(cz(1, 3))
    assert t == CliffordTableau(3)


# ------------------------------------------ oracle: the update on uint8 rows

def _apply_by_rows(x, z, sign, gate):
    """Apply `gate` to the (2n, n) x, z and (2n,) sign arrays in place, row by
    row through the gate's table (2 bits per gate qubit, the first most
    significant, index the table)."""
    if gate.kind is GateKind.BARRIER:
        return
    bits_out, sign_out = _cached_table(*_table_key(gate))
    idx = 0
    for q in gate.qubits:
        idx = idx << 2 | x[:, q] << 1 | z[:, q]
    img = bits_out[idx].T
    for c, q in enumerate(gate.qubits):
        x[:, q], z[:, q] = img[2 * c], img[2 * c + 1]
    sign ^= sign_out[idx]


def _assert_equals_row_oracle(circuit):
    n = circuit.num_qubits
    x, z = np.zeros((2 * n, n), np.uint8), np.zeros((2 * n, n), np.uint8)
    sign = np.zeros(2 * n, np.uint8)
    x[:n] = z[n:] = np.eye(n, dtype=np.uint8)
    for g in circuit.gates:
        _apply_by_rows(x, z, sign, g)
    t = tableau_of(circuit)
    assert t.x.dtype == t.z.dtype == t.sign.dtype == np.uint8
    assert np.array_equal(t.x, x) and np.array_equal(t.z, z) and np.array_equal(t.sign, sign)


@given(clifford_circuits_8q)
@settings(max_examples=200)
def test_packed_update_equals_row_oracle(c):
    _assert_equals_row_oracle(c)


@pytest.mark.parametrize("n", [63, 64, 65, 130])
def test_packed_update_equals_row_oracle_across_word_boundaries(n):
    """Every table key, on qubits drawn from the whole register, the ends and
    the 64-row word edges (rows q and n + q) included."""
    rng = np.random.default_rng(n)
    edge_qubits = sorted({0, 1, n // 2 - 1, n // 2, 31, 32, 62, 63, 64, n - 2, n - 1}
                         & set(range(n)))
    gates = []
    for _ in range(12):
        for kind, quarter_turns in TABLE_SHA256:
            nq = 2 if kind in TWO_QUBIT_KINDS else 1
            pool = edge_qubits if rng.random() < 0.5 else range(n)
            qubits = tuple(int(q) for q in rng.choice(pool, nq, replace=False))
            turns = None if quarter_turns is None else quarter_turns - 4 * rng.integers(-1, 2)
            angle = None if turns is None else turns * np.pi / 2
            gates.append(Gate(kind, qubits, angle))
    order = rng.permutation(len(gates))
    _assert_equals_row_oracle(Circuit(n, tuple(gates[i] for i in order)))


@pytest.mark.parametrize("key", list(TABLE_SHA256), ids=lambda k: f"{k}")
def test_compiled_program_reproduces_pinned_table(key):
    """Run each derived program (XORs for the bits, the ANF monomials for the
    sign) on all 4^nq inputs at once, one packed row per input."""
    bits_out, sign_out = _cached_table(*key)
    linear, monomials = _compiled_table(*key)
    m = bits_out.shape[1]
    ins = [sum(((idx >> (m - 1 - i)) & 1) << idx for idx in range(4 ** (m // 2)))
           for i in range(m)]
    for j, terms in enumerate(linear):
        out = 0
        for i in terms:
            out ^= ins[i]
        assert [(out >> idx) & 1 for idx in range(len(sign_out))] == list(bits_out[:, j])
    flip = 0
    for mono in monomials:
        assert mono, "a constant sign term would flip the identity's sign"
        v = -1
        for i in mono:
            v &= ins[i]
        flip ^= v
    assert [(flip >> idx) & 1 for idx in range(len(sign_out))] == list(sign_out)
