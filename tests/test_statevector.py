import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given

import fermispec
from fermispec.circuits import (PARAMETRIC_KINDS, TWO_QUBIT_KINDS, Circuit, Gate,
                                GateKind, cx, cy, cz, gate_matrix, givens, rz, s, swap,
                                x, z)
from fermispec import statevector as sv

from strategies import any_circuits


def test_runtime_modules_do_not_load_statevector():
    """The dense statevector is an oracle: the package and every runtime
    module import without it, since the gate table lives in circuits."""
    code = ("import sys\n"
            "import fermispec\n"
            "from fermispec import circuits, czgraph, tableau, sector, gaussian, fft, protocol\n"
            "assert 'fermispec.statevector' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=str(Path(fermispec.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_z_on_zero():
    psi = sv.run_circuit(Circuit(1, (z(0),)))
    assert np.allclose(psi, sv.zero_state(1))


def test_cz_on_11():
    psi = sv.basis_state(2, (1, 1))
    out = sv.apply_gate(psi, cz(0, 1), 2)
    assert np.allclose(out, -sv.basis_state(2, (1, 1)))


def test_real_state_is_refused():
    """A gate never drops the imaginary part of its result into a real state."""
    with pytest.raises(TypeError):
        sv.apply_gate(np.array([0.0, 1.0]), s(0), 1)


def test_gate_outside_register_rejected():
    """A gate beyond the register is a ValueError, as in every other module."""
    with pytest.raises(ValueError, match=r"qubits=\(1, 3\).* out of range for 3 qubits"):
        sv.apply_gate(sv.zero_state(3), cz(1, 3), 3)


def test_givens_convention():
    # GIVENS(pi/4) on |01> -> cos(pi/4)|01> + i sin(pi/4)|10>
    psi = sv.basis_state(2, (0, 1))
    out = sv.apply_gate(psi, givens(np.pi / 4, 0, 1), 2)
    want = (np.cos(np.pi / 4) * sv.basis_state(2, (0, 1))
            + 1j * np.sin(np.pi / 4) * sv.basis_state(2, (1, 0)))
    assert np.allclose(out, want)


def test_givens_matches_matrix_exponential():
    from scipy.linalg import expm
    xx = np.kron([[0, 1], [1, 0]], [[0, 1], [1, 0]])
    yy = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])
    for theta in (0.3, -1.1, np.pi / 4):
        want = expm(1j * (xx + yy) * theta / 2)
        got = gate_matrix(givens(theta, 0, 1))
        assert np.max(np.abs(want - got)) < 1e-12


def test_cy_equals_cz_after_cx():
    u = sv.circuit_unitary(Circuit(2, (cx(0, 1), cz(0, 1))))
    assert np.allclose(u, gate_matrix(cy(0, 1)))
    # one qubit: the identity batch has the shape (2, 2) of a 2-qubit register
    gates = (x(0), s(0), rz(0.3, 0))
    want = np.linalg.multi_dot([gate_matrix(g) for g in reversed(gates)])
    assert np.allclose(sv.circuit_unitary(Circuit(1, gates)), want)


def test_fswap_is_swap_then_cz():
    from fermispec.circuits import fswap
    got = gate_matrix(fswap(0, 1))
    want = gate_matrix(swap(0, 1)) @ gate_matrix(cz(0, 1))
    assert np.allclose(got, want)


def _einsum_apply(state, gate):
    """Contract gate_matrix over the gate's qubit axes of a (batched) state."""
    op = gate_matrix(gate).reshape((2,) * (2 * len(gate.qubits)))
    axes = "abcdefghijklmnopqrstuvwxyz"[:state.ndim]
    new = "ABCD"[:len(gate.qubits)]
    out = list(axes)
    for q, letter in zip(gate.qubits, new):
        out[q] = letter
    spec = f"{new}{''.join(axes[q] for q in gate.qubits)},{axes}->{''.join(out)}"
    return np.einsum(spec, op, state)


@pytest.mark.parametrize("kind", [k for k in GateKind if k is not GateKind.BARRIER])
def test_apply_gate_matches_einsum_oracle(kind):
    rng = np.random.default_rng(list(GateKind).index(kind))
    n = 4
    qubit_sets = ([(0, 3), (3, 0), (1, 2), (2, 1)] if kind in TWO_QUBIT_KINDS
                  else [(0,), (2,), (3,)])
    for qubits in qubit_sets:
        for batch in ((), (3,), (2,)):
            angle = float(rng.uniform(-4, 4)) if kind in PARAMETRIC_KINDS else None
            gate = Gate(kind, qubits, angle)
            matrix = gate_matrix(gate).copy()
            shape = (2,) * n + batch
            psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            want = _einsum_apply(psi, gate)
            got = sv.apply_gate(psi.copy(), gate, n)
            assert np.max(np.abs(got - want)) < 1e-12, (gate, batch)
            assert np.array_equal(gate_matrix(gate), matrix)


def test_norm_preserved_random():
    rng = np.random.default_rng(0)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi = (psi / np.linalg.norm(psi)).reshape(2, 2, 2)
    c = Circuit(3, (givens(0.7, 0, 2), cz(1, 2), rz(0.3, 0), cx(2, 0)))
    out = sv.run_circuit(c, psi)
    assert abs(np.linalg.norm(out) - 1) < 1e-12


def test_occupations():
    c = Circuit(3, (x(1),))
    occ = sv.occupations(sv.run_circuit(c), 3)
    assert np.allclose(occ, [0, 1, 0])


def test_occupations_batched():
    batch = np.stack([sv.basis_state(2, (0, 1)), sv.basis_state(2, (1, 1))], axis=-1)
    occ = sv.occupations(batch, num_qubits=2)
    assert occ.shape == (2, 2)
    assert np.allclose(occ, [[0, 1], [1, 1]])


def test_qubit_cap():
    with pytest.raises(ValueError):
        sv.zero_state(21)
    with pytest.raises(ValueError, match="capped at 20 qubits"):
        sv.basis_state(21, (0,) * 21)


@pytest.mark.parametrize("count", [-1, 2.5, True])
@pytest.mark.parametrize("make", [sv.zero_state, lambda n: sv.basis_state(n, ())])
def test_states_reject_a_non_count(make, count):
    with pytest.raises(ValueError, match="num_qubits must be"):
        make(count)


@pytest.mark.parametrize("bits", [(1,), (0, 5), (0, 1, 0), (0, -1), (0, 0.5), [[0, 1]]])
def test_basis_state_needs_one_bit_per_qubit(bits):
    with pytest.raises(ValueError, match=r"bits must be 2 values, each 0 or 1"):
        sv.basis_state(2, bits)


def test_jw_anticommutation():
    n = 4
    ops = [sv.annihilation_operator(n, j) for j in range(n)]
    for i in range(n):
        for j in range(n):
            anti = ops[i] @ ops[j].conj().T + ops[j].conj().T @ ops[i]
            want = np.eye(2 ** n) if i == j else np.zeros((2 ** n, 2 ** n))
            assert np.max(np.abs(anti - want)) < 1e-12
            assert np.max(np.abs(ops[i] @ ops[j] + ops[j] @ ops[i])) < 1e-12


def test_momentum_mode_anticommutation():
    n = 4
    for m in range(n):
        k = 2 * np.pi * m / n
        ck = sv.momentum_annihilation(n, k)
        anti = ck @ ck.conj().T + ck.conj().T @ ck
        assert np.max(np.abs(anti - np.eye(2 ** n))) < 1e-12


@given(any_circuits)
def test_circuit_unitary_is_unitary(c):
    u = sv.circuit_unitary(c)
    dim = 2 ** c.num_qubits
    assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-10


def _kron_annihilation(n, mode):
    """c_mode as the Kronecker product Z^(⊗mode) ⊗ sigma^- ⊗ I^(⊗rest)."""
    factors = ([np.diag([1, -1])] * mode + [np.array([[0, 1], [0, 0]])]
               + [np.eye(2)] * (n - mode - 1))
    op = np.ones((1, 1), dtype=complex)
    for f in factors:
        op = np.kron(op, f)
    return op


@pytest.mark.parametrize("n", range(1, 10))
def test_annihilation_operator_equals_kron_product(n):
    for mode in range(n):
        assert np.array_equal(sv.annihilation_operator(n, mode), _kron_annihilation(n, mode))
