from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given

from fermispec import sector
from fermispec import statevector as sv
from fermispec.circuits import Circuit, cx, cz, givens, rz, x
from fermispec.gaussian import ParticleConservationError

from strategies import pc_circuits


@pytest.mark.parametrize("n", range(1, 8))
def test_basis_holds_the_sorted_k_particle_bitstrings(n):
    for k in range(n + 1):
        basis = sector.Basis(n, [k])
        want = sorted(sum(1 << (n - 1 - q) for q in qubits)
                      for qubits in combinations(range(n), k))
        assert basis.bits.dtype == np.int64
        assert basis.bits.tolist() == want
        assert len(basis) == comb(n, k)
        assert np.all(basis.particle_numbers() == k)
    union = sector.Basis(n, [n, 0])
    assert union.bits.tolist() == [0, 2 ** n - 1]
    assert sector.Basis(n).bits.tolist() == list(range(2 ** n))


def test_basis_rejects_impossible_particle_numbers():
    with pytest.raises(ValueError):
        sector.Basis(3, [4])


def test_basis_fits_int64_bitstrings():
    """Qubit 0 of 63 is bit 62, the top bit of a nonnegative int64; a 64th
    qubit would need the sign bit and raises."""
    with pytest.raises(ValueError, match="63-qubit limit"):
        sector.Basis(64, (0, 1))
    basis = sector.Basis(63, (0, 1))
    assert len(basis) == 64 and basis.bits[-1] == 1 << 62
    assert np.all(np.diff(basis.bits) > 0)
    i01, i10 = basis.pair(0, 62)
    assert basis.bits[i01].tolist() == [1] and basis.bits[i10].tolist() == [1 << 62]


def test_basis_occupation_and_pairs():
    basis = sector.Basis(4, [2])
    for q in range(4):
        want = [(int(b) >> (3 - q)) & 1 for b in basis.bits]
        assert basis.occupied(q).tolist() == [bool(w) for w in want]
    i01, i10 = basis.pair(0, 2)
    assert np.array_equal(basis.bits[i10], basis.bits[i01] ^ 0b1010)
    assert not basis.occupied(0)[i01].any() and basis.occupied(2)[i01].all()


def _restricted(circuit, basis, psi):
    """sv.run_circuit on psi placed in its sector, read back on the sector."""
    dense = np.zeros((2 ** circuit.num_qubits,) + psi.shape[1:], dtype=complex)
    dense[basis.bits] = psi
    shape = (2,) * circuit.num_qubits + psi.shape[1:]
    return sv.run_circuit(circuit, dense.reshape(shape)).reshape(dense.shape)[basis.bits]


@given(pc_circuits)
def test_program_equals_gates_on_every_sector(circuit):
    rng = np.random.default_rng(len(circuit.gates))
    n = circuit.num_qubits
    for ks in [[k] for k in range(n + 1)] + [None]:
        basis = sector.Basis(n, ks)
        program = sector.compile_circuit(circuit, basis)
        for batch in ((), (3,)):
            shape = (len(basis),) + batch
            psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            want = _restricted(circuit, basis, psi)
            got = sector.run_program(program, psi.copy())
            assert np.max(np.abs(got - want)) < 1e-12, (ks, batch)


def test_merged_interaction_bond_is_one_diagonal():
    """rz, rz, cx, rz, cx merges into one block; its CX alone would raise."""
    circuit = Circuit(3, (rz(0.4, 0), rz(0.4, 2), cx(0, 2), rz(-0.4, 2), cx(0, 2)))
    program = sector.compile_circuit(circuit, sector.Basis(3, [2]))
    assert [op[0] for op in program] == ["diag"]


def test_diagonal_runs_fuse_and_pairs_stay():
    circuit = Circuit(4, (cz(0, 1), cz(0, 2), rz(0.3, 3), givens(0.2, 0, 3), cz(1, 2)))
    program = sector.compile_circuit(circuit, sector.Basis(4, [2]))
    assert [op[0] for op in program] == ["diag", "pair", "diag"]


@pytest.mark.parametrize("circuit", [Circuit(2, (x(1),)), Circuit(2, (cx(0, 1),)),
                                     Circuit(3, (rz(0.3, 0), cx(0, 2), cz(1, 2)))])
def test_number_changing_gates_raise(circuit):
    for ks in ([1], None):
        with pytest.raises(ParticleConservationError):
            sector.compile_circuit(circuit, sector.Basis(circuit.num_qubits, ks))


def test_circuit_and_basis_sizes_must_match():
    with pytest.raises(ValueError):
        sector.compile_circuit(Circuit(3, (cz(0, 1),)), sector.Basis(2))
