from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given

from fermispec import sector, verify
from fermispec.circuits import Circuit, cx, cz, givens, rz, x
from fermispec.sector import ParticleConservationError

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


def test_basis_of_any_width():
    """Up to 63 qubits the bitstrings are int64 (qubit 0 of 63 is bit 62, the
    top bit of a nonnegative int64); wider registers hold Python ints."""
    for n in (63, 64, 243):
        for ks in ((0, 1), (2,), (0, 1, 2)):
            basis = sector.Basis(n, ks)
            want = sorted(sum(1 << (n - 1 - q) for q in qubits)
                          for k in ks for qubits in combinations(range(n), k))
            assert basis.bits.dtype == (np.int64 if n <= 63 else object)
            assert [int(b) for b in basis.bits] == want
            assert [int(k) for k in basis.particle_numbers()] == [b.bit_count() for b in want]
            for q in (0, n // 2, n - 1):
                assert basis.occupied(q).tolist() == [bool(b >> (n - 1 - q) & 1) for b in want]
            for a, b in ((0, n - 1), (n - 1, 1)):
                i01, i10 = basis.pair(a, b)
                flip = (1 << (n - 1 - a)) | (1 << (n - 1 - b))
                assert [want[i] for i in i01] == [w for w in want if
                                                  not w >> (n - 1 - a) & 1 and w >> (n - 1 - b) & 1]
                assert [want[i] for i in i10] == [want[i] ^ flip for i in i01]


def test_basis_occupation_and_pairs():
    basis = sector.Basis(4, [2])
    for q in range(4):
        want = [(int(b) >> (3 - q)) & 1 for b in basis.bits]
        assert basis.occupied(q).tolist() == [bool(w) for w in want]
    i01, i10 = basis.pair(0, 2)
    assert np.array_equal(basis.bits[i10], basis.bits[i01] ^ 0b1010)
    assert not basis.occupied(0)[i01].any() and basis.occupied(2)[i01].all()


@given(pc_circuits)
def test_program_equals_gates_on_every_sector(circuit):
    rng = np.random.default_rng(len(circuit.gates))
    n = circuit.num_qubits
    cases = []
    for ks in [[k] for k in range(n + 1)] + [None]:
        basis = sector.Basis(n, ks)
        for batch in ((), (3,)):
            shape = (len(basis),) + batch
            cases.append(((circuit,), basis, rng.normal(size=shape) + 1j * rng.normal(size=shape)))
    assert verify.sector_matches_gates(cases, 1e-12)


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
