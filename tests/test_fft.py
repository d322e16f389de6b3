import numpy as np
import pytest

from fermispec.circuits import Circuit, Gate, GateKind, invert, two_qubit_count
from fermispec.fft import (FFTPlan, InterleaveStrategy, base_fft,
                           fft_circuit, ground_state_momenta,
                           ground_state_prep_circuit, imported_interleave_sequence,
                           interleave_circuit, interleave_cz_graph,
                           interleave_permutation, single_particle_transfer)
from fermispec.gaussian import (GaussianState, dft_matrix, evolve_gaussian,
                                extract_mode_transform)
from fermispec.statevector import circuit_unitary, occupations, run_circuit, \
    unitaries_equal_up_to_phase
from fermispec.statevector import unitaries_equal_up_to_phase as transforms_equal_up_to_phase
from fermispec.tableau import tableau_of

SOFTWARE = (InterleaveStrategy.CX_LADDER, InterleaveStrategy.GRAPH_DECIMATED,
            InterleaveStrategy.IMPORTED_SEQUENCE)


# ---------------------------------------------------------------- base cases

def test_base_fft_transfers():
    assert transforms_equal_up_to_phase(
        extract_mode_transform(base_fft(2)), dft_matrix(2), 1e-12)
    assert transforms_equal_up_to_phase(
        extract_mode_transform(base_fft(3)), dft_matrix(3), 1e-12)


def test_base_fft_counts():
    assert two_qubit_count(base_fft(2)) == 2
    assert two_qubit_count(base_fft(3)) == 6


def test_base_fft_unsupported_radix():
    with pytest.raises(ValueError, match="radix"):
        base_fft(5)


def test_plan_validation():
    with pytest.raises(ValueError):
        FFTPlan(6, 2)
    with pytest.raises(ValueError):
        FFTPlan(10, 5)
    FFTPlan(27, 3)


# ---------------------------------------------------------------- permutation

def test_interleave_permutation_examples():
    p = interleave_permutation(6, 3)
    assert p.mode_order == (0, 3, 1, 4, 2, 5)
    p = interleave_permutation(4, 2)
    assert p.sigma == (0, 2, 1, 3)
    p = interleave_permutation(3, 3)
    assert p.sigma == (0, 1, 2)


def test_interleave_permutation_requires_divisor():
    with pytest.raises(ValueError):
        interleave_permutation(7, 2)


def test_interleave_cz_graph_examples():
    assert interleave_cz_graph(interleave_permutation(3, 3)).num_edges == 0
    g = interleave_cz_graph(interleave_permutation(4, 2))
    assert g.edges == frozenset({(1, 2)})
    assert interleave_cz_graph(interleave_permutation(9, 3)).num_edges == 9
    assert interleave_cz_graph(interleave_permutation(27, 3)).num_edges == 108


def test_interleave_graph_matches_imported_sequences():
    for n in (9, 27):
        g = interleave_cz_graph(interleave_permutation(n, 3))
        assert tableau_of(imported_interleave_sequence(n)) == g.tableau()


def test_interleave_graph_convention_dense():
    """FSWAP network = CZ(edges) after the bare qubit permutation."""
    for (n, r) in [(4, 2), (6, 3), (8, 2)]:
        p = interleave_permutation(n, r)
        u_phys = circuit_unitary(interleave_circuit(p, InterleaveStrategy.LOCAL_FSWAP))
        u_cz = circuit_unitary(Circuit(n, tuple(
            Gate(GateKind.CZ, e) for e in sorted(interleave_cz_graph(p).edges))))
        u_perm = _perm_unitary(p.sigma)
        assert unitaries_equal_up_to_phase(u_phys, u_cz @ u_perm, 1e-10)


def _perm_unitary(sigma):
    n = len(sigma)
    dim = 2 ** n
    mat = np.zeros((dim, dim))
    for idx in range(dim):
        bits = [(idx >> (n - 1 - q)) & 1 for q in range(n)]
        new = [0] * n
        for pq in range(n):
            new[sigma[pq]] = bits[pq]
        mat[sum(b << (n - 1 - q) for q, b in enumerate(new)), idx] = 1
    return mat


# ---------------------------------------------------------------- strategies

def test_identity_permutation_yields_empty_interleave():
    p = interleave_permutation(3, 3)
    for strat in (InterleaveStrategy.LOCAL_FSWAP, InterleaveStrategy.CX_LADDER,
                  InterleaveStrategy.GRAPH_DECIMATED):
        assert interleave_circuit(p, strat).gates == ()


def test_local_fswap_smallest_case():
    p = interleave_permutation(4, 2)
    c = interleave_circuit(p, InterleaveStrategy.LOCAL_FSWAP)
    assert len(c.gates) == 1
    assert c.gates[0] == Gate(GateKind.FSWAP, (1, 2))


def test_strategies_tableau_equivalent_to_graph():
    for (n, r) in [(4, 2), (8, 2), (9, 3), (27, 3)]:
        g = interleave_cz_graph(interleave_permutation(n, r))
        for strat in SOFTWARE:
            if strat is InterleaveStrategy.IMPORTED_SEQUENCE and n not in (9, 27):
                continue
            c = interleave_circuit(interleave_permutation(n, r), strat)
            assert tableau_of(c) == g.tableau(), (n, strat)


def test_imported_only_for_shipped_sizes():
    with pytest.raises(ValueError):
        interleave_circuit(interleave_permutation(81, 3),
                           InterleaveStrategy.IMPORTED_SEQUENCE)
    with pytest.raises(ValueError):
        interleave_circuit(interleave_permutation(8, 2),
                           InterleaveStrategy.IMPORTED_SEQUENCE)


def test_decimated_interleave_never_exceeds_edges():
    for (n, r) in [(4, 2), (8, 2), (9, 3), (16, 2), (27, 3)]:
        p = interleave_permutation(n, r)
        c = interleave_circuit(p, InterleaveStrategy.GRAPH_DECIMATED)
        assert two_qubit_count(c) <= interleave_cz_graph(p).num_edges


# ---------------------------------------------------------------- compiler

def test_compile_floor():
    c = fft_circuit(2, 2)
    assert c.gates == base_fft(2).gates


def test_dft_equivalence_all_sizes_and_strategies():
    for (n, r) in [(2, 2), (3, 3), (4, 2), (8, 2), (9, 3), (27, 3)]:
        for strat in InterleaveStrategy:
            if strat is InterleaveStrategy.IMPORTED_SEQUENCE and r != 3:
                continue
            c = fft_circuit(n, r, strat)
            t = single_particle_transfer(c)
            assert transforms_equal_up_to_phase(t, dft_matrix(n), 1e-9), (n, strat)


def test_software_and_physical_agree_on_full_space():
    for (n, r) in [(4, 2), (8, 2), (9, 3)]:
        u_phys = circuit_unitary(fft_circuit(n, r, InterleaveStrategy.LOCAL_FSWAP))
        for strat in SOFTWARE:
            if strat is InterleaveStrategy.IMPORTED_SEQUENCE and r != 3:
                continue
            c = fft_circuit(n, r, strat)
            order = c.meta["mode_order"]
            u_pending = _perm_unitary([order[p] for p in range(n)])
            assert unitaries_equal_up_to_phase(
                u_phys, u_pending @ circuit_unitary(c), 1e-9), (n, strat)


def test_round_trip_on_random_single_excitations():
    rng = np.random.default_rng(3)
    for (n, r) in [(8, 2), (9, 3), (27, 3)]:
        c = fft_circuit(n, r)
        t = single_particle_transfer(c)
        t_inv = single_particle_transfer(invert(c))
        amp = rng.normal(size=n) + 1j * rng.normal(size=n)
        amp /= np.linalg.norm(amp)
        # Heisenberg transfers compose left-to-right in circuit order
        assert np.max(np.abs(amp @ (t @ t_inv) - amp)) < 1e-10


def test_gate_count_ceiling():
    # Decimated CZ counts are bounded by the edge count, which equals the
    # FSWAP count per permutation, so these never exceed the LocalFswap
    # compile.  (The CX ladder carries a fixed 2(m-1) CX overhead per parity
    # chain and can exceed it at small block sizes.)
    for (n, r) in [(8, 2), (9, 3), (27, 3)]:
        ceiling = two_qubit_count(fft_circuit(n, r, InterleaveStrategy.LOCAL_FSWAP))
        for strat in (InterleaveStrategy.GRAPH_DECIMATED,
                      InterleaveStrategy.IMPORTED_SEQUENCE):
            if strat is InterleaveStrategy.IMPORTED_SEQUENCE and r != 3:
                continue
            assert two_qubit_count(fft_circuit(n, r, strat)) <= ceiling


# ---------------------------------------------------------------- ground state

def test_ground_state_momenta_count():
    assert len(ground_state_momenta(27, -1.0)) == 13


def test_prep_vacuum_and_full():
    n = 4
    empty = ground_state_prep_circuit(n, [])
    occ = occupations(run_circuit(empty))
    assert np.max(np.abs(occ)) < 1e-12
    full = ground_state_prep_circuit(n, range(n))
    occ = occupations(run_circuit(full))
    assert np.max(np.abs(occ - 1)) < 1e-12


def test_prep_matches_momentum_state():
    """Prepared state has the right momentum occupations after the forward FFT."""
    n = 8
    filled = [0, 3, 5]
    prep = ground_state_prep_circuit(n, filled)
    state = run_circuit(prep)
    fwd = fft_circuit(n, 2)
    occ = occupations(run_circuit(fwd, state))
    want = np.zeros(n)
    want[filled] = 1
    assert np.max(np.abs(occ - want)) < 1e-10


def test_prep_total_occupation_gaussian_27():
    n = 27
    filled = ground_state_momenta(n, -1.0)
    prep = ground_state_prep_circuit(n, filled)
    # strip the X layer; its effect is the diagonal initial correlation
    body = Circuit(n, tuple(g for g in prep.gates if g.kind is not GateKind.X))
    t = extract_mode_transform(body)
    rho = np.zeros(n)
    rho[list(filled)] = 1
    state = evolve_gaussian(GaussianState(np.diag(rho).astype(complex)), t)
    occ = state.occupations()
    assert abs(occ.sum() - 13) < 1e-9
    assert np.all(occ > -1e-12) and np.all(occ < 1 + 1e-12)
