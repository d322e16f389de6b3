import hashlib

import numpy as np
import pytest

import fermispec.fft
from fermispec import verify
from fermispec.circuits import Circuit, Gate, GateKind, format_circuit, invert, two_qubit_count
from fermispec.fft import (FFTPlan, InterleaveStrategy, base_fft,
                           fft_circuit, fft_radix, ground_state_momenta, ground_state_prep_circuit,
                           interleave_circuit, interleave_cz_graph,
                           interleave_permutation, single_particle_transfer)
from fermispec.gaussian import evolve_gaussian, extract_mode_transform
from fermispec.statevector import circuit_unitary, occupations, run_circuit, \
    unitaries_equal_up_to_phase

SOFTWARE = (InterleaveStrategy.CX_LADDER, InterleaveStrategy.GRAPH_DECIMATED,
            InterleaveStrategy.IMPORTED_SEQUENCE)


# ---------------------------------------------------------------- base cases

def test_base_fft_transfers():
    assert verify.fft_matches_dft([base_fft(2), base_fft(3)], 1e-12)


def test_base_fft_counts():
    assert verify.base_gate_counts(base_fft(2), base_fft(3))
    wrong = verify.base_gate_counts(base_fft(2), fft_circuit(9, 3))
    assert not wrong and "F3 count=" in wrong.detail


def test_base_fft_unsupported_radix():
    with pytest.raises(ValueError, match="radix"):
        base_fft(5)


def test_fft_radix():
    assert [fft_radix(n) for n in (1, 2, 3, 4, 6, 8, 9, 12, 27, 64, 81, 243)] == \
        [None, 2, 3, 2, None, 2, 3, None, 3, 2, 3, 3]


def test_plan_validation():
    with pytest.raises(ValueError):
        FFTPlan(6, 2)
    with pytest.raises(ValueError):
        FFTPlan(10, 5)
    FFTPlan(27, 3)


@pytest.mark.parametrize("args, match", [
    ((9, 3.0), "radix must be an integer, got 3.0"),
    ((2, True), "radix must be an integer, got True"),
    ((9.0, 3), "num_modes must be an integer, got 9.0"),
    ((9, 3, "graph-decimated"),
     r"interleave_strategy must be one of \['local-fswap', 'cx-ladder', "
     r"'graph-decimated', 'imported'\], got 'graph-decimated'"),
], ids=["float-radix", "bool-radix", "float-modes", "string-strategy"])
def test_plan_rejects_mistyped_fields_at_construction(args, match):
    """A float radix or a strategy given by its string value used to pass the
    plan and fail only inside compile_fft."""
    with pytest.raises(ValueError, match=match):
        FFTPlan(*args)


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
    with pytest.raises(ValueError, match="radix 2.0 is not a positive divisor of 8"):
        interleave_permutation(8, 2.0)


@pytest.mark.parametrize("radix", [0, -2])
def test_interleave_permutation_requires_positive_radix(radix):
    # radix 0 used to divide by zero, and -2 on 4 gave sigma (0, 0, 0, 0)
    with pytest.raises(ValueError, match="radix -?\\d+ is not a positive divisor of 4"):
        interleave_permutation(4, radix)


def test_interleave_cz_graph_examples():
    assert interleave_cz_graph(interleave_permutation(3, 3)).num_edges == 0
    g = interleave_cz_graph(interleave_permutation(4, 2))
    assert g.edges == frozenset({(1, 2)})
    assert interleave_cz_graph(interleave_permutation(9, 3)).num_edges == 9
    assert interleave_cz_graph(interleave_permutation(27, 3)).num_edges == 108


def test_interleave_graph_matches_imported_sequences():
    assert verify.interleave_matches_graph(
        [(9, 3), (27, 3)], [InterleaveStrategy.IMPORTED_SEQUENCE])


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
    # the imported listings exist for 9 and 27 qubits only
    for sizes, strategies in (([(4, 2), (8, 2)], SOFTWARE[:2]), ([(9, 3), (27, 3)], SOFTWARE)):
        assert verify.interleave_matches_graph(sizes, strategies)
    # the physical network is the graph's CZs after a qubit permutation
    wrong = verify.interleave_matches_graph([(9, 3)], [InterleaveStrategy.LOCAL_FSWAP])
    assert not wrong and "N=9 local-fswap" in wrong.detail


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
    assert verify.fft_matches_dft(
        verify.fft_circuits([(2, 2), (3, 3), (4, 2), (8, 2), (9, 3), (27, 3)]), 1e-9)
    # the N = 8 transform with its first twiddle negated
    wrong = verify.fft_matches_dft([_negate_first_twiddle(fft_circuit(8, 2))], 1e-9)
    assert not wrong and "N=8 strategy=local-fswap" in wrong.detail


# sha256 of format_circuit(c) + repr(c.meta) per (N, strategy), recorded before
# the compiler built each distinct interleave once per compile
_COMPILE_PINS = {
    (8, "local-fswap"): "dbd24888963b06e86e08aec5ce50e0841eb3ddae180dba9812dbdf3433853d84",
    (8, "cx-ladder"): "f0f644e5da0c2501f7749a1851dd346904d0167446cb042ab329513387ae3250",
    (8, "graph-decimated"): "b33f4b8e99cb617be9f398218257ab16bfdf372c6bab071ba34bc4ced631c368",
    (8, "imported"): "c4aefc86d7daadaaa360e11fd28728fab82eed8e1b87ec8b80eb79e2841c871a",
    (9, "local-fswap"): "c68ff94a796eeb32b4977cdc7634c52ba9df174e3184a93c9e63d444d5567947",
    (9, "cx-ladder"): "45e05fa34026f8fdab4e02741359f3afb293e4fa9b3866213c99db009dc79bdd",
    (9, "graph-decimated"): "f43612d877ca963eab2e5260221ff39f23dc6fafa030ded8b16ee38b4640383b",
    (9, "imported"): "e8654c20c1e50989a6a3cf37354ecf4a89bbdbe94161956abe1182c30f4c5e1d",
    (27, "local-fswap"): "5696869bf16283630d4d0f8db13f1899bad5dcd3c9fcd18ed5f654058abaed21",
    (27, "cx-ladder"): "b3b24b48a62adfea45102f290c3018665df5572fae948de876e1fbd082f3b96f",
    (27, "graph-decimated"): "05c5ebf9e4846033f0ed92f7ee9584ccd257109239f80595dd3557ec56952eb8",
    (27, "imported"): "f3c0ae32f4cac956888a8db049987185ba36a978f88fe3c491b444c26704b8aa",
    (64, "local-fswap"): "38563876e7d4a0ebf93e4e14a2efce23b8bf9343f4111eb7196723250d9517ce",
    (64, "cx-ladder"): "2ba3d6c8f346bb2ace963c6262516feb002683d0de479fa1b3d5653e3c72054d",
    (64, "graph-decimated"): "c7e7fff5e4d8dd9b545b668265f9cc7a0fc9019249467972d034afede8ecc7db",
    (64, "imported"): "1c7c80a64adf59b153da5e7c27475858d0fc967e8395554290f64f75f5996912",
    (81, "local-fswap"): "955f73b284afb374bcc600e0175357084f5f10440a0c6c464508ca949596b2e9",
    (81, "cx-ladder"): "841adf7bb86f1de55b5698b6b4be7d23ed9797682089ab20342d700183c0b2c7",
    (81, "graph-decimated"): "a16038944fe2d3c1e15ebda717184c6b8cd56fae11072dbad351f463a8f195ad",
    (81, "imported"): "300bbad891801f3c029ffa6ef580bb814c2f946c3ad9bcf844ce7b0b58039243",
}


@pytest.mark.parametrize("n, strategy", sorted(_COMPILE_PINS))
def test_compiled_circuits_pinned(n, strategy):
    c = fft_circuit(n, fft_radix(n), InterleaveStrategy(strategy))
    digest = hashlib.sha256((format_circuit(c) + repr(c.meta)).encode()).hexdigest()
    assert digest == _COMPILE_PINS[(n, strategy)]


def test_decimate_runs_once_per_distinct_interleave(monkeypatch):
    calls = []
    decimate = fermispec.fft.decimate

    def counted_decimate(*args, **kwargs):
        calls.append(args[0])
        return decimate(*args, **kwargs)

    monkeypatch.setattr(fermispec.fft, "decimate", counted_decimate)
    for n, distinct in ((27, 3), (64, 9), (81, 5)):
        calls.clear()
        c = fft_circuit(n, fft_radix(n), InterleaveStrategy.GRAPH_DECIMATED)
        assert len(calls) == distinct, n
        # every copy still gets its own block record
        assert len(c.meta["interleave_blocks"]) > distinct


def test_corrupted_copy_of_repeated_interleave_fails_certification():
    c = fft_circuit(27, 3, InterleaveStrategy.GRAPH_DECIMATED)
    blocks = c.meta["interleave_blocks"]
    seen = set()
    for b, (start, end, edges) in enumerate(blocks):
        if (end - start, len(edges)) in seen:
            break    # the second copy of an interleave already emitted
        seen.add((end - start, len(edges)))
    # b is not the last block, so the later spans must shift too
    assert b < len(blocks) - 1
    i = next(i for i in range(start, end) if c.gates[i].kind is GateKind.CZ)
    shifted = tuple((s - (s > i), e - (e > i), ed) for (s, e, ed) in blocks)
    broken = Circuit(c.num_qubits, c.gates[:i] + c.gates[i + 1:],
                     {**c.meta, "interleave_blocks": shifted})
    single_particle_transfer(c)
    with pytest.raises(ValueError, match="does not match its CZ graph"):
        single_particle_transfer(broken)


def _negate_first_twiddle(c: Circuit) -> Circuit:
    i = next(i for i, g in enumerate(c.gates) if g.kind is GateKind.RZ)
    twisted = Gate(GateKind.RZ, c.gates[i].qubits, -c.gates[i].angle)
    return Circuit(c.num_qubits, c.gates[:i] + (twisted,) + c.gates[i + 1:], c.meta)


def test_dft_equivalence_beyond_int64_bitstrings():
    """N = 64 and 81 run on the wide (Python-int) sector basis."""
    strategies = (InterleaveStrategy.LOCAL_FSWAP, InterleaveStrategy.CX_LADDER)
    circuits = [fft_circuit(n, r, s) for n, r in ((64, 2), (81, 3)) for s in strategies]
    assert verify.fft_matches_dft(circuits, 1e-9)
    wrong = verify.fft_matches_dft([_negate_first_twiddle(circuits[2])], 1e-9)
    assert not wrong and "N=81 strategy=local-fswap" in wrong.detail


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
    occ = occupations(run_circuit(empty), n)
    assert np.max(np.abs(occ)) < 1e-12
    full = ground_state_prep_circuit(n, range(n))
    occ = occupations(run_circuit(full), n)
    assert np.max(np.abs(occ - 1)) < 1e-12


def test_prep_matches_momentum_state():
    """Prepared state has the right momentum occupations after the forward FFT."""
    n = 8
    filled = [0, 3, 5]
    prep = ground_state_prep_circuit(n, filled)
    state = run_circuit(prep)
    fwd = fft_circuit(n, 2)
    occ = occupations(run_circuit(fwd, state), n)
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
    occ = evolve_gaussian(np.diag(rho).astype(complex), t).diagonal().real
    assert abs(occ.sum() - 13) < 1e-9
    assert np.all(occ > -1e-12) and np.all(occ < 1 + 1e-12)
