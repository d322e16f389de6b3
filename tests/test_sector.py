from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given

from fermispec import fft, protocol, sector, verify
from fermispec.circuits import Circuit, GateKind, cx, cz, gate_matrix, givens, rz, x
from fermispec.sector import ParticleConservationError

from strategies import pc_circuits


@pytest.mark.parametrize("n", range(1, 13))
def test_basis_holds_the_sorted_k_particle_bitstrings(n):
    every = np.arange(2 ** n)
    for k in range(n + 1):
        basis = sector.Basis(n, [k])
        want = sorted(sum(1 << (n - 1 - q) for q in qubits)
                      for qubits in combinations(range(n), k))
        assert basis.bits.dtype == np.int64
        assert basis.bits.tolist() == want
        assert np.array_equal(basis.bits, every[np.bitwise_count(every) == k])
        assert len(basis) == comb(n, k)
        assert np.all(basis.particle_numbers() == k)
    union = sector.Basis(n, [n, 0])
    assert union.bits.tolist() == [0, 2 ** n - 1]
    assert sector.Basis(n).bits.tolist() == list(range(2 ** n))


def test_basis_of_few_holes_is_built_from_few_levels():
    """A sector with k > n/2 keeps only the levels that can still reach k:
    two holes in 54 qubits are the complements of the two-particle strings."""
    holes = sector.Basis(54, [52])
    assert len(holes) == 1431
    assert np.array_equal(holes.bits, ((1 << 54) - 1 - sector.Basis(54, [2]).bits)[::-1])


def test_basis_rejects_impossible_particle_numbers():
    with pytest.raises(ValueError):
        sector.Basis(3, [4])
    for ks in ([1.5], [-1], [True]):
        with pytest.raises(ValueError, match="particle number must be"):
            sector.Basis(4, ks)


@pytest.mark.parametrize("ks", [None, [0]])
def test_basis_rejects_negative_qubit_count(ks):
    with pytest.raises(ValueError, match="num_qubits must be >= 0, got -1"):
        sector.Basis(-1, ks)


@pytest.mark.parametrize("ks", [None, [1]])
@pytest.mark.parametrize("count", [3.0, 2.5, False])
def test_basis_rejects_non_integer_qubit_count(count, ks):
    with pytest.raises(ValueError, match=f"num_qubits must be an integer, got {count!r}"):
        sector.Basis(count, ks)


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


def _uncached_blocks(circuit):
    """(qubits, matrix, kinds) of each run, every run merged anew: the merge
    that compile_circuit does once per distinct run."""
    qubits, m, kinds = (), None, []
    for g in circuit.gates:
        if g.kind is GateKind.BARRIER:
            continue
        union = qubits + tuple(q for q in g.qubits if q not in qubits)
        if m is not None and len(union) <= 2:
            m = sector._lift(gate_matrix(g), g.qubits, union) @ sector._lift(m, qubits, union)
            qubits = union
            kinds.append(g.kind.value)
            continue
        if m is not None:
            yield qubits, m, kinds
        qubits, m, kinds = g.qubits, gate_matrix(g), [g.kind.value]
    if m is not None:
        yield qubits, m, kinds


def _uncached_program(circuit, basis):
    """compile_circuit over `_uncached_blocks`: the oracle of the cached merge."""
    program = []
    ranks = phases = None

    def monomial(ph, r=None):
        nonlocal ranks, phases
        if phases is None:
            ranks, phases = r, ph
        elif r is None:
            phases = ph * phases
        else:
            ranks, phases = (r if ranks is None else ranks[r]), ph * phases[r]

    def flush():
        nonlocal ranks, phases
        if phases is not None:
            program.append(("diag", phases) if ranks is None else ("perm", ranks, phases))
        ranks = phases = None

    for qubits, m, kinds in _uncached_blocks(circuit):
        empty, full, pair = sector.number_parts(m, f"{' '.join(kinds)} on qubits {qubits}")
        if pair is None:
            monomial(basis.diagonal(qubits, (empty, full)))
        elif pair[0, 1] == 0 and pair[1, 0] == 0:
            monomial(basis.diagonal(qubits, (empty, pair[0, 0], pair[1, 1], full)))
        elif pair[0, 0] == 0 and pair[1, 1] == 0:
            i01, i10 = basis.pair(*qubits)
            r = np.arange(len(basis))
            r[i01], r[i10] = i10, i01
            monomial(basis.diagonal(qubits, (empty, pair[0, 1], pair[1, 0], full)), r)
        else:
            if empty != 1 or full != 1:
                monomial(basis.diagonal(qubits, (empty, 1, 1, full)))
            flush()
            program.append(("pair", np.concatenate(basis.pair(*qubits)), pair))
    flush()
    return program


def _assert_programs_equal(got, want):
    assert [op[0] for op in got] == [op[0] for op in want]
    for a, b in zip(got, want):
        assert all(np.array_equal(x, y) for x, y in zip(a[1:], b[1:]))


def _kept_fft(n):
    """The graph-decimated FFFT on n modes without its interleave blocks: the
    part `single_particle_transfer` runs in sectors."""
    plan = fft.FFTPlan(n, fft.fft_radix(n), fft.InterleaveStrategy.GRAPH_DECIMATED)
    circuit = fft.compile_fft(plan)
    keep = list(circuit.gates)
    for start, end, _ in reversed(circuit.meta["interleave_blocks"]):
        del keep[start:end]
    return Circuit(n, tuple(keep))


@pytest.mark.parametrize("n", [2, 3, 4, 8, 9])
def test_readout_program_equals_uncached_merge(n):
    """The readout's program, op by op, on the sectors of both fillings."""
    basis = sector.Basis(2 * n, [n // 2, n // 2 + n])
    circuit = protocol._readout_circuit(n)
    _assert_programs_equal(sector.compile_circuit(circuit, basis),
                           _uncached_program(circuit, basis))


@pytest.mark.parametrize("interaction", [0.0, 2.3])
@pytest.mark.parametrize("n", [3, 4])
def test_step_program_equals_uncached_merge(n, interaction):
    basis = sector.Basis(2 * n, [n // 2, n // 2 + n])
    for omega in (0.0, 0.7):
        circuit = protocol.trotter_step_circuit(
            protocol.ProtocolConfig(n, 0.3, nu=0.8, interaction=interaction), 0.37, omega)
        _assert_programs_equal(sector.compile_circuit(circuit, basis),
                               _uncached_program(circuit, basis))


@pytest.mark.parametrize("n", [8, 9, 27, 64])
def test_fft_programs_equal_uncached_merge(n):
    """The LOCAL_FSWAP FFFT and the kept graph-decimated FFFT on the sectors
    0 and 1 that `gaussian.extract_mode_transform` runs."""
    basis = sector.Basis(n, (0, 1))
    for circuit in (fft.fft_circuit(n, fft.fft_radix(n), fft.InterleaveStrategy.LOCAL_FSWAP),
                    _kept_fft(n)):
        _assert_programs_equal(sector.compile_circuit(circuit, basis),
                               _uncached_program(circuit, basis))


def _run_key(qubits, gates):
    return tuple((g.kind, g.angle, tuple(qubits.index(q) for q in g.qubits)) for g in gates)


def test_one_number_parts_per_distinct_run(monkeypatch):
    """On the kept N = 64 FFFT, 248 runs, most of them copies of the radix-2
    base block, split by particle number once per distinct run."""
    circuit = _kept_fft(64)
    runs = list(sector._blocks(circuit))
    distinct = {_run_key(qubits, gates) for qubits, gates in runs}
    assert len(runs) == 248 and len(distinct) == 33
    calls = []
    number_parts = sector.number_parts
    monkeypatch.setattr(sector, "number_parts",
                        lambda u, what: calls.append(what) or number_parts(u, what))
    sector.compile_circuit(circuit, sector.Basis(64, (0, 1)))
    assert len(calls) == len(distinct)


def test_run_key_holds_the_exact_angle():
    """Two RZ runs 1e-13 apart in angle, which Gate compares as equal, merge
    apart: the program is the uncached one, not the one with the first angle
    twice."""
    a, b = 0.3, 0.3 + 1e-13
    basis = sector.Basis(3, [1])
    circuit = Circuit(3, (rz(a, 0), cz(1, 2), rz(b, 0)))
    assert rz(a, 0) == rz(b, 0)
    got = sector.compile_circuit(circuit, basis)
    _assert_programs_equal(got, _uncached_program(circuit, basis))
    same = Circuit(3, (rz(a, 0), cz(1, 2), rz(a, 0)))
    assert not np.array_equal(got[0][1], sector.compile_circuit(same, basis)[0][1])


def test_run_key_holds_the_qubit_positions():
    """Runs of the same gates and angles, the RZ on the run's first qubit
    in one and its second in the other, merge apart."""
    circuit = Circuit(4, (cz(0, 1), rz(0.3, 0), cz(2, 3), rz(0.3, 3)))
    for ks in ([1], [2]):
        basis = sector.Basis(4, ks)
        _assert_programs_equal(sector.compile_circuit(circuit, basis),
                               _uncached_program(circuit, basis))


def test_repeated_failing_run_names_the_first():
    """Of two lone X runs, which share a key, the first raises, named by its
    own qubits."""
    circuit = Circuit(4, (x(0), cz(1, 2), x(3)))
    with pytest.raises(ParticleConservationError,
                       match=r"^X on qubits \(0,\) does not conserve particle number$"):
        sector.compile_circuit(circuit, sector.Basis(4, [1]))


def test_circuit_and_basis_sizes_must_match():
    with pytest.raises(ValueError):
        sector.compile_circuit(Circuit(3, (cz(0, 1),)), sector.Basis(2))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 10])
def test_momentum_operators_match_dense_jw_operators(n):
    """Basis.lowering is the dense JW annihilator c_j restricted to the basis,
    mode by mode, and annihilate/create apply the dense c(k) and c^dag(k) for
    every k: on each single sector, on unions of neighbouring sectors and of
    the empty and full ones, and on the full basis."""
    from fermispec import statevector as sv
    modes = [sv.annihilation_operator(n, j) for j in range(n)]
    cks = [sv.momentum_annihilation(n, 2 * np.pi * m / n) for m in range(n)]
    rng = np.random.default_rng(n)
    sectors = ([[k] for k in range(n + 1)] + [[k - 1, k, k + 1] for k in range(1, n)]
               + [[0, n], None])
    for ks in sectors:
        basis = sector.Basis(n, ks)
        rows = np.ix_(basis.bits, basis.bits)
        for j, op in enumerate(modes):
            src, dst, sign = basis.lowering(j)
            got = np.zeros((len(basis), len(basis)))
            got[dst, src] = sign
            # c_j maps out of a single sector: keep the entries that land in the basis
            assert np.array_equal(got, op[rows].real), (ks, j)
        xs = [rng.normal(size=(len(basis),) + batch) + 1j * rng.normal(size=(len(basis),) + batch)
              for batch in ((), (3,))]
        ops = [(sector.annihilate(basis, x), sector.create(basis, x)) for x in xs]
        for m, ck in enumerate(cks):
            sub = ck[rows]
            for x, (down, up) in zip(xs, ops):
                assert np.max(np.abs(down[m] - sub @ x), initial=0) <= 1e-14, (ks, m)
                assert np.max(np.abs(up[m] - sub.conj().T @ x), initial=0) <= 1e-14, (ks, m)
