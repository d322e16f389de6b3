"""Shared hypothesis strategies for circuit-level property tests."""
import math

from hypothesis import strategies as st

from fermispec.circuits import PARAMETRIC_KINDS, TWO_QUBIT_KINDS, Circuit, Gate, GateKind

# every gate kind but BARRIER, so that a new kind gets hypothesis coverage
TWO_QUBIT = [k for k in GateKind if k in TWO_QUBIT_KINDS]
SINGLE_QUBIT = [k for k in GateKind if k not in TWO_QUBIT_KINDS and k is not GateKind.BARRIER]

# RZ and GIVENS enter at Clifford angles (`clifford_angles`)
CLIFFORD_KINDS = [GateKind.CZ, GateKind.CX, GateKind.CY, GateKind.SWAP,
                  GateKind.FSWAP, GateKind.X, GateKind.Z, GateKind.S, GateKind.SDG,
                  GateKind.RZ, GateKind.GIVENS]
PARTICLE_CONSERVING = [GateKind.CZ, GateKind.SWAP, GateKind.FSWAP, GateKind.GIVENS,
                       GateKind.Z, GateKind.S, GateKind.SDG, GateKind.RZ]

angles = st.floats(min_value=-math.pi, max_value=math.pi,
                   allow_nan=False, allow_infinity=False)
clifford_angles = st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2])


def gate_for(kind: GateKind, num_qubits: int, angle_strategy=angles):
    pair = st.lists(st.integers(0, num_qubits - 1), min_size=2, max_size=2,
                    unique=True).map(tuple)
    single = st.integers(0, num_qubits - 1).map(lambda q: (q,))
    qubits = pair if kind in TWO_QUBIT else single
    if kind in PARAMETRIC_KINDS:
        return st.tuples(qubits, angle_strategy).map(
            lambda t: Gate(kind, t[0], t[1]))
    return qubits.map(lambda q: Gate(kind, q))


def circuits(kinds, min_qubits=1, max_qubits=5, max_gates=25,
             angle_strategy=angles):
    def build(n):
        usable = [k for k in kinds if n >= 2 or k not in TWO_QUBIT]
        gates = st.lists(
            st.sampled_from(usable).flatmap(
                lambda k: gate_for(k, n, angle_strategy)),
            min_size=0, max_size=max_gates)
        return gates.map(lambda gs: Circuit(n, tuple(gs)))

    return st.integers(min_qubits, max_qubits).flatmap(build)


any_circuits = circuits(TWO_QUBIT + SINGLE_QUBIT, min_qubits=1, max_qubits=5)
clifford_circuits = circuits(CLIFFORD_KINDS, min_qubits=2, max_qubits=5,
                             angle_strategy=clifford_angles)
clifford_circuits_8q = circuits(CLIFFORD_KINDS, min_qubits=2, max_qubits=8,
                                angle_strategy=clifford_angles)
pc_circuits = circuits(PARTICLE_CONSERVING, min_qubits=2, max_qubits=6)
