import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given

import fermispec
from fermispec.circuits import (Circuit, Gate, GateKind, barrier, cx, cy, cz,
                                format_circuit, givens, invert, parse_circuit,
                                rz, two_qubit_count, two_qubit_depth)
from fermispec.fft import base_fft, imported_interleave_sequence
from fermispec.statevector import circuit_unitary, unitaries_equal_up_to_phase

from strategies import any_circuits, circuits, TWO_QUBIT, SINGLE_QUBIT


def test_gate_validation():
    with pytest.raises(ValueError):
        cz(1, 1)
    with pytest.raises(ValueError):
        Gate(GateKind.Z, (0, 1))
    with pytest.raises(ValueError):
        Gate(GateKind.RZ, (0,))          # angle missing
    with pytest.raises(ValueError):
        Gate(GateKind.CZ, (0, 1), 0.3)   # spurious angle
    with pytest.raises(ValueError):
        Gate(GateKind.BARRIER, (0,))
    with pytest.raises(ValueError):
        Circuit(2, (cz(0, 2),))
    for q, kind in ((1.5, "an integer"), (True, "an integer"), (-1, ">= 0")):
        with pytest.raises(ValueError, match=f"qubit index must be {kind}, got {q!r}"):
            cz(0, q)
        with pytest.raises(ValueError, match=f"qubit index must be {kind}, got {q!r}"):
            Gate(GateKind.X, (q,))


def _rule_uses(tree: ast.AST) -> list[str]:
    """Each import of numbers.Integral or numbers.Real and each use of
    operator.index in a parsed module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("numbers", "operator"):
            found += [f"from {node.module} import {a.name}" for a in node.names
                      if a.name in ("Integral", "Real", "index", "*")]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and (node.value.id, node.attr) in (("numbers", "Integral"), ("numbers", "Real"),
                                                 ("operator", "index"))):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_input_rules_live_in_circuits():
    """Only `circuits` decides what an integer or a real number is: no other
    module imports numbers.Integral or numbers.Real, or calls operator.index."""
    src = Path(fermispec.__file__).resolve().parent
    offenders = {path.name: uses for path in sorted(src.glob("*.py"))
                 if path.name != "circuits.py"
                 and (uses := _rule_uses(ast.parse(path.read_text())))}
    assert offenders == {}
    assert _rule_uses(ast.parse((src / "circuits.py").read_text()))


def test_bit_layout_and_memory_rule_have_one_home():
    """`protocol` shifts no bits (`sector.Basis.mask` and `occupied` hold the
    bit layout), and only `circuits` defines the memory rule."""
    src = Path(fermispec.__file__).resolve().parent
    shifts = [node.lineno for node in ast.walk(ast.parse((src / "protocol.py").read_text()))
              if isinstance(node, (ast.BinOp, ast.AugAssign))
              and isinstance(node.op, (ast.LShift, ast.RShift))]
    assert shifts == []
    homes = {path.name for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.FunctionDef) and node.name.lstrip("_") == "require_memory"}
    assert homes == {"circuits.py"}


def test_negative_qubit_count_rejected():
    with pytest.raises(ValueError, match="num_qubits must be >= 0, got -5"):
        Circuit(-5, ())
    assert len(Circuit(0, ())) == 0


@pytest.mark.parametrize("count", [2.5, 2.0, True, "2"])
def test_non_integer_qubit_count_rejected(count):
    with pytest.raises(ValueError, match=f"num_qubits must be an integer, got {count!r}"):
        Circuit(count, (cz(0, 1),))


def test_angle_tolerance_equality():
    assert rz(0.5, 0) == rz(0.5 + 1e-13, 0)
    assert rz(0.5, 0) != rz(0.5 + 1e-9, 0)


def test_two_qubit_count_examples():
    assert two_qubit_count(Circuit(3, ())) == 0
    assert two_qubit_count(base_fft(2)) == 2
    assert two_qubit_count(base_fft(3)) == 6


def test_two_qubit_depth_examples():
    assert two_qubit_depth(Circuit(2, ())) == 0
    assert two_qubit_depth(Circuit(4, (cz(0, 1), cz(2, 3)))) == 1
    assert two_qubit_depth(Circuit(3, (cz(0, 1), cz(1, 2)))) == 2


def test_barrier_cuts_layering():
    free = Circuit(4, (cz(0, 1), cz(2, 3)))
    cut = Circuit(4, (cz(0, 1), barrier(), cz(2, 3)))
    assert two_qubit_depth(free) == 1
    assert two_qubit_depth(cut) == 2


def test_invert_examples():
    assert invert(Circuit(1, (rz(0.3, 0),))).gates == (rz(-0.3, 0),)
    f2 = base_fft(2)
    both = Circuit(2, invert(f2).gates + f2.gates)
    assert unitaries_equal_up_to_phase(circuit_unitary(both), np.eye(4), 1e-12)


def test_invert_cy_needs_z_correction():
    c = Circuit(2, (cy(0, 1),))
    both = Circuit(2, invert(c).gates + c.gates)
    assert unitaries_equal_up_to_phase(circuit_unitary(both), np.eye(4), 1e-12)


@given(circuits([k for k in TWO_QUBIT + SINGLE_QUBIT if k != GateKind.CY],
                max_qubits=4, max_gates=12))
def test_invert_is_involution_without_cy(c):
    assert invert(invert(c)).gates == c.gates


@given(any_circuits)
def test_invert_preserves_two_qubit_count(c):
    assert two_qubit_count(invert(c)) == two_qubit_count(c)


@given(circuits(TWO_QUBIT + SINGLE_QUBIT, max_qubits=4, max_gates=10))
def test_invert_unitary_property(c):
    both = Circuit(c.num_qubits, invert(c).gates + c.gates)
    u = circuit_unitary(both)
    assert unitaries_equal_up_to_phase(u, np.eye(2 ** c.num_qubits), 1e-12)


@given(any_circuits)
def test_text_format_round_trip(c):
    back = parse_circuit(format_circuit(c))
    assert back.num_qubits == c.num_qubits
    assert back.gates == c.gates


def test_parse_multiple_gates_per_line():
    c = parse_circuit("CX(6,3)CZ(7,2)\n\nCZ(6,4)\n")
    kinds = [g.kind for g in c.gates]
    assert kinds == [GateKind.CX, GateKind.CZ, GateKind.BARRIER, GateKind.CZ]
    assert c.num_qubits == 8


def test_parse_angle_gates():
    c = parse_circuit("RZ(0.75,2)\nGIVENS(-0.5,0,1)\n")
    assert c.gates[0] == rz(0.75, 2)
    assert c.gates[1] == givens(-0.5, 0, 1)


@pytest.mark.parametrize("build, message", [
    (lambda: parse_circuit("RZ(nan,0)\nGIVENS(0.5,0,1)"), "RZ angle must be finite, got nan"),
    (lambda: parse_circuit("RZ(0.5,0)\nGIVENS(inf,0,1)"), "GIVENS angle must be finite, got inf"),
    (lambda: rz(float("nan"), 0), "RZ angle must be finite, got nan"),
    (lambda: givens(-np.inf, 0, 1), "GIVENS angle must be finite, got -inf"),
    (lambda: parse_circuit("CZ(0,1)\nCZ[0,1]\n"), "line 2: expected gates"),
    (lambda: parse_circuit("CZ(0,1)\nCZ(1,2) junk\n"), "line 2: expected gates"),
    (lambda: parse_circuit("CZ(0,1)\n# qubits: x\n"), "line 2: expected a '# qubits: n'"),
    (lambda: parse_circuit("# qubits: 3\n# qubits: 4\n"), "line 2: a second '# qubits: n'"),
    (lambda: parse_circuit("CZ(0,1)\nFOO(0)\n"), "line 2: 'FOO' is not a valid GateKind"),
    (lambda: parse_circuit("CZ(0,1)\nCZ(0,,1)\n"), "line 2: invalid literal for int"),
    (lambda: parse_circuit("CZ(0,1)\nRZ()\n"), "line 2: RZ is a single-qubit gate"),
    (lambda: parse_circuit("CZ(0,1)\nBARRIER(1)\n"), "line 2: BARRIER takes no qubit"),
], ids=["parse-rz-nan", "parse-givens-inf", "rz-nan", "givens-minus-inf", "parse-brackets",
        "parse-trailing-text", "parse-bad-header", "parse-second-header", "parse-unknown-gate",
        "parse-empty-operand", "parse-no-angle", "parse-barrier-operand"])
def test_non_finite_angle_rejected(build, message):
    """A NaN or infinite angle fails where the gate is built, naming it; so
    does each malformed line of a listing, naming the line: text that is not
    a gate token, a bad operand, and a malformed or second header."""
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("angle, message", [
    (10**400, "must be finite"), (True, "must be a real number"),
    ("0.5", "must be a real number"), (None, "must be a real number"),
], ids=["huge-int", "bool", "str", "none"])
@pytest.mark.parametrize("kind", ["RZ", "GIVENS"])
def test_angle_constructors_check_the_angle_first(kind, angle, message):
    """`rz` and `givens` run the input rule before `float(angle)`: a huge int
    used to raise OverflowError, True and "0.5" became 1.0 and 0.5, and None
    raised TypeError.  A valid angle is still stored as `float(angle)`."""
    build = (lambda a: rz(a, 0)) if kind == "RZ" else (lambda a: givens(a, 0, 1))
    with pytest.raises(ValueError, match=f"{kind} angle {message}"):
        build(angle)
    for valid in (1, np.float32(0.1), -0.5):
        assert type(build(valid).angle) is float and build(valid).angle == float(valid)


def test_circuit_header_and_comments():
    """Text after '#' is a comment, a comment line is not a barrier, the
    header sizes the register and an explicit num_qubits wins over it."""
    text = "CZ(0,1) # first\n# a note\nCZ(1,2)\n# qubits: 5\n"
    assert parse_circuit(text) == Circuit(5, (cz(0, 1), cz(1, 2)))
    assert parse_circuit(text, num_qubits=7).num_qubits == 7
    assert parse_circuit("CZ(0,1)\n").num_qubits == 2


def test_gate_outside_known_register_names_its_line():
    """A gate beyond the header's or the explicit register size fails on its
    own line, not after the whole listing is read."""
    with pytest.raises(ValueError, match=r"line 2: gate .* out of range for 2 qubits"):
        parse_circuit("# qubits: 2\nCZ(0,3)\n")
    with pytest.raises(ValueError, match=r"line 3: gate .* out of range for 3 qubits"):
        parse_circuit("CZ(0,1)\n\nRZ(0.5,3)\n", num_qubits=3)


def test_imported_listing_gate_mix():
    c = imported_interleave_sequence(27)
    counts = {"CX": 0, "CZ": 0}
    for g in c.gates:
        if g.kind in (GateKind.CX, GateKind.CZ):
            counts[g.kind.value] += 1
    assert counts == {"CX": 26, "CZ": 34}
    assert two_qubit_count(c) == 60


def test_imported_listing_9():
    c = imported_interleave_sequence(9)
    assert two_qubit_count(c) == 9
    assert c.gates[0] == cx(6, 3)
