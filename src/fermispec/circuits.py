"""Gate-level circuit IR shared by the compiler, optimizers and simulators.

Gates are value types over a closed gate set.  Angle-carrying kinds (RZ,
GIVENS) compare with a 1e-12 tolerance; everything else is exact.  GIVENS(theta)
denotes exp(i*(X_a X_b + Y_a Y_b)*theta/2), so on the span{|01>,|10>} it acts as
[[cos t, i sin t], [i sin t, cos t]].  A GIVENS costs two native two-qubit gates
on hardware and is counted as such by `two_qubit_count` / `two_qubit_depth`.

This module is the one definition of a gate: its arity, its angle, its
inverse (`invert`) and its dense 2x2 or 4x4 unitary (`gate_matrix`).  The
`sector` engine, the Clifford tableau and the dense `statevector` oracle all
read `gate_matrix` from here, so no runtime module imports `statevector`;
only `verify`, which the CLI runs, and the tests do.

BARRIER takes no qubits and cuts commutation-based layering globally; in the
text format it is a blank line.

It is also the home of the input rules that every module checks by: an
integer, a finite real (a bool is neither) and the qubits of an n-qubit
register, integers in [0, n) with no two equal; each is a predicate and a
`require_` helper that raises ValueError naming the value and the rule.
The memory rule, `require_memory`, refuses a call that would hold > 1 GiB.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum
from numbers import Integral, Real
from typing import Iterator, Sequence

import numpy as np

ANGLE_TOL = 1e-12


def is_integer(value, low: int = 0) -> bool:
    """value is an integer (a bool is not one) of at least `low`."""
    return isinstance(value, Integral) and not isinstance(value, bool) and value >= low


def require_integer(name: str, value, low: int = 0) -> None:
    """Raise ValueError naming `name` unless `is_integer(value, low)`."""
    if not is_integer(value, low):
        rule = f">= {low}" if is_integer(value, -math.inf) else "an integer"
        raise ValueError(f"{name} must be {rule}, got {value!r}")


def is_finite_real(value) -> bool:
    """value is a finite real number (a bool is not one, nor an int past float's range)."""
    try:
        return (type(value) is float or isinstance(value, Real) and not isinstance(value, bool)
                ) and math.isfinite(value)    # a float skips the slow ABC isinstance
    except OverflowError:                     # math.isfinite(10 ** 400)
        return False


def require_finite_real(name: str, value) -> None:
    """Raise ValueError naming `name` unless `is_finite_real(value)`."""
    if not is_finite_real(value):
        real = isinstance(value, Real) and not isinstance(value, bool)
        raise ValueError(f"{name} must be {'finite' if real else 'a real number'}, got {value!r}")


def require_memory(need: float, what: str) -> None:
    """Raise ValueError before a call holds `need` bytes at once when they
    would exceed 1 GiB; `what` says what it would hold."""
    if need > 2 ** 30:
        raise ValueError(f"{what}, about {need / 2 ** 30:.1f} GiB (limit 1 GiB)")


def are_qubits(qubits, num_qubits: int) -> bool:
    """qubits are integers in [0, num_qubits), no two equal."""
    for q in qubits:    # exact ints pass on the first test, without a call
        if not (type(q) is int and 0 <= q < num_qubits or is_integer(q) and q < num_qubits):
            return False
    return len(set(qubits)) == len(qubits)


def require_qubits(what, qubits, num_qubits: int) -> None:
    """Raise ValueError naming `what` unless `are_qubits(qubits, num_qubits)`;
    `what` is formatted only then, so a gate may be passed as it is."""
    if not are_qubits(qubits, num_qubits):
        rule = (f"out of range for {num_qubits} qubits" if len(set(qubits)) == len(qubits)
                else "repeats a qubit")
        raise ValueError(f"{what} {rule}")


class GateKind(Enum):
    CZ = "CZ"
    CX = "CX"
    CY = "CY"
    SWAP = "SWAP"
    FSWAP = "FSWAP"
    X = "X"
    Z = "Z"
    S = "S"
    SDG = "SDG"
    RZ = "RZ"
    GIVENS = "GIVENS"
    BARRIER = "BARRIER"


TWO_QUBIT_KINDS = frozenset({
    GateKind.CZ, GateKind.CX, GateKind.CY, GateKind.SWAP, GateKind.FSWAP,
    GateKind.GIVENS,
})
PARAMETRIC_KINDS = frozenset({GateKind.RZ, GateKind.GIVENS})


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        nq = len(self.qubits)
        if self.kind is GateKind.BARRIER:
            if nq != 0:
                raise ValueError("BARRIER takes no qubit operands")
        elif self.kind in TWO_QUBIT_KINDS:
            if nq != 2 or self.qubits[0] == self.qubits[1]:
                raise ValueError(f"{self.kind.value} needs two distinct qubits")
        else:
            if nq != 1:
                raise ValueError(f"{self.kind.value} is a single-qubit gate")
        for q in self.qubits:    # exact ints >= 0 pass without a call
            if type(q) is not int or q < 0:
                require_integer("qubit index", q)
        if (self.angle is not None) != (self.kind in PARAMETRIC_KINDS):
            raise ValueError(f"angle mismatch for {self.kind.value}")
        if self.angle is not None and not is_finite_real(self.angle):
            require_finite_real(f"{self.kind.value} angle", self.angle)

    def __eq__(self, other):
        if not isinstance(other, Gate):
            return NotImplemented
        if self.kind is not other.kind or self.qubits != other.qubits:
            return False
        if self.angle is None:
            return other.angle is None
        return other.angle is not None and abs(self.angle - other.angle) <= ANGLE_TOL

    def __hash__(self):
        return hash((self.kind, self.qubits))


def cz(a: int, b: int) -> Gate:
    return Gate(GateKind.CZ, (a, b))


def cx(control: int, target: int) -> Gate:
    return Gate(GateKind.CX, (control, target))


def cy(control: int, target: int) -> Gate:
    """Controlled-iY; equals CZ composed after CX on the same pair."""
    return Gate(GateKind.CY, (control, target))


def swap(a: int, b: int) -> Gate:
    return Gate(GateKind.SWAP, (a, b))


def fswap(a: int, b: int) -> Gate:
    """Fermionic swap: SWAP followed by CZ on the pair."""
    return Gate(GateKind.FSWAP, (a, b))


def x(q: int) -> Gate:
    return Gate(GateKind.X, (q,))


def z(q: int) -> Gate:
    return Gate(GateKind.Z, (q,))


def s(q: int) -> Gate:
    return Gate(GateKind.S, (q,))


def sdg(q: int) -> Gate:
    return Gate(GateKind.SDG, (q,))


def rz(angle: float, q: int) -> Gate:
    """diag(e^{-i angle/2}, e^{+i angle/2}) on qubit q."""
    require_finite_real("RZ angle", angle)
    return Gate(GateKind.RZ, (q,), float(angle))


def givens(angle: float, a: int, b: int) -> Gate:
    require_finite_real("GIVENS angle", angle)
    return Gate(GateKind.GIVENS, (a, b), float(angle))


def barrier() -> Gate:
    return Gate(GateKind.BARRIER, ())


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list on `num_qubits` qubits; first gate applies first."""
    num_qubits: int
    gates: tuple[Gate, ...]
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        require_integer("num_qubits", self.num_qubits)
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            require_qubits(g, g.qubits, self.num_qubits)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def __len__(self) -> int:
        return len(self.gates)

    def with_meta(self, **kv) -> "Circuit":
        meta = dict(self.meta)
        meta.update(kv)
        return Circuit(self.num_qubits, self.gates, meta)


def native_two_qubit_cost(gate: Gate) -> int:
    """Two-qubit gate cost in native gates; a GIVENS rotation costs two."""
    if gate.kind not in TWO_QUBIT_KINDS:
        return 0
    return 2 if gate.kind is GateKind.GIVENS else 1


def two_qubit_count(circuit: Circuit) -> int:
    """Total native two-qubit gate cost, barriers excluded."""
    return sum(native_two_qubit_cost(g) for g in circuit.gates)


def two_qubit_depth(circuit: Circuit) -> int:
    """Greedy left-to-right layering of two-qubit gates.

    Single-qubit gates are free; a barrier flushes every qubit to the current
    maximum layer.
    """
    depth = [0] * circuit.num_qubits
    for g in circuit.gates:
        if g.kind is GateKind.BARRIER:
            cut = max(depth, default=0)
            depth = [cut] * circuit.num_qubits
        elif g.kind in TWO_QUBIT_KINDS:
            a, b = g.qubits
            lvl = max(depth[a], depth[b]) + native_two_qubit_cost(g)
            depth[a] = depth[b] = lvl
    return max(depth, default=0)


_SELF_INVERSE = frozenset({GateKind.CZ, GateKind.CX, GateKind.SWAP,
                           GateKind.FSWAP, GateKind.X, GateKind.Z,
                           GateKind.BARRIER})


def _gate_inverse(g: Gate) -> tuple[Gate, ...]:
    if g.kind in _SELF_INVERSE:
        return (g,)
    if g.kind is GateKind.S:
        return (Gate(GateKind.SDG, g.qubits),)
    if g.kind is GateKind.SDG:
        return (Gate(GateKind.S, g.qubits),)
    if g.kind in PARAMETRIC_KINDS:
        return (Gate(g.kind, g.qubits, -g.angle),)
    if g.kind is GateKind.CY:
        # CY^2 = Z on the control, so CY^-1 = CY . Z_control
        return (g, Gate(GateKind.Z, (g.qubits[0],)))
    raise AssertionError(f"no inverse rule for {g.kind}")


_1Q = {
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.Z: np.diag([1, -1]).astype(complex),
    GateKind.S: np.diag([1, 1j]).astype(complex),
    GateKind.SDG: np.diag([1, -1j]).astype(complex),
}

_CZ = np.diag([1, 1, 1, -1]).astype(complex)
_SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                 dtype=complex)
_FSWAP = _SWAP @ _CZ
_CX = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
               dtype=complex)
# controlled-iY = CZ . CX
_CY = _CZ @ _CX


def gate_matrix(gate: Gate) -> np.ndarray:
    """Dense 2x2 or 4x4 unitary of a gate (two-qubit basis |q_a q_b>)."""
    k = gate.kind
    if k in _1Q:
        return _1Q[k]
    if k is GateKind.RZ:
        return np.diag([np.exp(-0.5j * gate.angle), np.exp(0.5j * gate.angle)])
    if k is GateKind.CZ:
        return _CZ
    if k is GateKind.CX:
        return _CX
    if k is GateKind.CY:
        return _CY
    if k is GateKind.SWAP:
        return _SWAP
    if k is GateKind.FSWAP:
        return _FSWAP
    if k is GateKind.GIVENS:
        c, sn = np.cos(gate.angle), np.sin(gate.angle)
        m = np.eye(4, dtype=complex)
        m[1, 1] = c
        m[1, 2] = 1j * sn
        m[2, 1] = 1j * sn
        m[2, 2] = c
        return m
    raise ValueError(f"no matrix for {k}")


def invert(circuit: Circuit) -> Circuit:
    """Reversed gate order with each gate replaced by its inverse."""
    gates: list[Gate] = []
    for g in reversed(circuit.gates):
        gates.extend(_gate_inverse(g))
    return Circuit(circuit.num_qubits, tuple(gates))


def remap(circuit: Circuit, qubit_map: Sequence[int], num_qubits: int) -> Circuit:
    """Relabel qubit indices through `qubit_map` (old index -> new index)."""
    gates = [Gate(g.kind, tuple(qubit_map[q] for q in g.qubits), g.angle)
             for g in circuit.gates]
    return Circuit(num_qubits, tuple(gates))


# ---------------------------------------------------------------------------
# line-oriented text format:  one gate per line, angle first for RZ/GIVENS,
# blank line = barrier, '#' starts a comment.
# ---------------------------------------------------------------------------

_GATE_RE = re.compile(r"\s*([A-Za-z]+)\s*\(([^()]*)\)")
_GATES_LINE_RE = re.compile(rf"(?:{_GATE_RE.pattern})+\s*")
_HEADER_RE = re.compile(r"\s*qubits:\s*([0-9]+)\s*")


def listing_qubits(text: str, num_qubits: int | None) -> int | None:
    """Register size a gate or edge listing fixes before its lines are read:
    an explicit `num_qubits`, else the listing's `# qubits: n` header, else
    None, and the parser takes max(1, 1 + the highest index).  A comment
    that holds `qubits:` is the header; a malformed header, or a second one,
    raises ValueError naming its line."""
    declared = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        comment = raw.partition("#")[2]
        if "qubits:" not in comment:
            continue
        m = _HEADER_RE.fullmatch(comment)
        if m is None or declared is not None:
            what = "a second" if m else "expected a"
            raise ValueError(f"line {lineno}: {what} '# qubits: n' header, got {raw.strip()!r}")
        declared = int(m.group(1))
    return declared if num_qubits is None else num_qubits


def format_circuit(circuit: Circuit) -> str:
    lines = [f"# qubits: {circuit.num_qubits}"]
    for g in circuit.gates:
        if g.kind is GateKind.BARRIER:
            lines.append("")
        elif g.kind in PARAMETRIC_KINDS:
            args = ",".join([repr(g.angle)] + [str(q) for q in g.qubits])
            lines.append(f"{g.kind.value}({args})")
        else:
            lines.append(f"{g.kind.value}({','.join(str(q) for q in g.qubits)})")
    return "\n".join(lines) + "\n"


def parse_circuit(text: str, num_qubits: int | None = None) -> Circuit:
    """Parse the text format; accepts several gate tokens on one line.

    Interior blank lines become barriers (matching the layer separators of
    shipped gate listings); leading/trailing blank lines and comment lines
    are ignored.  Text before a '#' that is not gate tokens, and a gate
    outside a register size that `listing_qubits` fixes, raise ValueError
    naming the line.
    """
    n = listing_qubits(text, num_qubits)
    gates: list[Gate] = []
    pending_blank = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.partition("#")[0].strip()
        if not line:
            pending_blank |= bool(gates) and not raw.strip()    # a comment line is no barrier
            continue
        if not _GATES_LINE_RE.fullmatch(line):
            raise ValueError(f"line {lineno}: expected gates such as CZ(0,1), got {line!r}")
        if pending_blank:
            gates.append(barrier())
            pending_blank = False
        for name, args in _GATE_RE.findall(line):
            try:
                kind = GateKind(name.upper())
                parts = args.split(",") if args.strip() else []
                angle = float(parts.pop(0)) if parts and kind in PARAMETRIC_KINDS else None
                gates.append(Gate(kind, tuple(map(int, parts)), angle))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            if n is not None and not are_qubits(gates[-1].qubits, n):
                require_qubits(f"line {lineno}: gate {gates[-1]}", gates[-1].qubits, n)
    if n is None:
        n = max(1, 1 + max((q for g in gates for q in g.qubits), default=-1))
    return Circuit(n, tuple(gates))


def write_circuit(circuit: Circuit, path) -> None:
    with open(path, "w") as fh:
        fh.write(format_circuit(circuit))


def read_circuit(path, num_qubits: int | None = None) -> Circuit:
    with open(path) as fh:
        return parse_circuit(fh.read(), num_qubits)
