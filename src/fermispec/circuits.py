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
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum
from numbers import Integral
from typing import Iterator, Sequence

import numpy as np

ANGLE_TOL = 1e-12


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
        if any(q < 0 for q in self.qubits):
            raise ValueError("qubit indices must be nonnegative")
        if (self.angle is not None) != (self.kind in PARAMETRIC_KINDS):
            raise ValueError(f"angle mismatch for {self.kind.value}")
        if self.angle is not None and not math.isfinite(self.angle):
            raise ValueError(f"{self.kind.value} angle must be finite, got {self.angle!r}")

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
    return Gate(GateKind.RZ, (q,), float(angle))


def givens(angle: float, a: int, b: int) -> Gate:
    return Gate(GateKind.GIVENS, (a, b), float(angle))


def barrier() -> Gate:
    return Gate(GateKind.BARRIER, ())


def require_qubit_count(num_qubits) -> None:
    """Raise ValueError naming `num_qubits` unless it is a non-negative
    integer (a bool is not one)."""
    if isinstance(num_qubits, bool) or not isinstance(num_qubits, Integral):
        raise ValueError(f"num_qubits must be an integer, got {num_qubits!r}")
    if num_qubits < 0:
        raise ValueError(f"num_qubits must be >= 0, got {num_qubits}")


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list on `num_qubits` qubits; first gate applies first."""
    num_qubits: int
    gates: tuple[Gate, ...]
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        require_qubit_count(self.num_qubits)
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if any(q >= self.num_qubits for q in g.qubits):
                raise ValueError(f"gate {g} out of range for {self.num_qubits} qubits")

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
            if n is not None and any(q >= n for q in gates[-1].qubits):
                raise ValueError(f"line {lineno}: gate {gates[-1]} out of range for {n} qubits")
    if n is None:
        n = max(1, 1 + max((q for g in gates for q in g.qubits), default=-1))
    return Circuit(n, tuple(gates))


def write_circuit(circuit: Circuit, path) -> None:
    with open(path, "w") as fh:
        fh.write(format_circuit(circuit))


def read_circuit(path, num_qubits: int | None = None) -> Circuit:
    with open(path) as fh:
        return parse_circuit(fh.read(), num_qubits)
