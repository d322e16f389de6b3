"""Radix-n fast fermionic Fourier transform compiler.

The compiled circuit realizes the transfer F c_j F^dag = N^(-1/2) sum_l
exp(2i pi l j / N) c_l on Jordan-Wigner-ordered modes.  One recursion level
emits: interleave (group modes by residue class mod n), n recursive
transforms on contiguous blocks, the twiddle Rz layer (mode phase
e^{2i pi b l / N} on index b of block l), and a column of radix-n base
transforms across strides, realized as un-interleave + adjacent base blocks
+ final interleave.  The two candidate twiddle placements were disambiguated
against the DFT oracle; this one validates.

Interleave strategies:
  LOCAL_FSWAP      adjacent-transposition FSWAP network, physical reordering
  CX_LADDER        suffix-parity CX ladders + one parallel CZ layer per
                   residue pair; SWAPs stay in software
  GRAPH_DECIMATED  greedy graph decimation of the inversion CZ graph
  IMPORTED_SEQUENCE  shipped gate listings (radix 3 on 9 and 27 qubits)

Software strategies emit only the inversion-parity CZ unitary; the pending
mode relabeling is threaded through every later gate index and recorded in
circuit.meta["mode_order"] (mode held by each qubit at the end).

One compile builds each distinct interleave once, whatever the strategy, and
emits it once per copy on that copy's own qubits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from importlib import resources

import numpy as np

from .circuits import (Circuit, Gate, GateKind, cz, cx, fswap, givens, is_integer, remap,
                       require_finite_real, require_integer, rz, s, sdg, x, z, parse_circuit,
                       invert)
from .czgraph import CZGraph, decimate, graph_from_edges
from .gaussian import band_energies, extract_mode_transform
from .tableau import tableau_of, tableau_of_cz_edges

_BETA = math.acos(1 / math.sqrt(3))


class InterleaveStrategy(Enum):
    LOCAL_FSWAP = "local-fswap"
    CX_LADDER = "cx-ladder"
    GRAPH_DECIMATED = "graph-decimated"
    IMPORTED_SEQUENCE = "imported"


@dataclass(frozen=True)
class FFTPlan:
    num_modes: int
    radix: int
    interleave_strategy: InterleaveStrategy = InterleaveStrategy.LOCAL_FSWAP
    depth_penalty: float = 0.5

    def __post_init__(self):
        require_integer("num_modes", self.num_modes, 2)
        require_integer("radix", self.radix, 2)
        if not isinstance(self.interleave_strategy, InterleaveStrategy):
            raise ValueError(f"interleave_strategy must be one of "
                             f"{[s.value for s in InterleaveStrategy]}, "
                             f"got {self.interleave_strategy!r}")
        if fft_radix(self.num_modes) != self.radix:
            raise ValueError(f"num_modes {self.num_modes} is not a power of radix "
                             f"{self.radix} (supported radices: 2, 3)")
        require_finite_real("depth_penalty", self.depth_penalty)


def fft_radix(num_modes: int) -> int | None:
    """The FFFT radix of num_modes = 2**k or 3**k (k >= 1); None otherwise."""
    for radix in (2, 3):
        power = radix
        while power < num_modes:
            power *= radix
        if power == num_modes:
            return radix
    return None


def has_shipped_listing(num_modes: int, radix: int) -> bool:
    """True for the interleaves with a shipped listing: radix 3, 9 or 27 qubits."""
    return radix == 3 and num_modes in (9, 27)


@dataclass(frozen=True)
class InterleavePermutation:
    """sigma maps old position n*q+l to new position l*(N/n)+q."""
    num_modes: int
    radix: int
    sigma: tuple[int, ...]

    @property
    def mode_order(self) -> tuple[int, ...]:
        """Mode found at each new position: 0, n, 2n, ..., 1, n+1, ..."""
        inv = [0] * self.num_modes
        for old, new in enumerate(self.sigma):
            inv[new] = old
        return tuple(inv)


def interleave_permutation(num_modes: int, radix: int) -> InterleavePermutation:
    require_integer("num_modes", num_modes)
    if not is_integer(radix, 1) or num_modes % radix != 0:
        raise ValueError(f"radix {radix!r} is not a positive divisor of {num_modes}")
    m = num_modes // radix
    sigma = [0] * num_modes
    for q in range(m):
        for l in range(radix):
            sigma[radix * q + l] = l * m + q
    return InterleavePermutation(num_modes, radix, tuple(sigma))


def permutation_inversions(sigma) -> list[tuple[int, int]]:
    n = len(sigma)
    return [(i, j) for i in range(n) for j in range(i + 1, n)
            if sigma[i] > sigma[j]]


def interleave_cz_graph(perm: InterleavePermutation) -> CZGraph:
    """Parity CZs left over when the mode permutation is done in software.

    A fermionic permutation by software relabeling differs from the FSWAP
    network by the phase (-1)^(number of occupied inverted pairs): one CZ
    per inversion.  Edges carry the post-permutation labels, i.e. the FSWAP
    network factorizes as U_CZ(these edges) composed after the bare qubit
    permutation; this is the labeling of the shipped interleave listings
    (the dense oracle separates the two conventions at N = 27, where sigma
    is not an involution).
    """
    sig = perm.sigma
    edges = [tuple(sorted((sig[i], sig[j])))
             for (i, j) in permutation_inversions(sig)]
    return graph_from_edges(perm.num_modes, edges)


def _fswap_network(perm: InterleavePermutation) -> list[tuple[int, int]]:
    """Adjacent transpositions sorting the mode order back to 0..N-1."""
    arr = list(range(perm.num_modes))  # arr[pos] = mode currently there
    order = list(perm.mode_order)
    swaps: list[tuple[int, int]] = []
    for target_pos in range(perm.num_modes):
        want = order[target_pos]
        p = arr.index(want, target_pos)
        while p > target_pos:
            swaps.append((p - 1, p))
            arr[p - 1], arr[p] = arr[p], arr[p - 1]
            p -= 1
    return swaps


def _cx_ladder_gates(perm: InterleavePermutation) -> list[Gate]:
    """Suffix-parity ladder realization of the inversion CZ unitary.

    For residue classes l > l', every inverted pair (q, l)-(q', l') with
    q < q' is phased at once: accumulate suffix parities on class l' with a
    CX chain, place one CZ per q from (q, l) onto the parity qubit
    (q+1, l'), then undo the chains.
    """
    n, r = perm.num_modes, perm.radix
    m = n // r

    # post-permutation labels: residue class l sits on the contiguous block
    # [l*m, (l+1)*m), entry q at l*m + q
    def pos(q, l):
        return l * m + q

    # Process target classes in order: the sources for class l' are the
    # classes above it, whose own ladders are built only later, so every CZ
    # reads unpolluted source bits.
    gates: list[Gate] = []
    ladder_cxs: list[Gate] = []
    for lp in range(r - 1):
        chain = [cx(pos(q + 1, lp), pos(q, lp)) for q in range(m - 2, -1, -1)]
        gates.extend(chain)
        ladder_cxs.extend(chain)
        for l in range(lp + 1, r):
            gates.extend(cz(pos(q, l), pos(q + 1, lp)) for q in range(m - 1))
    gates.extend(reversed(ladder_cxs))
    return gates


def imported_interleave_sequence(num_modes: int, radix: int = 3) -> Circuit:
    """Shipped interleave listings (radix 3 on 9 and 27 qubits), parsed."""
    if not has_shipped_listing(num_modes, radix):
        raise ValueError(f"no shipped interleave listing for radix {radix} on {num_modes} qubits")
    name = f"interleave{num_modes}.txt"
    text = resources.files("fermispec.data").joinpath(name).read_text()
    return parse_circuit(text, num_qubits=num_modes)


def interleave_circuit(perm: InterleavePermutation,
                       strategy: InterleaveStrategy,
                       depth_penalty: float = 0.5) -> Circuit:
    """Circuit for one interleave; see module docstring for conventions."""
    n = perm.num_modes
    if strategy is InterleaveStrategy.LOCAL_FSWAP:
        gates = tuple(fswap(a, b) for (a, b) in _fswap_network(perm))
        return Circuit(n, gates, {"convention": "physical",
                                  "mode_order": tuple(range(n))})
    if strategy is InterleaveStrategy.CX_LADDER:
        c = Circuit(n, tuple(_cx_ladder_gates(perm)))
    elif strategy is InterleaveStrategy.GRAPH_DECIMATED:
        c = decimate(interleave_cz_graph(perm), depth_penalty)
    elif strategy is InterleaveStrategy.IMPORTED_SEQUENCE:
        c = imported_interleave_sequence(n, perm.radix)
    else:
        raise ValueError(f"unknown strategy {strategy}")
    return c.with_meta(convention="software-swap", mode_order=perm.mode_order)


def base_fft(radix: int) -> Circuit:
    """Radix-2/3 base transforms.

    These are the reference two- and six-native-gate decompositions with S/Sdg
    exchanged and rotation angles negated (the overall complex conjugate),
    which is what realizes the +2*pi*i transfer convention used throughout;
    the DFT oracle fixes this choice and the 0-based qubit labels.
    """
    if radix == 2:
        return Circuit(2, (sdg(0), givens(-math.pi / 4, 0, 1), s(0), z(1)))
    if radix == 3:
        return Circuit(3, (sdg(1), givens(-math.pi / 4, 1, 2), s(1),
                           sdg(0), givens(-_BETA, 0, 1), s(0),
                           givens(-math.pi / 4, 1, 2), z(1), sdg(2)))
    raise ValueError(f"unsupported radix {radix}; supported: 2, 3")


# --------------------------------------------------------------------------
# recursive compiler
# --------------------------------------------------------------------------

class _Emitter:
    def __init__(self, num_modes: int, plan: FFTPlan):
        self.plan = plan
        self.gates: list[Gate] = []
        self.pos = list(range(num_modes))  # logical slot -> physical qubit
        self.blocks: list[dict] = []       # software interleave block records
        self.software = plan.interleave_strategy is not InterleaveStrategy.LOCAL_FSWAP
        # sigma -> (strategy circuit in pre-permutation labels, inversions);
        # the plan fixes strategy and depth penalty, so sigma is the whole key
        self.interleaves: dict[tuple[int, ...], tuple[Circuit, list]] = {}

    def emit_mapped(self, circuit: Circuit, base_slot: int) -> None:
        for g in circuit.gates:
            if g.kind is GateKind.BARRIER:
                continue
            self.gates.append(Gate(
                g.kind, tuple(self.pos[base_slot + q] for q in g.qubits), g.angle))

    def interleave(self, perm: InterleavePermutation) -> Circuit:
        """The strategy circuit for perm, in this emitter's pre-permutation labels."""
        strategy = self.plan.interleave_strategy
        if strategy is InterleaveStrategy.IMPORTED_SEQUENCE and not has_shipped_listing(
                perm.num_modes, perm.radix):
            # no shipped listing for this step; CX ladder covers it
            strategy = InterleaveStrategy.CX_LADDER
        sub = interleave_circuit(perm, strategy, self.plan.depth_penalty)
        if not self.software:
            return sub
        # strategy circuits carry post-permutation labels; this emitter keeps
        # its bookkeeping in pre-permutation labels
        return remap(sub, perm.mode_order, perm.num_modes)

    def permute(self, base_slot: int, perm: InterleavePermutation) -> None:
        """Apply an interleave-type mode permutation on a contiguous slot block."""
        if perm.sigma not in self.interleaves:
            self.interleaves[perm.sigma] = (self.interleave(perm),
                                            permutation_inversions(perm.sigma))
        sub, inversions = self.interleaves[perm.sigma]
        start = len(self.gates)
        self.emit_mapped(sub, base_slot)
        if not self.software:
            return
        self.blocks.append({
            "span": (start, len(self.gates)),
            "edges": tuple(sorted(
                tuple(sorted((self.pos[base_slot + i], self.pos[base_slot + j])))
                for (i, j) in inversions)),
        })
        # software relabel: the mode in slot base+q moves to slot base+sigma(q)
        old = [self.pos[base_slot + q] for q in range(perm.num_modes)]
        for q in range(perm.num_modes):
            self.pos[base_slot + perm.sigma[q]] = old[q]

    def fft(self, base_slot: int, size: int) -> None:
        radix = self.plan.radix
        if size == radix:
            self.emit_mapped(base_fft(radix), base_slot)
            return
        m = size // radix
        self.permute(base_slot, interleave_permutation(size, radix))
        for l in range(radix):
            self.fft(base_slot + l * m, m)
        # twiddle in the block layout: slot l*m + b carries phase e^{2i pi b l / size}
        for l in range(1, radix):
            for b in range(1, m):
                angle = -2 * math.pi * b * l / size
                self.gates.append(rz(angle, self.pos[base_slot + l * m + b]))
        # base transforms across strides = un-interleave, adjacent bases, interleave
        self.permute(base_slot, interleave_permutation(size, m))
        for q in range(m):
            self.emit_mapped(base_fft(radix), base_slot + q * radix)
        self.permute(base_slot, interleave_permutation(size, radix))


def compile_fft(plan: FFTPlan) -> Circuit:
    """Compile the FFFT for plan.num_modes = radix**k modes.

    Each distinct interleave permutation is built (and, graph-decimated,
    decimated) once per call and emitted per copy, with its own block record.
    """
    em = _Emitter(plan.num_modes, plan)
    em.fft(0, plan.num_modes)
    mode_order = [0] * plan.num_modes
    for slot, qubit in enumerate(em.pos):
        mode_order[qubit] = slot
    meta = {
        "convention": "physical" if not em.software else "software-swap",
        "mode_order": tuple(mode_order),
        "strategy": plan.interleave_strategy.value,
    }
    if em.blocks:
        meta["interleave_blocks"] = tuple(
            (b["span"][0], b["span"][1], b["edges"]) for b in em.blocks)
    return Circuit(plan.num_modes, tuple(em.gates), meta)


def fft_circuit(num_modes: int, radix: int,
                strategy: InterleaveStrategy = InterleaveStrategy.LOCAL_FSWAP,
                depth_penalty: float = 0.5) -> Circuit:
    return compile_fft(FFTPlan(num_modes, radix, strategy, depth_penalty))


def single_particle_transfer(circuit: Circuit) -> np.ndarray:
    """Transfer matrix of a compiled FFFT, software relabeling included.

    CX-carrying interleave blocks leave the single-excitation sector
    transiently, so each recorded block is first certified against its
    inversion CZ graph by the tableau oracle and then skipped (a CZ unitary
    is the identity on the sector); everything else goes through the sector
    simulator.  The pending software permutation is applied at the end.
    """
    n = circuit.num_qubits
    keep = list(circuit.gates)
    # the last block first, so the spans of the earlier ones stay valid
    for (start, end, edges) in reversed(circuit.meta.get("interleave_blocks", ())):
        if tableau_of(Circuit(n, keep[start:end])) != tableau_of_cz_edges(n, edges):
            raise ValueError("interleave block does not match its CZ graph")
        del keep[start:end]
    transfer = extract_mode_transform(Circuit(n, tuple(keep)))
    order = circuit.meta.get("mode_order")
    # column `mode` is the column of the qubit holding it
    return transfer if order is None else transfer[:, np.argsort(order)]


# --------------------------------------------------------------------------
# momentum-space ground state preparation
# --------------------------------------------------------------------------

def ground_state_momenta(num_modes: int, nu: float) -> tuple[int, ...]:
    """Momentum indices j with single-particle energy `band_energies`[j] < 0."""
    return tuple(int(j) for j in np.nonzero(band_energies(num_modes, nu) < 0)[0])


def ground_state_prep_circuit(num_modes: int, filled_momenta) -> Circuit:
    """X layer on the filled momentum-index qubits, then the inverse FFFT.

    Built with the physical (LocalFswap) interleave so the prep embeds into
    larger registers without pending relabelings.
    """
    fft = fft_circuit(num_modes, fft_radix(num_modes), InterleaveStrategy.LOCAL_FSWAP)
    gates = [x(int(j)) for j in sorted(filled_momenta)]
    gates.extend(invert(fft).gates)
    return Circuit(num_modes, tuple(gates), {"filled": tuple(sorted(filled_momenta))})
