"""fermispec: fermionic Fourier transform compiler, CZ-graph optimizer, and
system-environment spectral-function protocol simulator."""

__version__ = "0.1.0"

from .circuits import (Circuit, Gate, GateKind, two_qubit_count,
                       two_qubit_depth, invert, parse_circuit, format_circuit)
from .czgraph import CZGraph, DecimationRule, DecimationStep, apply_rule, \
    decimate, verify_equivalence, graph_from_edges
from .fft import (FFTPlan, InterleavePermutation, InterleaveStrategy,
                  base_fft, compile_fft, fft_circuit, ground_state_prep_circuit,
                  interleave_circuit, interleave_cz_graph,
                  interleave_permutation, single_particle_transfer)
from .gaussian import (dft_matrix, evolve_gaussian, extract_mode_transform,
                       mode_propagator, momentum_occupations,
                       state_from_momentum_occupations)
from .tableau import CliffordTableau, NonCliffordGateError, tableau_of
from .protocol import (Kernel, ProtocolConfig, SpectralGrid,
                       broadening_and_ghosts, convolve_kernel,
                       dynamical_correlation_baseline, nk_exact_free,
                       nk_gaussian, run_circuit_protocol,
                       strong_coupling_leading)
