"""Numerical membership tests for convolution-operator spectra.

The package answers one question in several guises: does a window's mass
lie in the spectrum of the associated convolution operator, as seen through
finite truncations. Residual certificates make the positive answer
rigorous for symmetric operators; the negative direction is only ever
hinted at through spectral gaps of the truncation.
"""

from .spectral import (CERT_TOL, DEFAULT_SEED, EIGEN_TOL, AmenabilityVerdict,
                       InputError, LinOp, MembershipCertificate, SpectralReport,
                       ValidationError, fingerprint,
                       in_spectrum, residual, spectral_radius, truncation_sweep)
from .fusion import (FREE_SU2, FusionRing, RingDescriptor, coamenability_test,
                     dim_bookkeeping_check, free_su2_ring, fusion_operator,
                     load_descriptor_file, load_ring, parse_descriptor,
                     validate_descriptor, window_operator)
from .walks import (BallTruncation, FreeGroup, ZLattice, build_ball,
                    cayley_operator, kesten_test, modular_weight_operator,
                    parse_group)
from .semidirect import (HalfLineGrid, PairLattice, bicrossed_amenability_test,
                         canonical_pair, conj_pair, half_line_grid,
                         interval_operator, interval_spectrum_test,
                         interval_witness, pair_lattice, pair_shift_operator,
                         pair_window_operator, shift_operator)

__version__ = "0.1.0"

__all__ = [
    "AmenabilityVerdict", "BallTruncation", "CERT_TOL", "DEFAULT_SEED",
    "EIGEN_TOL", "FREE_SU2", "FreeGroup", "FusionRing", "HalfLineGrid",
    "InputError", "LinOp", "MembershipCertificate", "PairLattice",
    "RingDescriptor", "SpectralReport", "ValidationError",
    "ZLattice", "bicrossed_amenability_test", "build_ball", "canonical_pair",
    "cayley_operator", "coamenability_test", "conj_pair",
    "dim_bookkeeping_check", "fingerprint", "free_su2_ring", "fusion_operator",
    "half_line_grid", "in_spectrum", "interval_operator",
    "interval_spectrum_test", "interval_witness", "kesten_test",
    "load_descriptor_file", "load_ring", "modular_weight_operator",
    "pair_lattice", "pair_shift_operator", "pair_window_operator",
    "parse_descriptor", "parse_group", "residual", "shift_operator",
    "spectral_radius", "truncation_sweep", "validate_descriptor",
    "window_operator",
]
