"""catruler: cat-state interferometry at the Heisenberg limit.

Simulates an interferometer whose light is a superposition of the vacuum
and a coherent state |alpha> ("cat state").  The idealized
Hadamard/phase/Hadamard circuit, a squeezed-vacuum benchmark, the exact
beamsplitter-plus-cat-measurement realization, and an independent
truncated-Fock-space oracle are all provided, together with a CLI for
fringe scans, width-scaling fits and signal-to-noise comparisons.
"""

from .coherent_algebra import (
    CoherentSuperposition,
    beamsplitter,
    norm_squared,
    overlap,
    quadrature_wavefunction,
    threshold_probability,
)
from .errors import (
    ApproximationRegimeWarning,
    CatRulerError,
    IntegrationError,
    NormalizationError,
    TruncationError,
    WidthUndefinedError,
)
from .fock_oracle import (
    FockVector,
    TwoModeFockTensor,
    beamsplitter_fock,
    coherent_to_fock,
    end_to_end_oracle,
    parity_distribution,
    quadrature_cdf_fock,
)
from .ideal_circuit import (
    LogicalQubit,
    PropagationSetting,
    hadamard,
    ideal_output,
    phase_gate_error,
    prepare_plus_cat,
    propagate_exact,
    snr_ideal,
)
from .physical_realization import (
    ConditionalOutput,
    FringeCurve,
    RealizationParams,
    cat_coefficients,
    central_fringe_width,
    fringe_scan,
    fringe_spacing_physical,
    measurement_probabilities,
    output_state,
)
from .squeezed_baseline import (
    SqueezedBaselineParams,
    equal_power_params,
    homodyne_samples,
    snr_squeezed,
)

__version__ = "0.1.0"
