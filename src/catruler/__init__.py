"""catruler: cat-state interferometry at the Heisenberg limit.

Simulates an interferometer whose light is a superposition of the vacuum
and a coherent state |alpha> ("cat state").  The idealized
Hadamard/phase/Hadamard circuit, a squeezed-vacuum benchmark, the exact
beamsplitter-plus-cat-measurement realization, and an independent
truncated-Fock-space oracle are all provided, together with a CLI for
fringe scans, width-scaling fits and signal-to-noise comparisons.

Names are imported from their modules, for example
`from catruler.physical_realization import fringe_scan`; importing the
package itself loads none of them.
"""

__version__ = "0.1.0"
