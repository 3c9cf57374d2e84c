"""encwatt: measure and model the energy demand of video-encoding runs.

The toolkit integrates background-subtracted power traces into net
encoding energies, repeats measurements under a Student-t stopping rule,
fits affine and QP-polynomial energy models under a relative-error
objective, cross-validates them, and estimates the energy of any preset
from a single ultrafast probe encode.
"""

__version__ = "0.1.0"
