"""Meta-corrected similarity training for noisy cross-modal retrieval.

The package trains two-branch embedding networks with an adaptive-margin
triplet loss whose per-pair scores come from a small correction network.
That correction network is itself trained by differentiating through a
virtual update of the main networks (bi-level optimization), and a Beta
mixture over its scores purifies noisy correspondences each epoch, with
two network pairs cross-feeding each other's purified sets.

Importing the package sets OPENBLAS_NUM_THREADS to 1 unless it is already
set: evaluation fans its blocks out over its own worker processes, and a
multi-threaded BLAS under each of them oversubscribes the cores.  The
setting only takes effect if numpy has not been imported yet.  The
package root imports no submodule: callers import the ones they use
(`from mscn import model`, `mscn.cli`).
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
