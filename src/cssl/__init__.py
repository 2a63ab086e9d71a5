"""Continual self-supervised learning with pseudo-negative regularization.

Desk-scale framework: small MLP stacks over synthetic vector data, exact
analytic gradients for contrastive and non-contrastive objectives with
pseudo-negative terms, class/data/domain-incremental task streams, linear
probing, and stability/plasticity metrics. Everything is deterministic under
a single root seed. Importing the package loads none of its submodules;
import the ones you use (``from cssl import continual``).
"""

import ctypes
import platform

# Fixed glibc heap thresholds. Under the dynamic ones, whether freeing a MoCo
# step's 2.4 MB logits trims the heap (so the next step faults its pages back
# in) depends on the layout earlier allocations left, which swung MoCo's
# training time by about 30% between unrelated code versions. Only where
# blocks live changes, not any result.
if platform.libc_ver()[0] == "glibc":
    _libc = ctypes.CDLL(None)
    _libc.mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD
    _libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD

__version__ = "0.1.0"
