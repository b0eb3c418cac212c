"""Single entry point to the counting kernels in eicount._kernels_py.

The oracles call every kernel through :func:`run_kernel`, so wrapping that
one function (as the benchmark's tracer does) observes every kernel call.
"""

from . import _kernels_py

BACKEND = "python"


def run_kernel(name, *args):
    """Call the kernel ``name`` of eicount._kernels_py."""
    return getattr(_kernels_py, name)(*args)
