"""Interlacing Markov kernels, Laguerre/Pickrell particle diffusions, and a
statistical harness certifying their intertwining and invariance identities."""

from .chamber import (BoundaryPoint, Partition, embed_boundary, gamma_bar,
                      interlace_eq, interlace_plus, vandermonde)
from .diffusion import PickrellParams, Scheme, SdeConfig, boundary_flow
from .kernels import KernelParams

__version__ = "0.1.0"

__all__ = [
    "BoundaryPoint",
    "Partition",
    "vandermonde",
    "interlace_plus",
    "interlace_eq",
    "embed_boundary",
    "gamma_bar",
    "KernelParams",
    "PickrellParams",
    "Scheme",
    "SdeConfig",
    "boundary_flow",
    "__version__",
]
