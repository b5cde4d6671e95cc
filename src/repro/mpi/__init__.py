"""MPI-level interfaces: Mad-MPI and the baseline models."""

from repro.mpi.madmpi import ANY_SOURCE, ANY_TAG, MadMPI, MadMPIComm
from repro.mpi import collectives
from repro._lazy import lazy_exports

# the baseline models load on first use (see repro._lazy)
__getattr__, __dir__ = lazy_exports(__name__, {
    "baseline": (
        "BigLockMPI",
        "BigLockComm",
        "MVAPICHLike",
        "OpenMPILike",
        "IMPLEMENTATIONS",
    ),
})

__all__ = [
    "collectives",
    "ANY_SOURCE",
    "ANY_TAG",
    "MadMPI",
    "MadMPIComm",
    "BigLockMPI",
    "BigLockComm",
    "MVAPICHLike",
    "OpenMPILike",
    "IMPLEMENTATIONS",
]
