"""Write the byte-equality fixtures under tests/data/systems/.

The committed fixtures were written from commit 178a0f308cb27cde3ef4cc77ae0f72bba93ad627,
the last one with tuple-based grids and the face-loop ``assemble``.
Run from the repository root: ``PYTHONPATH=src python tests/data/write_systems.py``.
"""
from pathlib import Path

from mdsolve import PhysicalParams, assemble, export_system
from mdsolve.grids import (Segment, build_cross_2d, build_network_2d,
                           build_random_network_2d, build_regular_network_3d)

# a T-junction at (4, 4), a crossing at (6, 4) of a fracture with two
# immersed tips, and a free-standing fracture with two immersed tips
T_AND_TIPS = [Segment(0, 4, 0, 8), Segment(1, 4, 4, 8), Segment(1, 6, 1, 6), Segment(0, 2, 1, 5)]
EXTREME = dict(k_parallel=1e4, kappa=1e-4)
CASES = {
    "cross_2d_n8": (lambda: build_cross_2d(8), EXTREME),
    "random_2d_n16_f20_s3": (lambda: build_random_network_2d(16, 20, seed=3), EXTREME),
    "network_2d_t_tips_n8": (lambda: build_network_2d(8, T_AND_TIPS), EXTREME),
    "regular_3d_n4_p3": (lambda: build_regular_network_3d(4, 3), EXTREME),
    "regular_3d_n4_p3_aperture": (lambda: build_regular_network_3d(4, 3), dict(EXTREME, aperture=1e-2)),
    "regular_3d_n8_p9": (lambda: build_regular_network_3d(8, 9), EXTREME),
}

if __name__ == "__main__":
    for name, (build, params) in CASES.items():
        export_system(assemble(build(), PhysicalParams(**params)), Path(__file__).parent / "systems" / name)
