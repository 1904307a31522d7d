"""Print the sha256 pin of every grid build that ``tests/test_grids.py`` checks.

A pin digests the ambient dimension, every field of every subdomain and
interface in order (each array with its dtype, its shape, whether it is a
read-only zero-stride view, and its bytes) and the DOF partition. After a
deliberate change to a grid, re-record the table ``GRID_SHA256`` in
``tests/test_grids.py`` from the output and review the diff.
Run from the repository root: ``PYTHONPATH=src python tests/data/write_grid_pins.py``.
"""
import hashlib
import importlib.util
from dataclasses import fields
from pathlib import Path

import numpy as np

from mdsolve.grids import (BoundaryConfig, Segment, build_cross_2d, build_network_2d,
                           build_random_network_2d, build_regular_network_3d)

_spec = importlib.util.spec_from_file_location("write_systems", Path(__file__).with_name("write_systems.py"))
_systems = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_systems)

NETWORKS_2D = {
    "t_tips_n8": (8, _systems.T_AND_TIPS),
    "touching_n8": (8, [Segment(0, 4, 0, 4), Segment(0, 4, 4, 8), Segment(1, 2, 0, 8)]),
    "overlapping_n8": (8, [Segment(0, 4, 0, 5), Segment(0, 4, 3, 7), Segment(1, 6, 2, 6)]),
    "full_span_n6": (6, [Segment(1, 3, 0, 6)]),
    # two collinear pieces with a gap, and an L corner where two tips meet
    "gap_and_corner_n8": (8, [Segment(0, 4, 0, 3), Segment(0, 4, 5, 8), Segment(1, 5, 4, 7),
                              Segment(0, 2, 2, 5), Segment(1, 2, 0, 2)]),
}
RANDOM_2D = [(8, 4, 1), (8, 5, 42), (8, 10, 2), (16, 6, 3), (16, 20, 3), (16, 20, 0),
             (32, 10, 1), (32, 20, 5), (64, 20, 0), (64, 40, 7)]
REGULAR_3D = [(n, p) for n in (2, 4, 8, 12) for p in range(10) if p <= 3 or n % 4 == 0]
BOUNDARIES = {
    "cross_2d_n4_dirichlet_y": lambda: build_cross_2d(4, BoundaryConfig(1, 2.5, -1.0)),
    "cross_2d_n4_neumann": lambda: build_cross_2d(4, BoundaryConfig(None)),
    "regular_3d_n4_p3_dirichlet_z": lambda: build_regular_network_3d(4, 3, BoundaryConfig(2, 0.5, 3.0)),
}

CASES = {
    **{f"cross_2d_n{n}": (lambda n=n: build_cross_2d(n)) for n in (2, 4, 8, 16)},
    **{f"network_2d_{name}": (lambda n=n, segs=segs: build_network_2d(n, segs))
       for name, (n, segs) in NETWORKS_2D.items()},
    **{f"random_2d_n{n}_f{f}_s{s}": (lambda n=n, f=f, s=s: build_random_network_2d(n, f, seed=s))
       for n, f, s in RANDOM_2D},
    **{f"regular_3d_n{n}_p{p}": (lambda n=n, p=p: build_regular_network_3d(n, p))
       for n, p in REGULAR_3D},
    **BOUNDARIES,
}


def grid_sha256(grid) -> str:
    digest = hashlib.sha256(repr(grid.ambient_dim).encode())
    for obj in grid.subdomains + grid.interfaces:
        digest.update(type(obj).__name__.encode())
        for field in fields(obj):
            value = getattr(obj, field.name)
            if isinstance(value, np.ndarray):
                zero_stride = value.strides == (0,) and not value.flags.writeable
                digest.update(repr((field.name, value.dtype.str, value.shape, zero_stride)).encode())
                digest.update(value.tobytes())
            else:
                digest.update(repr((field.name, value)).encode())
    digest.update(repr(grid.dof_partition).encode())
    return digest.hexdigest()


if __name__ == "__main__":
    for name, build in CASES.items():
        print(f'    "{name}": "{grid_sha256(build())}",')
