from __future__ import annotations

import gc
import os
import sys
import tracemalloc
from pathlib import Path

# One BLAS thread, set before numpy loads BLAS: on a small shared host a
# threaded call as small as temporal._conv2d_same's product can take 100x
# longer than on one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from evkit.event_core import EventStream, SensorGeometry


def make_stream(
    rng: np.random.Generator,
    n: int,
    geometry: SensorGeometry,
    t_max: int,
    t_min: int = 0,
) -> EventStream:
    """Sorted uniform-random events over [t_min, t_max)."""
    t = np.sort(rng.integers(t_min, max(t_max, t_min + 1), n))
    return EventStream(
        geometry,
        t,
        rng.integers(0, geometry.width, n).astype(np.uint16),
        rng.integers(0, geometry.height, n).astype(np.uint16),
        rng.integers(0, 2, n).astype(np.uint8),
    )


def traced_peak(fn, *args) -> int:
    """The tracemalloc peak, in bytes, of calling fn(*args).

    The cyclic collector is held off during the call, so the peak does not
    depend on where an automatic collection happens to fall: reference cycles
    the call leaves behind (a CLI command leaves about 50 KB, mostly its
    argparse parser) count until it returns, never more or less by chance.
    """
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240917)


@pytest.fixture
def small_geometry() -> SensorGeometry:
    return SensorGeometry(32, 24)
