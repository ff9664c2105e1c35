"""Near-linear growth of construct -> save -> load -> verify -> double ->
save -> load -> verify in |E|."""

from __future__ import annotations

import math
import time

import pytest

import onedisk as od


def _pipeline_seconds(x: int, path) -> tuple[float, int]:
    t0 = time.perf_counter()
    g, d = od.construct_extremal(x, 3 * (x - 2))
    od.save_drawing(d, path)
    loaded = od.load_drawing(path)
    assert od.verification_failure(loaded) is None
    od.save_drawing(od.double(loaded).drawing_star, path)
    assert od.verification_failure(od.load_drawing(path)) is None
    return time.perf_counter() - t0, len(g.edges)


@pytest.mark.slow
def test_pipeline_slope_in_edges(tmp_path):
    sizes = (100, 800)
    best = {x: math.inf for x in sizes}
    edges = {}
    # Interleave the sizes so a slow stretch of the machine hits both.
    for _ in range(3):
        for x in sizes:
            seconds, edges[x] = _pipeline_seconds(x, tmp_path / f"d{x}.json")
            best[x] = min(best[x], seconds)
    small, large = sizes
    slope = math.log(best[large] / best[small]) / math.log(edges[large] / edges[small])
    assert slope <= 1.5, (best, edges, slope)
