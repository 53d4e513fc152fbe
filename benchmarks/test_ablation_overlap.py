"""Ablation — compute/communication overlap on the inner All-Gathers.

The paper runs Algorithm 2 with fully exposed synchronisation barriers;
this ablation quantifies how much of that comm cost can be hidden by
streaming ring chunks straight into the next layer's position-wise compute
(the ``overlap=True`` mode), across the bandwidth sweep of Fig. 5.
"""

import numpy as np
import pytest

from repro.bench import figures
from repro.cluster.spec import ClusterSpec
from repro.models import BertModel, tiny_config
from repro.systems import VoltageSystem


@pytest.mark.figure
def test_regenerate_overlap_ablation(benchmark):
    fig = benchmark.pedantic(figures.ablation_overlap, rounds=1, iterations=1)
    print()
    print(fig.format_table(precision=3))
    blocking = fig.series_by_label("blocking all-gather")
    overlapped = fig.series_by_label("overlapped all-gather")
    hidden = fig.series_by_label("hidden comm (s)")
    for bandwidth in blocking.xs:
        # never worse, and strictly better wherever any comm got hidden
        assert overlapped.y_at(bandwidth) <= blocking.y_at(bandwidth)
        if hidden.y_at(bandwidth) > 0:
            assert overlapped.y_at(bandwidth) < blocking.y_at(bandwidth)


@pytest.mark.figure
def test_overlapped_threaded_execution_is_bit_identical(benchmark):
    """The wall-clock counterpart: a real threaded run in both modes on the
    same deployment, asserted bit-identical before any timing."""
    model = BertModel(
        tiny_config(num_layers=4, num_heads=4, hidden_size=64, ffn_dim=256),
        num_classes=2,
        rng=np.random.default_rng(0),
    )
    system = VoltageSystem(model, ClusterSpec.homogeneous(4), overlap=True)
    ids = model.encode_text("the quick brown fox jumps over the lazy dog " * 6)

    blocking, _ = system.execute_distributed(ids, overlap=False)
    overlapped = benchmark.pedantic(
        lambda: system.execute_distributed(ids, overlap=True)[0], rounds=3, iterations=1
    )
    np.testing.assert_array_equal(overlapped, blocking)
