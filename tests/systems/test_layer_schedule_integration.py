"""Tests for per-layer schedules flowing through VoltageSystem."""

import numpy as np
import pytest

from repro.core.partition import PartitionScheme
from repro.core.schedule import LayerSchedule
from repro.systems import VoltageSystem


class TestLayerScheduleInVoltage:
    def test_per_layer_schemes_still_exact(self, bert, cluster4, token_ids):
        """Different partition boundaries at every layer (Fig. 3 shows
        exactly this) — output unchanged."""
        schedule = LayerSchedule([
            PartitionScheme.even(4),
            PartitionScheme([0.5, 0.3, 0.1, 0.1]),
            PartitionScheme([0.1, 0.1, 0.3, 0.5]),
        ])
        result = VoltageSystem(bert, cluster4, scheme=schedule).run(token_ids)
        np.testing.assert_allclose(result.output, bert(token_ids), atol=1e-4)

    def test_schedule_repeats_last_scheme_for_deeper_models(self, bert, cluster4, token_ids):
        schedule = LayerSchedule([PartitionScheme([0.7, 0.1, 0.1, 0.1])])  # 1 < num_layers
        result = VoltageSystem(bert, cluster4, scheme=schedule).run(token_ids)
        np.testing.assert_allclose(result.output, bert(token_ids), atol=1e-4)

    def test_threaded_execution_with_schedule(self, bert, cluster4, token_ids):
        schedule = LayerSchedule([
            PartitionScheme.even(4),
            PartitionScheme([0.4, 0.4, 0.1, 0.1]),
        ])
        system = VoltageSystem(bert, cluster4, scheme=schedule)
        emulated = system.run(token_ids)
        threaded, _ = system.execute_distributed(token_ids)
        np.testing.assert_allclose(threaded, emulated.output, atol=1e-5)

    def test_schedule_device_count_validated(self, bert, cluster4):
        with pytest.raises(ValueError, match="devices"):
            VoltageSystem(bert, cluster4, scheme=LayerSchedule(PartitionScheme.even(3)))

    def test_scheme_for_resolves_per_layer(self, bert, cluster4):
        schedule = LayerSchedule([
            PartitionScheme.even(4),
            PartitionScheme([0.25, 0.25, 0.4, 0.1]),
        ])
        system = VoltageSystem(bert, cluster4, scheme=schedule)
        assert system.scheme_for(100, layer=0) == PartitionScheme.even(4)
        assert system.scheme_for(100, layer=1) == PartitionScheme([0.25, 0.25, 0.4, 0.1])
        assert system.scheme_for(100, layer=9) == system.scheme_for(100, layer=1)

    def test_zero_share_layers_tolerated(self, bert, cluster4, token_ids):
        """A device can sit a layer out entirely (ratio 0) and rejoin later."""
        schedule = LayerSchedule([
            PartitionScheme([0.0, 0.4, 0.3, 0.3]),
            PartitionScheme([0.4, 0.0, 0.3, 0.3]),
        ])
        result = VoltageSystem(bert, cluster4, scheme=schedule).run(token_ids)
        np.testing.assert_allclose(result.output, bert(token_ids), atol=1e-4)
