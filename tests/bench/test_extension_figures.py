"""Shape assertions for the extension figures (beyond the paper's set)."""

import pytest

from repro.bench import figures


class TestDynamicSchemeAblation:
    @pytest.fixture(scope="class")
    def fig(self):
        return figures.ablation_dynamic_schemes(
            slowdowns=(1.0, 3.0, 6.0), num_layers=6, n=48
        )

    def test_three_modes(self, fig):
        assert {s.label for s in fig.series} == {"static", "dynamic", "oracle"}

    def test_ordering_oracle_dynamic_static(self, fig):
        for slowdown in (3.0, 6.0):
            oracle = fig.series_by_label("oracle").y_at(slowdown)
            dynamic = fig.series_by_label("dynamic").y_at(slowdown)
            static = fig.series_by_label("static").y_at(slowdown)
            assert oracle <= dynamic * (1 + 1e-9) <= static * (1 + 1e-9)
            assert dynamic < static

    def test_no_straggler_no_difference(self, fig):
        values = [s.y_at(1.0) for s in fig.series]
        assert max(values) == pytest.approx(min(values), rel=1e-6)


class TestDecodeAttentionAblation:
    @pytest.fixture(scope="class")
    def fig(self):
        return figures.ablation_decode_attention(
            context_lengths=(64, 128, 256, 512), num_devices=4
        )

    def test_four_series(self, fig):
        assert {s.label for s in fig.series} == {
            "gathered wire bytes/step",
            "distributed wire bytes/step",
            "gathered score+context FLOPs/rank/step",
            "distributed score+context FLOPs/rank/step",
        }

    def test_distributed_wire_flat_in_context(self, fig):
        assert len(set(fig.series_by_label("distributed wire bytes/step").ys)) == 1

    def test_gathered_wire_linear_in_context(self, fig):
        gathered = fig.series_by_label("gathered wire bytes/step")
        assert gathered.y_at(512) == pytest.approx(8 * gathered.y_at(64), rel=1e-9)

    def test_distributed_flops_are_one_over_k(self, fig):
        gathered = fig.series_by_label("gathered score+context FLOPs/rank/step")
        distributed = fig.series_by_label("distributed score+context FLOPs/rank/step")
        for t in (64, 128, 256, 512):
            assert distributed.y_at(t) == pytest.approx(gathered.y_at(t) / 4, rel=1e-9)

    def test_crossover_annotated(self, fig):
        assert any("crossover" in note for note in fig.notes)


class TestMemoryTradeoffTable:
    @pytest.fixture(scope="class")
    def fig(self):
        return figures.memory_tradeoff_table()

    def test_voltage_memory_flat_in_k(self, fig):
        voltage = fig.series_by_label("Voltage BERT-Large")
        assert voltage.y_at(8) > voltage.y_at(1) * 0.95

    def test_tp_memory_shrinks(self, fig):
        tensor = fig.series_by_label("TP BERT-Large")
        assert tensor.y_at(8) < tensor.y_at(1) / 5

    def test_equal_at_k1(self, fig):
        for label in ("BERT-Large", "ViT-B/16", "GPT-2"):
            voltage = fig.series_by_label(f"Voltage {label}").y_at(1)
            tensor = fig.series_by_label(f"TP {label}").y_at(1)
            assert voltage == pytest.approx(tensor, rel=0.01)
