"""Runtime selection at the systems layer.

``execute_distributed(raw, runtime=...)`` lets Voltage and tensor
parallelism run their unchanged worker closures on either the threaded
runtime or real OS processes over loopback sockets. The outputs must be
bit-identical across runtimes — the runtime is an execution substrate, not
a numerical choice.
"""

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.systems.tensor_parallel import TensorParallelSystem
from repro.systems.voltage import VoltageSystem


@pytest.fixture
def cluster2():
    return ClusterSpec.homogeneous(2, gflops=5.0, bandwidth_mbps=500)


@pytest.fixture
def raw(bert):
    return bert.encode_text("the runtime is not a numerical choice")


class TestVoltageRuntimeSelection:
    def test_process_matches_threaded(self, bert, cluster2, raw):
        system = VoltageSystem(bert, cluster2)
        t_out, _ = system.execute_distributed(raw, runtime="threaded")
        p_out, _ = system.execute_distributed(raw, runtime="process")
        np.testing.assert_array_equal(p_out, t_out)

    def test_default_runtime_is_threaded(self, bert, cluster2, raw):
        system = VoltageSystem(bert, cluster2)
        d_out, _ = system.execute_distributed(raw)
        t_out, _ = system.execute_distributed(raw, runtime="threaded")
        np.testing.assert_array_equal(d_out, t_out)

    def test_process_stats_count_real_socket_bytes(self, bert, cluster2, raw):
        system = VoltageSystem(bert, cluster2)
        _, t_stats = system.execute_distributed(raw, runtime="threaded")
        _, p_stats = system.execute_distributed(raw, runtime="process")
        t_sent = sum(s.bytes_sent for s in t_stats)
        p_sent = sum(s.bytes_sent for s in p_stats)
        assert isinstance(p_sent, int)
        # sockets add a per-frame envelope and real barrier traffic
        assert p_sent >= t_sent > 0

    @pytest.mark.parametrize("k, expected", [(2, 3792), (4, 12384)])
    def test_process_socket_bytes_are_exact(self, bert, raw, k, expected):
        """The bytes the ranks write to their sockets are fixed by the frame
        protocol and the collective schedule: an exact integer, equal run to
        run, so a one-byte drift is a wire-format or schedule change, not
        host noise.  Totals recorded at commit ad2b87d."""
        system = VoltageSystem(bert, ClusterSpec.homogeneous(k, gflops=5.0, bandwidth_mbps=500))
        totals = []
        for _ in range(2):
            _, stats = system.execute_distributed(raw, runtime="process")
            totals.append(sum(s.bytes_sent for s in stats))
        assert totals == [expected, expected]

    def test_unknown_runtime_rejected(self, bert, cluster2, raw):
        system = VoltageSystem(bert, cluster2)
        with pytest.raises(ValueError, match="unknown runtime"):
            system.execute_distributed(raw, runtime="carrier-pigeon")

    def test_process_with_overlap_matches(self, bert, cluster2, raw):
        system = VoltageSystem(bert, cluster2)
        t_out, _ = system.execute_distributed(raw, runtime="threaded")
        p_out, _ = system.execute_distributed(raw, runtime="process", overlap=True)
        np.testing.assert_array_equal(p_out, t_out)


class TestTensorParallelRuntimeSelection:
    def test_process_matches_threaded(self, bert, cluster2, raw):
        system = TensorParallelSystem(bert, cluster2)
        t_out, _ = system.execute_distributed(raw, runtime="threaded")
        p_out, _ = system.execute_distributed(raw, runtime="process")
        np.testing.assert_array_equal(p_out, t_out)

    def test_matches_single_device_reference(self, bert, cluster2, raw):
        system = TensorParallelSystem(bert, cluster2)
        reference = system.run(raw)
        p_out, _ = system.execute_distributed(raw, runtime="process")
        np.testing.assert_array_equal(p_out, reference.output)

    @pytest.mark.parametrize("family", ["bert", "gpt2"])
    def test_process_with_overlap_matches_run(self, request, family, cluster2):
        """Both epilogue shapes — post-LN BERT, pre-LN GPT-2 — applied slice
        by slice as reduced rows come off the socket ring equal the host
        emulation bit for bit (11 rows: an uneven reduce-scatter split)."""
        system = TensorParallelSystem(request.getfixturevalue(family), cluster2)
        raw = np.arange(1, 12)
        p_out, _ = system.execute_distributed(raw, runtime="process", overlap=True)
        np.testing.assert_array_equal(p_out, system.run(raw).output)
