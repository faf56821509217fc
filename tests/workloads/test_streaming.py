"""The network-streamed playback workload: ABR wiring and the
Herglotz-style power behavior it was built to exhibit."""

import pytest

from repro.config import FHD
from repro.core import BurstLinkScheme
from repro.errors import ConfigurationError
from repro.pipeline import ConventionalScheme
from repro.power import PlatformExtras, PowerModel
from repro.workloads.streaming import (
    NetworkStreamWorkload,
    network_stream_run,
)


class TestWorkloadShape:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            NetworkStreamWorkload(frame_count=0)
        with pytest.raises(ConfigurationError):
            NetworkStreamWorkload(fps=0)
        with pytest.raises(ConfigurationError):
            NetworkStreamWorkload(bandwidth_mbps=0)

    def test_source_wires_the_abr_client(self):
        workload = NetworkStreamWorkload(
            bandwidth_mbps=4.0, fluctuation=0.1, chunk_frames=12, seed=7
        )
        source = workload.source()
        assert source.bandwidth_bps == 4.0e6
        assert source.fluctuation == 0.1
        assert source.chunk_frames == 12
        assert source.seed == 7
        assert len(source) == workload.frame_count
        assert source.resolution == FHD

    def test_constrained_session_rebuffers(self):
        workload = NetworkStreamWorkload(bandwidth_mbps=1.2)
        source = workload.source()
        assert source.rebuffer_events > 0
        assert source.stall_ratio > 0.0


class TestStreamedRuns:
    def _avg_power(self, scheme, with_drfb=False, **overrides):
        workload = NetworkStreamWorkload(**overrides)
        run = network_stream_run(workload, scheme, with_drfb=with_drfb)
        return PowerModel(
            extras=PlatformExtras(streaming=True)
        ).report(run).average_power_mw

    def test_run_covers_the_session(self):
        workload = NetworkStreamWorkload()
        run = network_stream_run(workload, ConventionalScheme())
        expected = workload.frame_count / workload.fps
        assert run.duration == pytest.approx(expected, rel=0.05)

    def test_burstlink_beats_conventional(self):
        base = self._avg_power(ConventionalScheme())
        burst = self._avg_power(BurstLinkScheme(), with_drfb=True)
        assert burst < base

    def test_power_moves_weakly_with_bandwidth(self):
        # Herglotz et al.: streaming power is display-dominated; a 4x
        # bandwidth cut moves end-to-end power by well under 5%.
        ample = self._avg_power(ConventionalScheme(), bandwidth_mbps=20.0)
        lean = self._avg_power(ConventionalScheme(), bandwidth_mbps=5.0)
        assert abs(ample - lean) / ample < 0.05
