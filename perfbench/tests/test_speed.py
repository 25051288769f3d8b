"""Scaling an interval to the reference speed."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import speed  # noqa: E402


def test_scaled_takes_out_the_chunks_and_scales_to_reference():
    probe = speed.SpeedProbe()
    ref = speed.REFERENCE_S
    # the core runs at half the reference speed: every chunk takes 2 ref
    probe.starts = [0.0, 1.0, 2.0, 3.0]
    probe.durations = [2 * ref] * 4
    # two chunks fall inside [0.5, 2.5]
    assert probe.scaled(0.5, 2.5) == pytest.approx((2.0 - 4 * ref) / 2)
    # the core runs at reference speed, but the process is descheduled for
    # half of each chunk: CPU time scales by the chunks' CPU time
    probe.cpu_durations = [ref] * 4
    assert probe.scaled(0.5, 2.5, cpu=1.0) == pytest.approx(1.0 - 2 * ref)


def test_short_interval_uses_the_neighbouring_chunks():
    probe = speed.SpeedProbe()
    ref = speed.REFERENCE_S
    probe.starts = [0.0, 1.0]
    probe.durations = [ref, 3 * ref]
    assert probe.scaled(0.4, 0.6) == pytest.approx(0.2 / 2)


def test_probe_samples_while_running():
    probe = speed.SpeedProbe()
    probe.start()
    deadline = speed.perf_counter() + 0.1
    while speed.perf_counter() < deadline:
        pass
    probe.stop()
    assert len(probe.durations) >= 5
    assert probe.scaled(probe.starts[0], probe.starts[-1]) > 0
