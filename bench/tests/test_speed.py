"""The speed ticker probes while active, keeps its probes out of the timed
clock, puts the signal handler back, and corrects an interval by the probes
around it."""

import signal
import time

import pytest

from speed import REFERENCE_MS, Ticker


def busy(seconds, clock):
    start = clock()
    while clock() - start < seconds:
        pass


def test_ticker_probes_and_restores_the_handler():
    before = signal.getsignal(signal.SIGVTALRM)
    with Ticker() as ticker:
        busy(0.2, ticker.now)
    assert signal.getsignal(signal.SIGVTALRM) is before
    assert signal.getitimer(signal.ITIMER_VIRTUAL) == (0.0, 0.0)
    assert len(ticker.probes_ms) >= 5  # one per TICK_SECONDS of CPU, plus both ends
    assert ticker.times == sorted(ticker.times)
    assert ticker.spent == pytest.approx(sum(ticker.probes_ms) / 1000.0, rel=0.5)


def test_probe_time_is_left_out_of_the_clock():
    with Ticker() as ticker:
        cpu, now, spent = time.thread_time(), ticker.now(), ticker.spent
        busy(0.2, ticker.now)
        cpu, now = time.thread_time() - cpu, ticker.now() - now
        spent = ticker.spent - spent
    assert spent > 0
    assert cpu - now == pytest.approx(spent, abs=1e-4)  # under one probe


def synthetic(times, probes_ms):
    ticker = Ticker()
    ticker.times, ticker.probes_ms = list(times), list(probes_ms)
    return ticker


def test_an_interval_is_scaled_by_the_probes_inside_and_beside_it():
    ticker = synthetic([0.0, 1.0, 2.0, 3.0, 4.0], [9.0, REFERENCE_MS, 3 * REFERENCE_MS, REFERENCE_MS, 9.0])
    # inside: probes at 2.0 and 3.0; beside: 1.0 and 4.0
    assert ticker.factor(1.5, 3.5) == pytest.approx(REFERENCE_MS / ((1 + 3 + 1) * REFERENCE_MS + 9.0) * 4)
    # no probe inside: the nearest on each side
    assert ticker.factor(1.2, 1.8) == pytest.approx(0.5)
    assert ticker.corrected([(1.2, 1.8)]) == pytest.approx([0.3])


def test_a_slower_machine_gives_the_same_corrected_time():
    slow = synthetic([0.0, 1.0], [2 * REFERENCE_MS, 2 * REFERENCE_MS])
    fast = synthetic([0.0, 1.0], [REFERENCE_MS, REFERENCE_MS])
    assert slow.corrected([(0.0, 0.8)]) == pytest.approx(fast.corrected([(0.0, 0.4)]))
