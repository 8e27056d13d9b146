"""Property test for the deterministic ACT sampler.

Hypothesis generates scalar event streams (ACTs with optional
``row_conflict``/``throttle_stall`` satellites, bit flips and
interrupts) and checks what ``repro trace --sample-every-n`` relies on:
the same ``every``/``seed`` keeps the same events, ACT number ``k`` is
kept iff ``k % every == seed % every``, a kept ACT keeps its
satellites, and every other kind passes through unsampled.
"""

from hypothesis import given, settings, strategies as st

from repro.obs import SamplingSink
from repro.obs.events import (
    ACT,
    ACT_INTERRUPT,
    BIT_FLIP,
    ROW_CONFLICT,
    THROTTLE_STALL,
    TraceEvent,
)


@st.composite
def event_streams(draw):
    events = []
    time_ns = draw(st.integers(min_value=0, max_value=10**9))
    for act in range(draw(st.integers(min_value=0, max_value=40))):
        time_ns += draw(st.integers(min_value=1, max_value=200))
        events.append(TraceEvent(ACT, time_ns, {"row": act % 16}))
        if draw(st.booleans()):
            events.append(TraceEvent(ROW_CONFLICT, time_ns, {"row": act}))
        if draw(st.booleans()):
            events.append(TraceEvent(THROTTLE_STALL, time_ns, {"stall_ns": 5}))
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            events.append(TraceEvent(BIT_FLIP, time_ns + 1, {"bits": 1}))
        if draw(st.integers(min_value=0, max_value=9)) == 0:
            events.append(TraceEvent(ACT_INTERRUPT, time_ns, {"channel": 0}))
    return events


class _Collector:
    def __init__(self):
        self.events = []

    def write(self, event):
        self.events.append(event)

    def close(self):
        pass


def _sample(events, every, seed):
    sink = SamplingSink(_Collector(), every, seed=seed)
    for event in events:
        sink.write(event)
    return sink


@settings(deadline=None, max_examples=80)
@given(
    event_streams(),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=7),
)
def test_sampling_sink_is_deterministic(events, every, seed):
    sink = _sample(events, every, seed)
    again = _sample(events, every, seed)
    assert again.inner.events == sink.inner.events

    phase = seed % every
    expected = []
    act_index = -1
    for event in events:
        if event.kind == ACT:
            act_index += 1
        if event.kind in (ACT, ROW_CONFLICT, THROTTLE_STALL):
            if act_index % every == phase:
                expected.append(event)
        else:
            expected.append(event)
    assert sink.inner.events == expected
    assert sink.acts_seen == act_index + 1
    assert sink.acts_kept == sum(1 for e in expected if e.kind == ACT)
    # The sampler never drops ground truth.
    assert [e for e in sink.inner.events if e.kind == BIT_FLIP] == [
        e for e in events if e.kind == BIT_FLIP
    ]
