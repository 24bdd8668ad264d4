"""Hypothesis strategies shared by the test modules."""

import string

from hypothesis import strategies as st

from mpo.channels import (
    DeliverProb,
    DropPattern,
    EventuallyTimely,
    FairLossy,
    Lossy,
    StronglyNonTimely,
    Timely,
)
from mpo.core import TimerConfig
from mpo.netsim import GeneralPropagation, Scenario

_ALNUM = string.ascii_letters + string.digits


@st.composite
def small_scenarios(draw, max_horizon: int = 10_000):
    """Valid scenarios at n <= 5 with horizon <= `max_horizon`: mixed channel
    models, per-origin overrides, optional adjacency, crashes, propagation and
    labels."""
    n = draw(st.integers(2, 5))
    horizon = draw(st.integers(1, max_horizon))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1]
    )
    delays = st.integers(1, 20).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo, 40)))
    policies = st.one_of(
        st.builds(DropPattern, st.integers(0, 4)),
        st.builds(DeliverProb, st.floats(0, 1, exclude_min=True) | st.just(1)),
    )
    bursts = st.integers(1, 16).flatmap(lambda b: st.tuples(st.just(b), st.integers(b, 300)))
    models = st.one_of(
        st.builds(Timely, st.integers(1, 9)),
        st.builds(EventuallyTimely, st.integers(1, 9), st.integers(0, 500)),
        st.builds(lambda pol, d: FairLossy(pol, *d), policies, delays),
        st.builds(lambda b, d, quiet: StronglyNonTimely(*b, *d, quiet),
                  bursts, delays, st.integers(0, 1000)),
        st.just(Lossy()),
    )
    chanmaps = st.dictionaries(pairs, models, max_size=4)
    probabilities = st.floats(0, 1) | st.sampled_from([0, 1])  # ints too
    return Scenario(
        n=n,
        horizon=horizon,
        seed=draw(st.integers(0, 2**31)),
        timers=draw(st.builds(TimerConfig, st.integers(1, 99), st.integers(1, 99),
                              st.integers(1, 5))),
        default_channel=draw(models),
        channels=draw(chanmaps),
        origin_channels=draw(st.dictionaries(st.integers(0, n - 1), chanmaps, max_size=2)),
        adjacency=draw(st.none() | st.lists(
            st.frozensets(st.integers(0, n - 1)), min_size=n, max_size=n).map(tuple)),
        crash_schedule=draw(st.dictionaries(
            st.integers(0, n - 1), st.integers(1, horizon), max_size=n - 1)),
        propagation=draw(st.none() | st.builds(
            GeneralPropagation, probabilities, probabilities, st.integers(1, 9))),
        labels=draw(st.dictionaries(
            st.text(_ALNUM, min_size=1, max_size=6), st.text(_ALNUM, max_size=6),
            max_size=3)),
    )
