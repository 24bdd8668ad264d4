#!/usr/bin/env python3
"""Poke each channel model and print what it does to a packet stream.

Feeds one packet per step into every model and tabulates deliveries,
drops, and delays, then shows a strongly non-timely channel's growing
delivery-free windows.
"""

import random

from mpo.channels import (
    ChannelState,
    DeliverProb,
    DropPattern,
    EventuallyTimely,
    FairLossy,
    Lossy,
    StronglyNonTimely,
    Timely,
    model_to_spec,
    schedule_delivery,
    suppression_windows,
)
from mpo.core import Alive, MessageId, Packet


def probe(model, sends=300, state=None):
    rng = random.Random(7)
    state = state or ChannelState()
    delays, drops = [], 0
    for i in range(sends):
        pkt = Packet(MessageId(0, i), Alive(0, 0, 0), 0, 1)
        due = schedule_delivery(model, pkt, send_step=i * 3, rng=rng, state=state)
        if due is None:
            drops += 1
        else:
            delays.append(due - i * 3)
    kept = len(delays)
    print(f"{model_to_spec(model):<54} delivered {kept:>4}/{sends}"
          + (f"  delay range [{min(delays)}, {max(delays)}]" if delays else ""))


def main():
    print("one packet every 3 steps, 300 packets per model\n")
    probe(Timely(4))
    probe(EventuallyTimely(4, unreliable_until=450))
    probe(FairLossy(DropPattern(2), 2, 6))  # delivers every 3rd packet
    probe(FairLossy(DeliverProb(0.5), 2, 6))
    snt = StronglyNonTimely(burst=8, window_cap=128, delay_min=1, delay_max=5)
    windows = suppression_windows(seed=1, src=0, dst=1, burst=8, cap=128,
                                  horizon=1200)
    probe(snt, state=ChannelState(windows=windows))
    probe(Lossy())

    print("\ndelivery-free windows on the strongly non-timely channel:")
    for lo, hi in windows:
        print(f"  [{lo:>5}, {hi:>5})  length {hi - lo}")
    print("arrivals that would land inside a window are pushed past its end,")
    print("so a receive timer waiting on this channel must keep growing")


if __name__ == "__main__":
    main()
