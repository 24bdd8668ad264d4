"""Multi-hop eventual leader election toolkit.

Four layers: a pure per-process protocol state machine (`core` +
`arborescence`), a deterministic adversarial network simulator
(`channels`, `scenario_io`, `netsim`, `trace`), trace auditors that turn
the protocol's correctness and efficiency claims into pass/fail checks
(`audit`), and random-graph Monte Carlo estimators contrasting
single-hop with multi-hop leader election (`montecarlo`).  A `Scenario`
and its text forms live in `scenario_io`, and every `Trace` holds one.
"""

from .arborescence import (
    Arborescence,
    TopologyError,
    brute_force_min_arborescence,
    min_arborescence,
    validate_arborescence,
)
from .audit import AuditReport, TraceSummary, audit_report, audit_timer_bound, summarize
from .channels import (
    ChannelState,
    DeliverProb,
    DropPattern,
    EventuallyTimely,
    FairLossy,
    Lossy,
    StronglyNonTimely,
    Timely,
    schedule_delivery,
)
from .core import (
    Alive,
    ConfigurationError,
    Failed,
    MessageId,
    MpoState,
    Packet,
    StartPhase,
    StopPhase,
    TimerConfig,
    advance_timers,
    init_state,
    on_receive,
    on_receiver_timeout,
    on_sender_timeout,
)
from .montecarlo import (
    Mode,
    bitimely_connectivity_bound,
    closed_form_single_hop,
    exhaustive_existence,
    mc_multi_hop,
    mc_single_hop,
    mc_stability,
    stability_sweep,
)
from .netsim import preset_dependable, run, run_reference
from .scenario_io import GeneralPropagation, Scenario, ScenarioError
from .trace import Trace, read_trace_file, write_trace_file

__version__ = "0.1.0"
