#!/usr/bin/env python
"""Calibrate: random-search tuning of the cooperative policy's knobs.

The threshold protocol exposes two operational dials the paper leaves to
the deployment: how often sources receive feedback (``feedback_period``;
``None`` = the Sec 5 adaptive rule) and how refreshes are batched onto
the wire (``batch_size`` / ``batch_timeout``).  This example random-
searches that space -- ~50 seeded trials on one fixed workload -- and
ranks the settings by weighted divergence, breaking ties by messages
sent.

With ``--scenario`` the same search runs under a fault plan (see
``repro matrix faults``) and additionally tunes the robustness dials: the
reliable-delivery retransmit timeout/backoff/attempt budget and the
feedback staleness TTL.  The first trial is always the plain policy
under the same faults, so the table shows what the robustness machinery
buys.  Fault trials run on a sparse-update workload -- the regime where
loss actually hurts and the retry knobs have something to trade.

Every trial is a :class:`~repro.experiments.matrix.Scenario` -- an
independent seeded simulation run by
:func:`~repro.experiments.matrix.run_scenario` -- so the search is
embarrassingly parallel: trials fan out over a
:class:`~repro.experiments.parallel.ParallelRunner` process pool and the
ranking is bit-identical at any worker count.

Run:  python examples/calibrate.py [--trials 50] [--workers N]
      python examples/calibrate.py --scenario lossy-10
      python examples/calibrate.py --num-caches 4 --delivery multicast
"""

import argparse

import numpy as np

from repro.experiments.matrix import Scenario, run_scenario
from repro.experiments.parallel import (
    ParallelRunner,
    WorkloadSpec,
    default_workers,
)
from repro.faults.plan import FAULT_SCENARIOS, fault_scenario
from repro.faults.retry import RetryPolicy
from repro.metrics import format_table
from repro.network import DELIVERY_MODES, TopologyConfig
from repro.workloads import uniform_random_walk

#: Per-object update-rate cap for fault-scenario trials (sparse regime).
FAULT_RATE_CAP = 0.1


def sample_trials(num_trials: int, seed: int,
                  scenario: str = "none",
                  num_caches: int = 1,
                  replication: int = 2,
                  delivery: str = "unicast") -> list[Scenario]:
    """Seeded random search: log-uniform periods, small integer batches.

    Under a fault scenario the robustness dials join the search space;
    the clean-network search leaves them at their inert defaults so the
    two spaces stay comparable trial for trial.  Every trial runs the
    cooperative policy on the same workload, layout and fault plan.
    """
    warmup, measure = 100.0, 400.0
    kwargs = dict(num_sources=10, objects_per_source=10,
                  horizon=warmup + measure)
    if scenario != "none":
        kwargs["rate_range"] = (0.0, FAULT_RATE_CAP)
    workload = WorkloadSpec.make(uniform_random_walk, seed, **kwargs)
    plan = fault_scenario(scenario, warmup, measure, seed=seed)
    topology = None  # the paper's star
    if num_caches > 1:
        topology = TopologyConfig(kind="replicated", num_caches=num_caches,
                                  replication=replication,
                                  delivery=delivery)
    rng = np.random.default_rng(seed)
    trials = []
    for i in range(num_trials):
        # Reserve the first trial for the adaptive-period, no-batching,
        # no-retry baseline so the table always shows what tuning buys.
        if i == 0:
            period, size, timeout = None, 1, 5.0
        else:
            period = float(10.0 ** rng.uniform(np.log10(2.0),
                                               np.log10(200.0)))
            size = int(rng.integers(1, 9))
            timeout = float(rng.uniform(0.5, 10.0))
        retry, ttl = None, None
        if scenario != "none" and i > 0:
            retry_timeout = float(10.0 ** rng.uniform(0.0, np.log10(20.0)))
            retry_backoff = float(rng.uniform(1.0, 3.0))
            retry = RetryPolicy(timeout=retry_timeout, backoff=retry_backoff,
                                max_attempts=int(rng.integers(2, 7)))
            ttl = float(10.0 ** rng.uniform(np.log10(5.0),
                                            np.log10(200.0)))
        trials.append(Scenario(
            workload=workload, policy="cooperative", cache_bandwidth=20.0,
            source_bandwidth=6.0, warmup=warmup, measure=measure, seed=seed,
            policy_kwargs=(("feedback_period", period), ("batch_size", size),
                           ("batch_timeout", timeout),
                           ("feedback_ttl", ttl)),
            topology=topology, faults=None if plan.is_empty() else plan,
            retry=retry))
    return trials


def _period(knobs: dict) -> str:
    period = knobs["feedback_period"]
    return "adaptive" if period is None else f"{period:.1f}"


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument("--workers", type=int, default=default_workers())
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scenario", choices=list(FAULT_SCENARIOS),
                        default="none",
                        help="fault plan to run every trial under; also "
                             "tunes retry/backoff/TTL knobs")
    parser.add_argument("--num-caches", type=int, default=1,
                        help="cache nodes (> 1 runs every trial on a "
                             "replicated layout instead of the star)")
    parser.add_argument("--replication", type=int, default=2,
                        help="replica copies per source when "
                             "--num-caches > 1")
    parser.add_argument("--delivery", choices=list(DELIVERY_MODES),
                        default="unicast",
                        help="fan-out plane for replicated refreshes "
                             "(multicast pays cache-side bandwidth once "
                             "per logical refresh)")
    parser.add_argument("--top", type=int, default=10,
                        help="rows to show in the ranking table")
    args = parser.parse_args(argv)

    trials = sample_trials(args.trials, args.seed, scenario=args.scenario,
                           num_caches=args.num_caches,
                           replication=args.replication,
                           delivery=args.delivery)
    records = ParallelRunner(args.workers).map(run_scenario, trials)
    # Rank by divergence, then messages: prefer the cheaper of two
    # equally-fresh settings.  Index breaks exact ties deterministically.
    order = sorted(range(len(records)),
                   key=lambda i: (records[i]["divergence"],
                                  records[i]["messages"], i))

    fault_run = args.scenario != "none"
    headers = ["rank", "feedback s", "batch", "timeout s"]
    if fault_run:
        headers += ["retry s", "tries", "ttl s"]
    headers += ["divergence", "messages"]
    rows = []
    for rank, i in enumerate(order[:args.top], start=1):
        knobs, retry = dict(trials[i].policy_kwargs), trials[i].retry
        row = [rank, _period(knobs), knobs["batch_size"],
               f"{knobs['batch_timeout']:.1f}"]
        if fault_run:
            row += ["off" if retry is None else f"{retry.timeout:.1f}",
                    "-" if retry is None else retry.max_attempts,
                    "off" if knobs["feedback_ttl"] is None
                    else f"{knobs['feedback_ttl']:.0f}"]
        row += [f"{records[i]['divergence']:.5f}", records[i]["messages"]]
        rows.append(row)
    title = (f"Random-search calibration: {args.trials} trials, "
             f"{args.workers} workers")
    if fault_run:
        title += f", scenario {args.scenario}"
    if args.num_caches > 1:
        title += (f", {args.num_caches} caches x r={args.replication} "
                  f"({args.delivery})")
    print(format_table(headers, rows, title=title))
    best = trials[order[0]]
    knobs, retry = dict(best.policy_kwargs), best.retry
    line = (f"\nbest: feedback_period={_period(knobs)} "
            f"batch_size={knobs['batch_size']} "
            f"batch_timeout={knobs['batch_timeout']:.1f}")
    if fault_run:
        line += (" retry=off" if retry is None else
                 f" retry_timeout={retry.timeout:.1f} "
                 f"retry_backoff={retry.backoff:.1f} "
                 f"retry_attempts={retry.max_attempts}")
        line += ("" if knobs["feedback_ttl"] is None
                 else f" feedback_ttl={knobs['feedback_ttl']:.0f}")
    print(line)


if __name__ == "__main__":
    main()
