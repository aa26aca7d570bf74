#!/usr/bin/env python
"""Sensor fleet over a satellite uplink (the paper's buoy scenario).

40 ocean buoys measure two-component wind vectors every 10 minutes and
share one satellite link to a monitoring cache.  The link carries a
handful of messages per minute -- far too little to ship every reading --
so the buoys run the cooperative threshold protocol with the value
deviation metric and refresh only the readings that drifted most.

The script sweeps the link budget and reports how quickly accuracy
improves with bandwidth, plus how closely the protocol tracks the
theoretical optimum.

Run:  python examples/sensor_fleet.py
"""

from repro.experiments import MATRICES, run_matrix
from repro.metrics import format_table


def main() -> None:
    print("Simulating 40 buoys x 2 wind components, 3 days of 10-minute "
          "readings...")
    fig5 = MATRICES["fig5"]
    points = run_matrix(fig5, fig5.parse(["bandwidths=1,4,16,64", "days=3",
                                          "warmup-days=0.5", "seed=7"]))

    rows = []
    for p in points:
        ideal, ours = p["ideal"]["unweighted"], p["ours"]["unweighted"]
        rows.append([f"{p['bandwidths']:g} msgs/min", ideal, ours,
                     ours - ideal])
    print(format_table(
        ["satellite link budget", "ideal scenario", "threshold protocol",
         "gap"],
        rows,
        title="Average wind-speed error at the cache (same units as the "
              "data, ~0-10)"))
    print()
    print("Reading the table: even at 1 message/minute for 80 values the "
          "protocol keeps the\ncache within ~1 unit of the truth by "
          "spending refreshes on the buoys whose wind\nactually changed, "
          "and it stays close to the omniscient ideal at every budget.")


if __name__ == "__main__":
    main()
