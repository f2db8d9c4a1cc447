"""Transit planning: surface taxi corridors that public transport misses.

The paper's second motivating application: "common travel patterns
shared by a large number of taxi commuters imply traffic congestion or
certain shortages in public transport", guiding bus/metro expansion.

This example mines fine-grained patterns, groups them by time-of-week
bucket, and ranks the origin-destination corridors by coverage and
length — a corridor with heavy, long, recurring taxi demand is a
candidate for a new transit line.

Run:  python examples/transit_planning.py
"""

import math

from repro import (
    CityModel,
    CSDConfig,
    MiningConfig,
    POIGenerator,
    PervasiveMiner,
    ShanghaiTaxiSimulator,
)
from repro.core.patterns import pattern_time_bucket, route_label


def _scaled(value: int) -> int:
    """Shrink workload sizes when REPRO_QUICK is set (CI smoke runs)."""
    import os

    if os.environ.get("REPRO_QUICK"):
        return max(value // 5, 10)
    return value


def main() -> None:
    city = CityModel.generate(extent_m=5_000.0, seed=17)
    pois = POIGenerator(city, seed=19).generate(_scaled(8_000))
    taxi = ShanghaiTaxiSimulator(city, seed=29).simulate(
        n_passengers=_scaled(200), days=7
    )
    miner = PervasiveMiner(
        CSDConfig(alpha=0.7), MiningConfig(support=12, rho=0.001)
    )
    result = miner.mine(pois, taxi.mining_trajectories())
    proj = result.csd.projection

    corridors = []
    for pattern in result.patterns:
        if len(pattern) < 2:
            continue
        a = pattern.representatives[0]
        b = pattern.representatives[-1]
        ax, ay = proj.to_meters(a.lon, a.lat)
        bx, by = proj.to_meters(b.lon, b.lat)
        length_km = math.hypot(bx - ax, by - ay) / 1000.0
        corridors.append(
            {
                "route": route_label(pattern),
                "support": pattern.support,
                "length_km": length_km,
                "bucket": pattern_time_bucket(pattern),
                # Demand-km: riders times distance, the planner's score.
                "score": pattern.support * length_km,
            }
        )

    corridors.sort(key=lambda c: -c["score"])
    print(f"{result.n_patterns} patterns -> {len(corridors)} corridors\n")
    print(f"{'corridor':55s} {'riders':>6s} {'km':>5s} {'demand-km':>9s}  window")
    for c in corridors[:12]:
        print(
            f"{c['route']:55s} {c['support']:6d} {c['length_km']:5.1f} "
            f"{c['score']:9.1f}  {c['bucket']}"
        )

    morning = [c for c in corridors if c["bucket"] == "weekday-morning"]
    if morning:
        top = morning[0]
        print(
            f"\nPeak weekday-morning corridor: {top['route']} "
            f"({top['support']} riders over {top['length_km']:.1f} km) — "
            "a candidate for an express bus line."
        )


if __name__ == "__main__":
    main()
