"""Figure 14 — qualitative demonstration of the mined patterns.

Paper: (a)-(f) bucket patterns into weekday/weekend x morning/afternoon/
night — weekday mornings are dominated by Residence -> Office (and
airport) flows, weekday afternoons are quiet, evenings revive with
Office -> Supermarket / Restaurant -> Residence chains, weekends are
sparse and irregular; (g) a pattern group around Hongqiao airport covers
~20% of all records; (h) trips to the Children's Hospital surface even
though check-in data never shows them (the Semantic Bias win).
"""

from collections import Counter

from repro.baselines.registry import Approach
from repro.core.patterns import WEEK_BUCKETS, bucket_patterns, route_label
from repro.eval.reporting import format_table


def mine(runner, bench_config):
    return runner.run(Approach("CSD", "PM"), bench_config)


def test_fig14_demonstration(benchmark, workload, runner, bench_config):
    patterns = benchmark.pedantic(
        mine, args=(runner, bench_config), rounds=1, iterations=1
    )
    assert patterns

    # (a)-(f): patterns per time-of-week bucket.
    by_bucket = bucket_patterns(patterns)
    rows = []
    for bucket in WEEK_BUCKETS:
        members = by_bucket[bucket]
        top = Counter(route_label(p) for p in members).most_common(2)
        rows.append(
            (bucket, len(members), "; ".join(f"{t} ({c})" for t, c in top))
        )
    print("\nFigure 14(a-f) — CSD-PM patterns per time-of-week bucket")
    print(format_table(["bucket", "#patterns", "top patterns"], rows))

    # (g) airport case study: pattern groups around the airport venue.
    proj = workload.projection
    airport = workload.city.venue_block("airport")
    hospital = workload.city.venue_block("childrens_hospital")

    def venue_patterns(block):
        hits = []
        for p in patterns:
            for rep in p.representatives:
                x, y = proj.to_meters(rep.lon, rep.lat)
                if block.contains(x, y):
                    hits.append(p)
                    break
        return hits

    airport_patterns = venue_patterns(airport)
    airport_cov = sum(p.support for p in airport_patterns)
    print(f"\nFigure 14(g) — airport: {len(airport_patterns)} patterns, "
          f"coverage {airport_cov}")
    for p in airport_patterns[:5]:
        print(f"  {route_label(p)} (support {p.support})")

    # (h) hospital case study: the Semantic Bias win.
    hospital_patterns = venue_patterns(hospital)
    print(f"\nFigure 14(h) — children's hospital: "
          f"{len(hospital_patterns)} patterns")
    for p in hospital_patterns[:5]:
        print(f"  {route_label(p)} (support {p.support})")

    # Shape assertions.
    weekday_am = by_bucket["weekday-morning"]
    am_flows = {p.items for p in weekday_am}
    assert ("Residence", "Business & Office") in am_flows
    # Weekday mornings out-pattern weekend mornings (weekends "sparse
    # and irregular").
    assert len(weekday_am) >= len(by_bucket["weekend-morning"])
    # Airport flows exist and are Traffic Stations-bound.
    assert airport_patterns
    assert any("Traffic Stations" in p.items for p in airport_patterns)
    # Hospital patterns surface from raw GPS data (check-in data cannot
    # show them — Table 1).
    assert hospital_patterns
    assert any("Medical Service" in p.items for p in hospital_patterns)
