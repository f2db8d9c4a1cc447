"""Unit tests for the taxi simulator."""

from collections import Counter

import numpy as np
import pytest

from repro.data.taxi import (
    SECONDS_PER_DAY,
    ShanghaiTaxiSimulator,
    day_weekday,
    is_weekend,
    time_of_day_bucket,
    week_bucket,
)


class TestTimeHelpers:
    def test_epoch_is_wednesday(self):
        assert day_weekday(0.0) == 2

    def test_weekend_detection(self):
        # Day 0 = Wed, day 3 = Sat, day 4 = Sun, day 5 = Mon.
        assert not is_weekend(0.0)
        assert is_weekend(3 * SECONDS_PER_DAY)
        assert is_weekend(4 * SECONDS_PER_DAY)
        assert not is_weekend(5 * SECONDS_PER_DAY)

    def test_time_of_day_buckets(self):
        assert time_of_day_bucket(8 * 3600.0) == "morning"
        assert time_of_day_bucket(14 * 3600.0) == "afternoon"
        assert time_of_day_bucket(22 * 3600.0) == "night"
        assert time_of_day_bucket(2 * 3600.0) == "night"

    def test_week_bucket(self):
        assert week_bucket(8 * 3600.0) == "weekday-morning"
        sat_afternoon = 3 * SECONDS_PER_DAY + 14 * 3600.0
        assert week_bucket(sat_afternoon) == "weekend-afternoon"


class TestSimulation:
    def test_trips_time_ordered(self, small_taxi):
        for trip in small_taxi.trips:
            assert trip.dropoff.t > trip.pickup.t

    def test_trip_durations_plausible(self, small_taxi):
        durations = np.array([t.duration_s for t in small_taxi.trips]) / 60.0
        assert durations.min() > 2.0
        assert durations.max() < 90.0
        assert 8.0 < durations.mean() < 45.0

    def test_unique_trip_ids(self, small_taxi):
        ids = [t.trip_id for t in small_taxi.trips]
        assert ids == list(range(len(ids)))

    def test_ground_truth_categories_valid(self, small_taxi):
        from repro.data.categories import MAJOR_CATEGORIES

        for trip in small_taxi.trips[:500]:
            assert trip.pickup_truth in MAJOR_CATEGORIES
            assert trip.dropoff_truth in MAJOR_CATEGORIES

    def test_anonymous_trips_present(self, small_taxi):
        kinds = Counter(t.passenger_id is None for t in small_taxi.trips)
        assert kinds[True] > 0 and kinds[False] > 0
        # Roughly the 20/80 card split of the paper.
        anonymous_share = kinds[True] / len(small_taxi.trips)
        assert 0.6 < anonymous_share < 0.95

    def test_deterministic(self, small_city):
        a = ShanghaiTaxiSimulator(small_city, seed=9).simulate(20, 3)
        b = ShanghaiTaxiSimulator(small_city, seed=9).simulate(20, 3)
        assert [(t.pickup.lon, t.pickup.t) for t in a.trips] == [
            (t.pickup.lon, t.pickup.t) for t in b.trips
        ]

    def test_rejects_bad_args(self, small_city):
        with pytest.raises(ValueError):
            ShanghaiTaxiSimulator(small_city, card_fraction=0.0)
        with pytest.raises(ValueError):
            ShanghaiTaxiSimulator(small_city, speed_mps=-1)
        with pytest.raises(ValueError):
            ShanghaiTaxiSimulator(small_city).simulate(0, 1)

    def test_zipf_concentration(self, small_taxi, small_city):
        """The busiest pick-up site must hold a large trip share."""
        proj = small_city.projection
        sites = Counter()
        for trip in small_taxi.trips:
            x, y = proj.to_meters(trip.pickup.lon, trip.pickup.lat)
            sites[(round(x / 200), round(y / 200))] += 1
        top_share = sites.most_common(1)[0][1] / len(small_taxi.trips)
        assert top_share > 0.05


class TestDerivedViews:
    def test_stay_points_count(self, small_taxi):
        assert len(small_taxi.stay_points()) == 2 * len(small_taxi.trips)

    def test_linked_trajectories_have_min_points(self, small_taxi):
        linked = small_taxi.linked_trajectories(min_points=3)
        assert linked
        assert all(len(st) >= 3 for st in linked)
        assert all(st.is_time_ordered() for st in linked)

    def test_linked_truths_parallel(self, small_taxi):
        linked = small_taxi.linked_trajectories()
        truths = small_taxi.linked_truths()
        assert len(linked) == len(truths)
        for st, tr in zip(linked, truths):
            assert len(st) == len(tr)

    def test_mining_trajectories_unique_ids(self, small_trajectories):
        ids = [st.traj_id for st in small_trajectories]
        assert ids == list(range(len(ids)))

    def test_mining_combines_linked_and_anonymous(self, small_taxi):
        mining = small_taxi.mining_trajectories()
        linked = small_taxi.linked_trajectories()
        n_anon = sum(1 for t in small_taxi.trips if t.passenger_id is None)
        assert len(mining) == len(linked) + n_anon


class TestCaseStudyVenues:
    def test_airport_trips_exist(self, small_taxi, small_city):
        """Figure 14(g) needs airport-bound journeys."""
        proj = small_city.projection
        airport = small_city.venue_block("airport")
        hits = 0
        for trip in small_taxi.trips:
            x, y = proj.to_meters(trip.dropoff.lon, trip.dropoff.lat)
            if airport.contains(x, y):
                hits += 1
        assert hits > 10

    def test_hospital_round_trips_exist(self, small_taxi):
        """Figure 14(h) needs hospital visits with returns."""
        med = [
            t for t in small_taxi.trips
            if t.dropoff_truth == "Medical Service" and t.passenger_id is not None
        ]
        assert med
