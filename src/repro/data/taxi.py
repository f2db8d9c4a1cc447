"""Agent-based Shanghai taxi simulator (stand-in for the April 2015 logs).

The paper's corpus records 2.2e7 journeys; each journey is a pick-up and
a drop-off, which the experiments use as stay points directly, and 20%
of passengers are card-linked so their journeys of a day chain into
movement trajectories with three or more stay points.

This simulator reproduces those properties at laptop scale:

- card-linked *passengers* carry a home anchor, a work anchor, and
  favourite leisure anchors, all placed on block plazas of the shared
  :class:`~repro.data.city.CityModel` — the same plazas POIs cluster on,
  so stay points fall near the POIs that explain them;
- weekday routines emit a morning commute and an evening chain
  (office -> home, or office -> shop/restaurant -> home with a short
  dwell), weekend routines emit leisure outings;
- rare routines visit the airport and the children's hospital venues so
  the Figure 14(g)/(h) case studies have signal;
- anonymous (non-card) passengers emit single journeys drawn from the
  same origin/destination process, inflating support like the other 80%
  of the paper's corpus;
- pick-up/drop-off coordinates carry Gaussian GPS noise, and travel
  times follow distance at an effective downtown speed so the average
  journey lasts ~20-30 minutes (the Figure 13 knee at delta_t = 15 min).
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.city import CityModel
from repro.data.trajectory import SemanticTrajectory, StayPoint
from repro.types import Float64Array, MetersXY

SECONDS_PER_DAY = 86_400.0
#: Simulation epoch: Wednesday 2015-04-01 00:00 local, as POSIX-like
#: seconds.  Only weekday arithmetic matters, so the zero point is
#: arbitrary; day index 0 is a Wednesday to match April 2015.
EPOCH_WEEKDAY = 2  # 0=Mon


@dataclass(frozen=True)
class TaxiTrip:
    """One taxi journey: pick-up and drop-off stay points plus ground truth.

    ``pickup_truth``/``dropoff_truth`` record the true venue category the
    passenger visited — unavailable in the paper's real data, used here
    for recognition-accuracy evaluation.
    """

    trip_id: int
    passenger_id: Optional[int]  # None for anonymous (non card-linked)
    pickup: StayPoint
    dropoff: StayPoint
    pickup_truth: str
    dropoff_truth: str

    @property
    def duration_s(self) -> float:
        return self.dropoff.t - self.pickup.t


@dataclass(frozen=True)
class Passenger:
    """A card-linked commuter with fixed activity anchors."""

    passenger_id: int
    home: MetersXY
    work: MetersXY
    home_category: str
    work_category: str
    leisure: Tuple[Tuple[float, float, str], ...]  # (x, y, category)


@dataclass
class TaxiDataset:
    """Simulator output: journeys plus derived views used by the pipeline."""

    city: CityModel
    trips: List[TaxiTrip]
    passengers: List[Passenger]
    days: int

    def stay_points(self) -> List[StayPoint]:
        """Every pick-up and drop-off, in trip order (Figure 8's dataset)."""
        out: List[StayPoint] = []
        for trip in self.trips:
            out.append(trip.pickup)
            out.append(trip.dropoff)
        return out

    def linked_trajectories(
        self, min_points: int = 3
    ) -> List[SemanticTrajectory]:
        """Card-linked day trajectories with at least ``min_points`` stays.

        Mirrors the paper: "by linking the consecutive journey
        trajectories for each passenger in a day, we recover many long
        movement trajectories with at least three stay points".
        """
        return link_trips_by_day(self.trips, min_points)

    def linked_truths(self, min_points: int = 3) -> List[List[str]]:
        """Ground-truth category per stay point, parallel to
        :meth:`linked_trajectories`.

        Both views derive from :func:`group_card_trips_by_day`, so the
        k-th truth list always describes the k-th linked trajectory and
        the i-th truth its i-th stay point.
        """
        out: List[List[str]] = []
        for day_trips in group_card_trips_by_day(self.trips):
            truths: List[str] = []
            for trip in day_trips:
                truths.append(trip.pickup_truth)
                truths.append(trip.dropoff_truth)
            if len(truths) >= min_points:
                out.append(truths)
        return out

    def mining_trajectories(self) -> List[SemanticTrajectory]:
        """The mining corpus: card-linked chains plus anonymous journeys."""
        return trips_to_mining_trajectories(self.trips)


def group_card_trips_by_day(
    trips: Sequence[TaxiTrip],
) -> List[List[TaxiTrip]]:
    """Card-linked journeys grouped per (passenger, day), in a canonical
    order: groups sorted by (passenger_id, day), trips within a group by
    pick-up time.

    This is the single source of the grouping that both
    :func:`link_trips_by_day` (trajectories) and
    :meth:`TaxiDataset.linked_truths` (ground truth) derive from —
    keeping the two views index-parallel by construction instead of by
    duplicated logic.
    """
    grouped: Dict[Tuple[int, int], List[TaxiTrip]] = {}
    for trip in trips:
        if trip.passenger_id is None:
            continue
        day = int(trip.pickup.t // SECONDS_PER_DAY)
        grouped.setdefault((trip.passenger_id, day), []).append(trip)
    return [
        sorted(day_trips, key=lambda tr: tr.pickup.t)
        for _key, day_trips in sorted(grouped.items())
    ]


def link_trips_by_day(
    trips: Sequence[TaxiTrip], min_points: int = 3
) -> List[SemanticTrajectory]:
    """Chain each card-linked passenger's journeys of a day (Section 5)."""
    out: List[SemanticTrajectory] = []
    next_id = 0
    for day_trips in group_card_trips_by_day(trips):
        stays: List[StayPoint] = []
        for trip in day_trips:
            stays.append(trip.pickup)
            stays.append(trip.dropoff)
        if len(stays) >= min_points:
            out.append(SemanticTrajectory(next_id, stays))
            next_id += 1
    return out


def trips_to_mining_trajectories(
    trips: Sequence[TaxiTrip],
) -> List[SemanticTrajectory]:
    """Full mining corpus from raw journeys: card-linked day chains plus
    one two-stop trajectory per anonymous journey, with unique ids."""
    linked = link_trips_by_day(trips)
    singles = [
        SemanticTrajectory(0, [trip.pickup, trip.dropoff])
        for trip in trips
        if trip.passenger_id is None
    ]
    out: List[SemanticTrajectory] = []
    for i, st in enumerate(linked + singles):
        out.append(SemanticTrajectory(i, st.stay_points))
    return out


def day_weekday(t: float) -> int:
    """Weekday of a simulation timestamp, 0=Monday."""
    return (int(t // SECONDS_PER_DAY) + EPOCH_WEEKDAY) % 7


def is_weekend(t: float) -> bool:
    return day_weekday(t) >= 5


def time_of_day_bucket(t: float) -> str:
    """Morning / afternoon / night bucket of Figure 14."""
    hour = (t % SECONDS_PER_DAY) / 3600.0
    if 5.0 <= hour < 12.0:
        return "morning"
    if 12.0 <= hour < 18.0:
        return "afternoon"
    return "night"


def week_bucket(t: float) -> str:
    """One of the six Figure 14(a-f) buckets, e.g. ``weekday-morning``."""
    prefix = "weekend" if is_weekend(t) else "weekday"
    return f"{prefix}-{time_of_day_bucket(t)}"


#: Evening destination mix after work (category, probability).  "home"
#: is handled separately; these are the intermediate-stop categories of
#: patterns like Office -> Supermarket -> Residence.
_EVENING_STOPS = [
    ("Shop & Market", 0.40),
    ("Restaurant", 0.30),
    ("Entertainment", 0.12),
    ("Sports", 0.10),
    ("Medical Service", 0.08),
]
_WEEKEND_STOPS = [
    ("Shop & Market", 0.30),
    ("Entertainment", 0.25),
    ("Restaurant", 0.20),
    ("Tourism", 0.15),
    ("Sports", 0.10),
]


class ShanghaiTaxiSimulator:
    """Generates a :class:`TaxiDataset` over a shared city plan.

    Parameters
    ----------
    city:
        Shared city plan.
    seed:
        RNG seed; the whole dataset is a deterministic function of
        (city, seed, sizes).
    gps_noise_m:
        Standard deviation of the Gaussian GPS error applied to every
        pick-up/drop-off coordinate.
    speed_mps:
        Effective door-to-door speed (includes congestion); with the
        default 12 km city this yields ~10-35 minute journeys.
    card_fraction:
        Fraction of passengers that are card-linked (paper: 20%).
    zipf_s:
        Exponent of the Zipf law over venue anchors; higher values
        concentrate trips on fewer hot spots.  At laptop scale this is
        the lever that restores the per-location trip density a 2.2e7
        journey corpus has (see the anchor-table docstring).
    """

    def __init__(
        self,
        city: CityModel,
        seed: int = 23,
        gps_noise_m: float = 15.0,
        speed_mps: float = 4.5,
        card_fraction: float = 0.2,
        zipf_s: float = 1.5,
        venue_spread_m: float = 14.0,
    ) -> None:
        if not 0.0 < card_fraction <= 1.0:
            raise ValueError("card_fraction must be in (0, 1]")
        if speed_mps <= 0 or gps_noise_m < 0:
            raise ValueError("speed must be positive, noise non-negative")
        if zipf_s < 0:
            raise ValueError("zipf_s must be non-negative")
        self.city = city
        self.seed = seed
        self.gps_noise_m = gps_noise_m
        self.speed_mps = speed_mps
        self.card_fraction = card_fraction
        self.zipf_s = zipf_s
        self.venue_spread_m = venue_spread_m
        self._anchor_tables: Dict[
            str, Tuple[List[MetersXY], Float64Array, Float64Array]
        ] = {}

    # -- anchor helpers ----------------------------------------------------

    def _anchor_table(
        self, category: str
    ) -> Tuple[List[MetersXY], Float64Array, Float64Array]:
        """All plazas of a category with Zipf weights and venue spreads.

        Real venue popularity is heavy-tailed: a few malls/office towers
        attract a large share of trips.  Without this skew a small
        simulated population spreads so thin that no location reaches
        the paper's support thresholds — the Zipf law restores the
        density a 2.2e7-trip corpus has naturally.  Spread scales with
        popularity: a flagship mall or an airport kerb covers hundreds
        of metres while a corner shop covers ten — the heterogeneity a
        fixed clustering radius cannot fit but OPTICS can.
        """
        cached = self._anchor_tables.get(category)
        if cached is not None:
            return cached
        blocks = self.city.blocks_of(category)
        if not blocks:
            raise ValueError(f"city has no block for category {category!r}")
        anchors: List[MetersXY] = []
        for block in blocks:
            for px, py in self.city.plazas(block):
                anchors.append((float(px), float(py)))
        rank_rng = np.random.default_rng(
            self.seed * 7_919 + zlib.crc32(category.encode())
        )
        ranks = rank_rng.permutation(len(anchors))
        weights = 1.0 / (ranks + 1.0) ** self.zipf_s
        weights /= weights.sum()
        spreads = self.venue_spread_m * (
            0.6 + 3.4 * np.sqrt(weights / weights.max())
        )
        self._anchor_tables[category] = (anchors, weights, spreads)
        return anchors, weights, spreads

    def _anchor(
        self, category: str, rng: np.random.Generator
    ) -> MetersXY:
        """A venue near a plaza zoned for ``category`` (metres).

        Drawn Zipf-weighted over plazas, then jittered by the venue's
        own spread: passengers stop at a specific door of the venue, so
        the stay-point cloud covers the venue footprint.
        """
        anchors, weights, spreads = self._anchor_table(category)
        idx = int(rng.choice(len(anchors), p=weights))
        x, y = anchors[idx]
        jx, jy = rng.normal(0.0, spreads[idx], 2)
        return x + jx, y + jy

    def _venue_anchor(
        self, venue: str, rng: np.random.Generator
    ) -> MetersXY:
        block = self.city.venue_block(venue)
        plazas = self.city.plazas(block)
        px, py = plazas[int(rng.integers(len(plazas)))]
        return float(px), float(py)

    def _make_passenger(
        self, pid: int, rng: np.random.Generator
    ) -> Passenger:
        home = self._anchor("Residence", rng)
        work = self._anchor("Business & Office", rng)
        leisure = []
        for cat, _w in _EVENING_STOPS + _WEEKEND_STOPS:
            x, y = self._anchor(cat, rng)
            leisure.append((x, y, cat))
        return Passenger(
            pid, home, work, "Residence", "Business & Office", tuple(leisure)
        )

    # -- trip emission -------------------------------------------------------

    def _noisy_stay(
        self, x: float, y: float, t: float, rng: np.random.Generator
    ) -> StayPoint:
        nx = x + rng.normal(0.0, self.gps_noise_m)
        ny = y + rng.normal(0.0, self.gps_noise_m)
        lon, lat = self.city.projection.to_lonlat(nx, ny)
        return StayPoint(lon, lat, t)

    def _travel_time(
        self, src: MetersXY, dst: MetersXY,
        rng: np.random.Generator,
    ) -> float:
        dist = math.hypot(dst[0] - src[0], dst[1] - src[1])
        base = dist / self.speed_mps
        return base + rng.uniform(180.0, 600.0)

    def _emit_trip(
        self,
        trips: List[TaxiTrip],
        pid: Optional[int],
        src: MetersXY,
        dst: MetersXY,
        src_cat: str,
        dst_cat: str,
        depart_t: float,
        rng: np.random.Generator,
    ) -> float:
        """Append one journey; return the arrival timestamp."""
        arrive_t = depart_t + self._travel_time(src, dst, rng)
        trips.append(
            TaxiTrip(
                trip_id=len(trips),
                passenger_id=pid,
                pickup=self._noisy_stay(src[0], src[1], depart_t, rng),
                dropoff=self._noisy_stay(dst[0], dst[1], arrive_t, rng),
                pickup_truth=src_cat,
                dropoff_truth=dst_cat,
            )
        )
        return arrive_t

    def _pick_stop(
        self,
        passenger: Passenger,
        mix: Sequence[Tuple[str, float]],
        rng: np.random.Generator,
    ) -> Tuple[float, float, str]:
        names = [c for c, _w in mix]
        weights = np.array([w for _c, w in mix], dtype=float)
        weights /= weights.sum()
        category = str(rng.choice(names, p=weights))
        matches = [lz for lz in passenger.leisure if lz[2] == category]
        if matches:
            return matches[int(rng.integers(len(matches)))]
        x, y = self._anchor(category, rng)
        return (x, y, category)

    def _simulate_weekday(
        self,
        trips: List[TaxiTrip],
        passenger: Passenger,
        day_start: float,
        rng: np.random.Generator,
    ) -> None:
        pid = passenger.passenger_id
        home, work = passenger.home, passenger.work
        hcat, wcat = passenger.home_category, passenger.work_category

        roll = rng.random()
        if roll < 0.02:
            # Airport day: home -> airport in the morning (Fig 14g).
            airport = self._venue_anchor("airport", rng)
            depart = day_start + rng.normal(7.0, 1.0) * 3600.0
            self._emit_trip(
                trips, pid, home, airport, hcat, "Traffic Stations",
                depart, rng,
            )
            return
        if roll < 0.04:
            # Hospital day: home -> children's hospital -> home (Fig 14h).
            hospital = self._venue_anchor("childrens_hospital", rng)
            depart = day_start + rng.normal(8.5, 0.8) * 3600.0
            arrive = self._emit_trip(
                trips, pid, home, hospital, hcat, "Medical Service",
                depart, rng,
            )
            back = arrive + rng.uniform(0.5, 1.0) * 3600.0
            self._emit_trip(
                trips, pid, hospital, home, "Medical Service", hcat,
                back, rng,
            )
            return

        # Morning commute.
        depart = day_start + rng.normal(7.75, 0.6) * 3600.0
        self._emit_trip(trips, pid, home, work, hcat, wcat, depart, rng)

        # Evening: straight home or a chained stop (Office -> X -> Home).
        evening = day_start + rng.normal(18.2, 0.8) * 3600.0
        if rng.random() < 0.55:
            self._emit_trip(trips, pid, work, home, wcat, hcat, evening, rng)
        else:
            sx, sy, scat = self._pick_stop(passenger, _EVENING_STOPS, rng)
            arrive = self._emit_trip(
                trips, pid, work, (sx, sy), wcat, scat, evening, rng
            )
            onward = arrive + rng.uniform(0.25, 0.75) * 3600.0
            self._emit_trip(
                trips, pid, (sx, sy), home, scat, hcat, onward, rng
            )

    def _simulate_weekend(
        self,
        trips: List[TaxiTrip],
        passenger: Passenger,
        day_start: float,
        rng: np.random.Generator,
    ) -> None:
        pid = passenger.passenger_id
        home = passenger.home
        hcat = passenger.home_category
        if rng.random() > 0.6:
            return  # stays home / uses other transport
        sx, sy, scat = self._pick_stop(passenger, _WEEKEND_STOPS, rng)
        depart = day_start + rng.uniform(9.5, 15.0) * 3600.0
        arrive = self._emit_trip(
            trips, pid, home, (sx, sy), hcat, scat, depart, rng
        )
        if rng.random() < 0.8:
            back = arrive + rng.uniform(1.0, 4.0) * 3600.0
            self._emit_trip(
                trips, pid, (sx, sy), home, scat, hcat, back, rng
            )

    def _simulate_anonymous(
        self, trips: List[TaxiTrip], day_start: float, rng: np.random.Generator
    ) -> None:
        """One anonymous journey drawn from the aggregate OD process."""
        weekend = is_weekend(day_start)
        if weekend:
            hour = rng.uniform(9.0, 23.0)
            stops = _WEEKEND_STOPS
        else:
            # Bimodal rush hours.
            hour = rng.normal(8.0, 1.0) if rng.random() < 0.5 else rng.normal(18.5, 1.5)
            stops = _EVENING_STOPS
        hour = float(np.clip(hour, 0.0, 23.8))
        depart = day_start + hour * 3600.0

        r = rng.random()
        if r < 0.10:
            src = self._anchor("Residence", rng)
            dst = self._venue_anchor("airport", rng)
            src_cat, dst_cat = "Residence", "Traffic Stations"
        elif r < 0.5 and not weekend:
            if hour < 12.0:
                src = self._anchor("Residence", rng)
                dst = self._anchor("Business & Office", rng)
                src_cat, dst_cat = "Residence", "Business & Office"
            else:
                src = self._anchor("Business & Office", rng)
                dst = self._anchor("Residence", rng)
                src_cat, dst_cat = "Business & Office", "Residence"
        else:
            names = [c for c, _w in stops]
            weights = np.array([w for _c, w in stops], dtype=float)
            weights /= weights.sum()
            dst_cat = str(rng.choice(names, p=weights))
            src = self._anchor("Residence", rng)
            dst = self._anchor(dst_cat, rng)
            src_cat = "Residence"
        self._emit_trip(trips, None, src, dst, src_cat, dst_cat, depart, rng)

    # -- public API --------------------------------------------------------

    def simulate(
        self,
        n_passengers: int = 400,
        days: int = 7,
        anonymous_trips_per_day: int = 0,
    ) -> TaxiDataset:
        """Run the simulation.

        ``anonymous_trips_per_day`` defaults to four times the card-linked
        daily volume when 0, approximating the paper's 20/80 split.
        """
        if n_passengers <= 0 or days <= 0:
            raise ValueError("need at least one passenger and one day")
        rng = np.random.default_rng(self.seed)
        passengers = [self._make_passenger(i, rng) for i in range(n_passengers)]
        trips: List[TaxiTrip] = []
        if anonymous_trips_per_day == 0:
            ratio = (1.0 - self.card_fraction) / self.card_fraction
            anonymous_trips_per_day = int(n_passengers * 2 * ratio)

        for day in range(days):
            day_start = day * SECONDS_PER_DAY
            weekend = is_weekend(day_start)
            for passenger in passengers:
                if weekend:
                    self._simulate_weekend(trips, passenger, day_start, rng)
                else:
                    self._simulate_weekday(trips, passenger, day_start, rng)
            for _ in range(anonymous_trips_per_day):
                self._simulate_anonymous(trips, day_start, rng)

        return TaxiDataset(self.city, trips, passengers, days)
