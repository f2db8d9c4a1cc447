"""Block invariance of the candidate-pair budget, ``repro.geo.index.PAIR_BUDGET``.

Popularity, Algorithm 1, merging and recognition all work in blocks of
centres whose range-query candidates fit the budget, each centre's hits
whole and in hit order.  The corpus here adds one dense cell to a small
city: hundreds of POIs and stays inside one ``R_3sigma`` cell, so a
single centre has more candidates than any of the small budgets and
forms a block of its own.  Every output must be the default budget's,
bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.geo.index as geo_index
from repro.core.config import CSDConfig
from repro.core.constructor import build_csd
from repro.core.recognition import CSDRecognizer
from repro.data.city import CityModel
from repro.data.persistence import save_csd
from repro.data.poi import POI, POIGenerator
from repro.data.trajectory import StayPoint
from repro.geo.index import GridIndex

CONFIG = CSDConfig(alpha=0.7)
BUDGETS = (1, 7, 64)


@pytest.fixture(scope="module")
def corpus():
    """``(pois, stays, projection)``: a 1,000-POI city and 800 stays,
    plus 300 POIs (two tags) and 400 stays inside one 60 m square."""
    city = CityModel.generate(extent_m=1500.0, seed=3)
    pois = POIGenerator(city, seed=4).generate(1000)
    projection = city.projection
    rng = np.random.default_rng(5)
    poi_xy = projection.to_meters_array(
        np.array([[p.lon, p.lat] for p in pois])
    )
    dense_xy = rng.uniform(200.0, 260.0, (300, 2))
    dense_lonlat = projection.to_lonlat_array(dense_xy)
    tags = [pois[0], pois[1]]
    pois = pois + [
        POI(len(pois) + i, float(lon), float(lat),
            tags[i % 2].major, tags[i % 2].minor)
        for i, (lon, lat) in enumerate(dense_lonlat.tolist())
    ]
    stay_xy = np.vstack([
        poi_xy[rng.integers(0, len(poi_xy), 800)]
        + rng.normal(0.0, 30.0, (800, 2)),
        rng.uniform(200.0, 260.0, (400, 2)),
    ])
    stays = [
        StayPoint(lon=float(lon), lat=float(lat), t=float(i))
        for i, (lon, lat) in enumerate(
            projection.to_lonlat_array(stay_xy).tolist()
        )
    ]
    return pois, stays, projection


def saved_bytes(csd, directory):
    directory.mkdir()
    save_csd(directory / "csd.json", csd)
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def outputs(corpus, directory):
    """``save_csd`` bytes, recognition output and the stays' CSR query
    over the POIs, under the budget in force."""
    pois, stays, projection = corpus
    csd = build_csd(pois, stays, CONFIG, projection)
    recognizer = CSDRecognizer(csd, CONFIG.r3sigma_m)
    stay_xy = recognizer.project_stays(stays)
    csr = GridIndex(csd.poi_xy, cell_size=CONFIG.r3sigma_m).query_radius_many(
        stay_xy, CONFIG.r3sigma_m
    )
    return (
        saved_bytes(csd, directory),
        recognizer.recognize_points(stays),
        [a.tolist() for a in csr],
    )


@pytest.fixture(scope="module")
def reference(corpus, tmp_path_factory):
    return outputs(corpus, tmp_path_factory.mktemp("default") / "csd")


def test_one_centre_outgrows_every_small_budget(corpus, reference):
    """A dense-cell stay has more POI hits, hence candidates, than any
    small budget, and the dense POIs form units of the diagram."""
    _, recognized, (_, offsets) = reference
    assert max(np.diff(offsets)) > max(BUDGETS)
    assert sum(1 for prop in recognized[-400:] if prop) > 300


@pytest.mark.parametrize("budget", BUDGETS)
def test_outputs_do_not_depend_on_the_budget(
    corpus, reference, budget, tmp_path, monkeypatch
):
    monkeypatch.setattr(geo_index, "PAIR_BUDGET", budget)
    got = outputs(corpus, tmp_path / "budget")
    assert got[0] == reference[0]
    assert got[1] == reference[1]
    assert got[2] == reference[2]
