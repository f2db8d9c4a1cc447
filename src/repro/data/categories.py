"""POI category taxonomy mirroring the paper's AMAP snapshot (Table 3).

The paper's POI dataset classifies 1.2e6 Shanghai POIs into 15 major and
98 minor semantic types.  Table 3 gives the major-category counts; the
minor split is not published, so we distribute each major category over
a plausible set of minors (98 in total) and treat them as uniform within
their major unless stated otherwise.  Semantic properties throughout the
pipeline are the *major* category names — the same granularity at which
the paper reports patterns such as Residence -> Office.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Major category -> (paper count, paper percentage), verbatim Table 3.
CATEGORY_TABLE: Dict[str, Tuple[int, float]] = {
    "Residence": (218_327, 18.09),
    "Shop & Market": (197_411, 16.36),
    "Business & Office": (180_962, 15.00),
    "Restaurant": (136_322, 11.30),
    "Entertainment": (120_986, 10.03),
    "Public Service": (113_446, 9.40),
    "Traffic Stations": (91_079, 7.55),
    "Technology & Education": (32_190, 2.67),
    "Sports": (23_418, 1.94),
    "Government Agency": (22_670, 1.88),
    "Industry": (17_732, 1.47),
    "Financial Service": (17_251, 1.43),
    "Medical Service": (15_894, 1.32),
    "Accommodation & Hotel": (12_795, 1.06),
    "Tourism": (6_166, 0.51),
}

#: The 15 major categories in Table 3 order (descending count).
MAJOR_CATEGORIES: List[str] = list(CATEGORY_TABLE)

#: 98 minor categories grouped under their major category.  Names follow
#: AMAP's public taxonomy where a natural mapping exists.
MINOR_CATEGORIES: Dict[str, List[str]] = {
    "Residence": [
        "Residential Quarter", "Villa Compound", "Dormitory",
        "Serviced Apartment", "Community Centre", 
        "Public Housing Estate",
    ],
    "Shop & Market": [
        "Shopping Mall", "Supermarket", "Convenience Store",
        "Clothing Store", "Electronics Store", "Furniture Store",
        "Bookstore", "Wet Market", "Specialty Store", 
    ],
    "Business & Office": [
        "Office Building", "Company", "Industrial Park Office",
        "Co-working Space", "Conference Centre", "Business Incubator",
        "Media House", 
    ],
    "Restaurant": [
        "Chinese Restaurant", "Western Restaurant", "Japanese Restaurant",
        "Fast Food", "Noodle House", "Hotpot", "Cafe", "Bakery",
        "Dessert Shop", 
    ],
    "Entertainment": [
        "Cinema", "KTV", "Bar", "Night Club", "Game Arcade",
        "Internet Cafe", "Theatre", 
    ],
    "Public Service": [
        "Post Office", "Police Station", "Fire Station",
        "Community Service", "Public Toilet", "Public Library",
        "Civil Affairs Office",
    ],
    "Traffic Stations": [
        "Metro Station", "Bus Station", "Railway Station", "Airport",
        "Coach Terminal", "Ferry Terminal", "Taxi Stand", "Parking Lot",
    ],
    "Technology & Education": [
        "University", "High School", "Primary School", "Kindergarten",
        "Research Institute", "Training Centre", "Science Museum",
    ],
    "Sports": [
        "Gym", "Stadium", "Swimming Pool", "Tennis Court",
        "Football Pitch", "Badminton Hall",
    ],
    "Government Agency": [
        "District Government", "Tax Bureau", "Customs Office",
        "Administrative Centre", "Court", "Embassy",
    ],
    "Industry": [
        "Factory", "Industrial Park", "Warehouse", "Logistics Centre",
        "Shipyard",
    ],
    "Financial Service": [
        "Bank", "ATM", "Insurance Company", "Securities Firm",
        "Exchange Office",
    ],
    "Medical Service": [
        "General Hospital", "Children's Hospital", "Clinic", "Pharmacy",
        "Dental Clinic", "Health Centre",
    ],
    "Accommodation & Hotel": [
        "Five-Star Hotel", "Business Hotel", "Budget Hotel", "Hostel",
        "Guesthouse",
    ],
    "Tourism": [
        "Scenic Spot", "Museum", "Temple", "Historic Site", "City Park",
        
    ],
}


def _validate_taxonomy() -> None:
    total_minor = sum(len(v) for v in MINOR_CATEGORIES.values())
    if total_minor != 98:
        raise AssertionError(
            f"taxonomy must contain 98 minor categories, found {total_minor}"
        )
    if set(MINOR_CATEGORIES) != set(MAJOR_CATEGORIES):
        raise AssertionError("minor taxonomy keys must equal the 15 majors")


_validate_taxonomy()


def category_distribution() -> Dict[str, float]:
    """Major-category probabilities normalised from Table 3 counts."""
    total = sum(count for count, _pct in CATEGORY_TABLE.values())
    return {name: count / total for name, (count, _pct) in CATEGORY_TABLE.items()}
