"""Domain vocabularies and world-entity factories.

Each factory produces *world entities*: clean attribute → value mappings for
one domain of the Magellan benchmark.  A matching record pair is built from
two corrupted views of the same world entity; a non-matching pair from views
of two different (possibly deliberately similar) world entities.

The factories are deterministic given a :class:`numpy.random.Generator`, so
the whole benchmark regenerates bit-identically from a seed.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

Entity = dict[str, str]

# ---------------------------------------------------------------------------
# Shared word pools
# ---------------------------------------------------------------------------

FIRST_NAMES = (
    "james", "mary", "robert", "patricia", "john", "jennifer", "michael",
    "linda", "david", "elizabeth", "william", "barbara", "richard", "susan",
    "joseph", "jessica", "thomas", "sarah", "carlos", "nancy", "daniel",
    "karen", "matthew", "lisa", "anthony", "betty", "marco", "sandra",
    "paolo", "ashley", "andrea", "emily", "luca", "donna", "francesco",
    "michelle", "giovanni", "laura", "wei", "amanda", "chen", "melissa",
    "hiroshi", "deborah", "rajesh", "stephanie", "amir", "rebecca",
)

LAST_NAMES = (
    "smith", "johnson", "williams", "brown", "jones", "garcia", "miller",
    "davis", "rodriguez", "martinez", "hernandez", "lopez", "gonzalez",
    "wilson", "anderson", "thomas", "taylor", "moore", "jackson", "martin",
    "lee", "perez", "thompson", "white", "harris", "sanchez", "clark",
    "ramirez", "lewis", "robinson", "walker", "young", "allen", "king",
    "wright", "scott", "torres", "nguyen", "hill", "flores", "green",
    "adams", "nelson", "baker", "hall", "rivera", "campbell", "mitchell",
    "rossi", "ferrari", "esposito", "bianchi", "romano", "ricci", "zhang",
    "wang", "li", "liu", "yang", "tanaka", "suzuki", "kumar", "singh",
)

CITIES = (
    "new york", "los angeles", "chicago", "houston", "phoenix",
    "philadelphia", "san antonio", "san diego", "dallas", "san jose",
    "austin", "san francisco", "seattle", "denver", "boston", "nashville",
    "portland", "las vegas", "memphis", "baltimore", "atlanta", "miami",
    "oakland", "minneapolis", "tulsa", "cleveland", "tampa", "honolulu",
)

STREET_NAMES = (
    "main", "oak", "pine", "maple", "cedar", "elm", "washington", "lake",
    "hill", "park", "sunset", "river", "spring", "madison", "franklin",
    "broadway", "highland", "lincoln", "church", "center", "union",
    "jefferson", "adams", "jackson", "ocean", "valley", "prospect",
)

STREET_KINDS = ("st", "ave", "blvd", "rd", "dr", "ln", "way", "pl")

# ---------------------------------------------------------------------------
# Electronics / general products
# ---------------------------------------------------------------------------

ELECTRONICS_BRANDS = (
    "sony", "nikon", "canon", "panasonic", "samsung", "toshiba", "hp",
    "dell", "lenovo", "asus", "acer", "apple", "logitech", "epson",
    "brother", "sandisk", "kingston", "seagate", "garmin", "jvc", "lg",
    "philips", "olympus", "fujifilm", "kodak", "belkin", "netgear",
    "linksys", "microsoft", "intel",
)

ELECTRONICS_NOUNS = (
    "digital camera", "laptop", "notebook", "monitor", "printer", "scanner",
    "keyboard", "mouse", "router", "hard drive", "memory card", "speaker",
    "headphones", "projector", "camcorder", "tablet", "gps navigator",
    "dvd player", "flash drive", "webcam", "docking station", "battery",
    "power adapter", "ink cartridge", "toner cartridge", "lens",
)

ELECTRONICS_QUALIFIERS = (
    "wireless", "portable", "compact", "professional", "ultra", "slim",
    "hd", "4k", "bluetooth", "usb", "dual", "premium", "gaming", "rugged",
    "waterproof", "rechargeable", "high speed", "low noise",
)

ELECTRONICS_SPECS = (
    "10.2 megapixels", "12 megapixels", "500 gb", "1 tb", "8 gb", "16 gb",
    "32 gb", "1080p", "720p", "15.6 inch", "13.3 inch", "24 inch",
    "2.4 ghz", "5 ghz", "6 cell", "optical zoom 10x", "optical zoom 5x",
    "black", "white", "silver", "red", "blue",
)

PRODUCT_CATEGORIES = (
    "electronics", "computers", "cameras photo", "office products",
    "cell phones accessories", "tv video", "audio headphones", "storage",
    "networking", "printers supplies", "software", "video games",
)

GENERAL_BRANDS = (
    "oxo", "pyrex", "rubbermaid", "sterilite", "cuisinart", "hamilton beach",
    "black decker", "dewalt", "stanley", "3m", "scotch", "sharpie",
    "crayola", "fisher price", "lego", "mattel", "hasbro", "nerf",
    "graco", "huggies", "pampers", "tide", "clorox", "lysol",
)

GENERAL_NOUNS = (
    "storage box", "mixing bowl", "coffee maker", "blender", "toaster",
    "cordless drill", "tape measure", "permanent marker", "crayon set",
    "building blocks", "action figure", "board game", "stroller",
    "car seat", "laundry detergent", "disinfecting wipes", "trash bags",
    "food container", "water bottle", "desk lamp",
)

# ---------------------------------------------------------------------------
# Music
# ---------------------------------------------------------------------------

MUSIC_GENRES = (
    "pop", "rock", "hip hop", "rap", "country", "jazz", "blues",
    "electronic", "dance", "r&b soul", "alternative", "indie", "folk",
    "classical", "reggae", "metal", "latin", "soundtrack",
)

SONG_WORDS_A = (
    "midnight", "summer", "golden", "broken", "electric", "crazy", "sweet",
    "lonely", "burning", "dancing", "silent", "wild", "neon", "fading",
    "endless", "shining", "lost", "frozen", "velvet", "hollow",
)

SONG_WORDS_B = (
    "heart", "dreams", "lights", "road", "fire", "rain", "love", "night",
    "city", "sky", "river", "memories", "shadows", "paradise", "horizon",
    "echoes", "stars", "wings", "storm", "mirror",
)

ALBUM_WORDS = (
    "deluxe edition", "remastered", "live", "greatest hits", "vol 1",
    "vol 2", "acoustic sessions", "the collection", "unplugged",
    "original recording", "anniversary edition", "b sides",
)

COPYRIGHT_HOLDERS = (
    "umg recordings", "sony music entertainment", "warner records",
    "atlantic recording", "capitol records", "interscope records",
    "columbia records", "rca records", "def jam recordings",
    "republic records",
)

# ---------------------------------------------------------------------------
# Restaurants
# ---------------------------------------------------------------------------

RESTAURANT_WORDS_A = (
    "golden", "blue", "royal", "little", "grand", "old", "happy", "lucky",
    "silver", "red", "green", "casa", "chez", "la", "el", "the original",
)

RESTAURANT_WORDS_B = (
    "dragon", "garden", "palace", "kitchen", "bistro", "grill", "tavern",
    "trattoria", "cantina", "brasserie", "diner", "steakhouse", "cafe",
    "noodle house", "pizzeria", "oyster bar", "bakery", "taqueria",
)

CUISINES = (
    "italian", "french", "chinese", "japanese", "mexican", "thai", "indian",
    "american", "mediterranean", "seafood", "steakhouse", "vegetarian",
    "bbq", "vietnamese", "korean", "greek", "spanish", "cajun",
)

# ---------------------------------------------------------------------------
# Bibliography
# ---------------------------------------------------------------------------

CS_TOPICS = (
    "entity matching", "query optimization", "data integration",
    "schema mapping", "record linkage", "stream processing",
    "transaction management", "index structures", "graph databases",
    "distributed systems", "machine learning", "deep learning",
    "information extraction", "data cleaning", "approximate joins",
    "similarity search", "crowdsourcing", "data provenance",
    "column stores", "main memory databases", "concurrency control",
    "spatial queries", "text analytics", "knowledge bases",
)

TITLE_PATTERNS = (
    "efficient {topic} for large scale data",
    "a survey of {topic}",
    "towards scalable {topic}",
    "{topic} in the cloud",
    "adaptive {topic} with learned models",
    "on the complexity of {topic}",
    "{topic} revisited",
    "benchmarking {topic} systems",
    "incremental {topic} over evolving data",
    "parallel {topic} on modern hardware",
    "a framework for {topic}",
    "optimizing {topic} using sampling",
)

VENUES_DBLP = (
    "sigmod conference", "vldb", "icde", "edbt", "kdd", "cikm", "www",
    "sigir", "pods", "icdt",
)

VENUES_SCHOLAR = (
    "proceedings of sigmod", "the vldb journal", "ieee icde",
    "extending database technology", "knowledge discovery and data mining",
    "information and knowledge management", "world wide web conference",
    "acm transactions on database systems", "vldb endowment",
    "data engineering bulletin",
)

# ---------------------------------------------------------------------------
# Beer
# ---------------------------------------------------------------------------

BEER_WORDS_A = (
    "hoppy", "dark", "golden", "imperial", "old", "wild", "double", "rustic",
    "smoked", "barrel aged", "hazy", "midnight", "winter", "summer",
    "belgian", "nitro",
)

BEER_WORDS_B = (
    "trail", "moon", "river", "fox", "bear", "raven", "anchor", "harvest",
    "sunset", "mountain", "valley", "island", "lighthouse", "forge",
    "meadow", "canyon",
)

BEER_STYLES = (
    "american ipa", "imperial stout", "pale ale", "pilsner", "porter",
    "saison", "witbier", "amber ale", "brown ale", "hefeweizen", "lager",
    "sour ale", "barleywine", "kolsch", "dubbel", "tripel",
)

BREWERY_SUFFIXES = (
    "brewing company", "brewery", "brewing co", "craft brewers",
    "beer works", "brewhouse", "ales", "brothers brewing",
)


_MODEL_LETTERS = "abcdefghjklmnprstuvwxz"
_N_MODEL_LETTERS = len(_MODEL_LETTERS)

#: The Walmart-Amazon brand pool, built once rather than per entity.
_WA_BRANDS = ELECTRONICS_BRANDS + GENERAL_BRANDS
_ELECTRONICS_BRAND_SET = frozenset(ELECTRONICS_BRANDS)

# A scalar ``integers()`` draw is an ``np.int64``, which indexes a tuple or
# a string and sizes a ``range`` as it is; only formatting converts it.


def _choice(rng: np.random.Generator, pool: Sequence[str]) -> str:
    return pool[rng.integers(len(pool))]


def _person_name(rng: np.random.Generator) -> str:
    return f"{_choice(rng, FIRST_NAMES)} {_choice(rng, LAST_NAMES)}"


def _model_number(rng: np.random.Generator) -> str:
    integers = rng.integers
    prefix = "".join(
        [_MODEL_LETTERS[integers(_N_MODEL_LETTERS)] for _ in range(integers(2, 5))]
    )
    return f"{prefix}{int(integers(100, 9999))}"


def _price(rng: np.random.Generator, low: float, high: float) -> str:
    return f"{rng.uniform(low, high):.2f}"


def _phone(rng: np.random.Generator) -> str:
    return (
        f"{int(rng.integers(200, 999))} "
        f"{int(rng.integers(200, 999))} "
        f"{int(rng.integers(1000, 9999))}"
    )


# ---------------------------------------------------------------------------
# Factories
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntityFactory:
    """A named world-entity generator for one benchmark domain.

    ``make`` draws a fresh world entity.  ``make_similar`` draws a *different*
    world entity that deliberately shares identity-free tokens with *seed
    entity* (same brand, same venue, overlapping title words): the raw
    material for hard negatives.
    """

    name: str
    attributes: tuple[str, ...]
    make: Callable[[np.random.Generator], Entity]
    make_similar: Callable[[np.random.Generator, Mapping[str, str]], Entity]


def _electronics_title(
    rng: np.random.Generator, brand: str, noun: str, model: str
) -> str:
    qualifier = _choice(rng, ELECTRONICS_QUALIFIERS)
    spec = _choice(rng, ELECTRONICS_SPECS)
    return f"{brand} {qualifier} {noun} {model} {spec}"


def _make_product_ag(rng: np.random.Generator) -> Entity:
    brand = _choice(rng, ELECTRONICS_BRANDS)
    noun = _choice(rng, ELECTRONICS_NOUNS)
    model = _model_number(rng)
    return {
        "title": _electronics_title(rng, brand, noun, model),
        "manufacturer": brand,
        "price": _price(rng, 9.99, 1499.99),
    }


def _similar_product_ag(rng: np.random.Generator, seed: Mapping[str, str]) -> Entity:
    entity = _make_product_ag(rng)
    # Same manufacturer, different model: only model/spec tokens separate
    # the two entities.
    brand = seed["manufacturer"]
    model = _model_number(rng)
    entity["manufacturer"] = brand
    entity["title"] = _electronics_title(
        rng, brand, _choice(rng, ELECTRONICS_NOUNS), model
    )
    return entity


def _make_product_wa(rng: np.random.Generator) -> Entity:
    brand = _choice(rng, _WA_BRANDS)
    if brand in _ELECTRONICS_BRAND_SET:
        noun = _choice(rng, ELECTRONICS_NOUNS)
    else:
        noun = _choice(rng, GENERAL_NOUNS)
    model = _model_number(rng)
    return {
        "title": f"{brand} {noun} {model} {_choice(rng, ELECTRONICS_SPECS)}",
        "category": _choice(rng, PRODUCT_CATEGORIES),
        "brand": brand,
        "modelno": model,
        "price": _price(rng, 4.99, 999.99),
    }


def _similar_product_wa(rng: np.random.Generator, seed: Mapping[str, str]) -> Entity:
    entity = _make_product_wa(rng)
    entity["brand"] = seed["brand"]
    entity["category"] = seed["category"]
    model = _model_number(rng)
    entity["modelno"] = model
    noun_tokens = seed["title"].split(" ")
    noun = " ".join(noun_tokens[1:-2]) if len(noun_tokens) > 3 else "storage box"
    entity["title"] = f"{seed['brand']} {noun} {model} {_choice(rng, ELECTRONICS_SPECS)}"
    return entity


def _make_textual_product(rng: np.random.Generator) -> Entity:
    brand = _choice(rng, ELECTRONICS_BRANDS)
    noun = _choice(rng, ELECTRONICS_NOUNS)
    model = _model_number(rng)
    qualifier = _choice(rng, ELECTRONICS_QUALIFIERS)
    spec_a = _choice(rng, ELECTRONICS_SPECS)
    spec_b = _choice(rng, ELECTRONICS_SPECS)
    description = (
        f"{brand} {qualifier} {noun} model {model} featuring {spec_a} and "
        f"{spec_b} with 1 year warranty"
    )
    return {
        "name": f"{brand} {noun} {model}",
        "description": description,
        "price": _price(rng, 19.99, 1299.99),
    }


def _similar_textual_product(
    rng: np.random.Generator, seed: Mapping[str, str]
) -> Entity:
    entity = _make_textual_product(rng)
    brand = seed["name"].split(" ")[0]
    model = _model_number(rng)
    noun = _choice(rng, ELECTRONICS_NOUNS)
    entity["name"] = f"{brand} {noun} {model}"
    entity["description"] = (
        f"{brand} {_choice(rng, ELECTRONICS_QUALIFIERS)} {noun} model {model} "
        f"featuring {_choice(rng, ELECTRONICS_SPECS)} and "
        f"{_choice(rng, ELECTRONICS_SPECS)} with 1 year warranty"
    )
    return entity


def _make_song(rng: np.random.Generator) -> Entity:
    title = f"{_choice(rng, SONG_WORDS_A)} {_choice(rng, SONG_WORDS_B)}"
    artist = _person_name(rng)
    album = f"{_choice(rng, SONG_WORDS_A)} {_choice(rng, SONG_WORDS_B)} {_choice(rng, ALBUM_WORDS)}"
    minutes = int(rng.integers(2, 6))
    seconds = int(rng.integers(0, 60))
    year = int(rng.integers(1990, 2021))
    return {
        "song_name": title,
        "artist_name": artist,
        "album_name": album,
        "genre": _choice(rng, MUSIC_GENRES),
        "price": _price(rng, 0.69, 1.99),
        "copyright": f"{year} {_choice(rng, COPYRIGHT_HOLDERS)}",
        "time": f"{minutes}:{seconds:02d}",
    }


def _similar_song(rng: np.random.Generator, seed: Mapping[str, str]) -> Entity:
    entity = _make_song(rng)
    # Same artist and album (a different track of the same album) — the
    # classic iTunes-Amazon hard negative.  Occasionally even the song name
    # repeats (a live / remix version on another album).
    entity["artist_name"] = seed["artist_name"]
    entity["genre"] = seed["genre"]
    entity["copyright"] = seed["copyright"]
    if rng.random() < 0.35:
        entity["song_name"] = seed["song_name"]
    else:
        entity["album_name"] = seed["album_name"]
    return entity


def _make_restaurant(rng: np.random.Generator) -> Entity:
    name = f"{_choice(rng, RESTAURANT_WORDS_A)} {_choice(rng, RESTAURANT_WORDS_B)}"
    street_no = int(rng.integers(1, 9999))
    addr = f"{street_no} {_choice(rng, STREET_NAMES)} {_choice(rng, STREET_KINDS)}"
    cuisine = _choice(rng, CUISINES)
    return {
        "name": name,
        "addr": addr,
        "city": _choice(rng, CITIES),
        "phone": _phone(rng),
        "type": cuisine,
        "class": str(int(rng.integers(0, 800))),
    }


def _similar_restaurant(rng: np.random.Generator, seed: Mapping[str, str]) -> Entity:
    entity = _make_restaurant(rng)
    entity["city"] = seed["city"]
    entity["type"] = seed["type"]
    # Same chain name in another location.
    if rng.random() < 0.5:
        entity["name"] = seed["name"]
    return entity


def _make_paper(
    rng: np.random.Generator, venues: Sequence[str]
) -> Entity:
    topic = _choice(rng, CS_TOPICS)
    pattern = _choice(rng, TITLE_PATTERNS)
    n_authors = int(rng.integers(1, 4))
    authors = ", ".join(_person_name(rng) for _ in range(n_authors))
    return {
        "title": pattern.format(topic=topic),
        "authors": authors,
        "venue": _choice(rng, venues),
        "year": str(int(rng.integers(1995, 2021))),
    }


def _make_paper_dblp_acm(rng: np.random.Generator) -> Entity:
    return _make_paper(rng, VENUES_DBLP)


def _make_paper_dblp_scholar(rng: np.random.Generator) -> Entity:
    return _make_paper(rng, VENUES_DBLP + VENUES_SCHOLAR)


def _similar_paper(rng: np.random.Generator, seed: Mapping[str, str]) -> Entity:
    entity = _make_paper(rng, (seed["venue"],))
    # Same venue + year + overlapping topic words: follow-up paper by a
    # different group.
    entity["year"] = seed["year"]
    topic_words = seed["title"].split(" ")
    if len(topic_words) >= 2 and rng.random() < 0.7:
        pattern = _choice(rng, TITLE_PATTERNS)
        entity["title"] = pattern.format(topic=" ".join(topic_words[-2:]))
    if rng.random() < 0.3:
        # A shared co-author: bibliographic hard negatives often overlap in
        # author lists, not only in topic words.
        shared = seed["authors"].split(", ")[0]
        entity["authors"] = f"{entity['authors']}, {shared}"
    return entity


def _make_beer(rng: np.random.Generator) -> Entity:
    beer = f"{_choice(rng, BEER_WORDS_A)} {_choice(rng, BEER_WORDS_B)}"
    brewery = f"{_choice(rng, BEER_WORDS_B)} {_choice(rng, BREWERY_SUFFIXES)}"
    abv = float(rng.uniform(3.5, 12.5))
    return {
        "beer_name": beer,
        "brew_factory_name": brewery,
        "style": _choice(rng, BEER_STYLES),
        "abv": f"{abv:.1f}",
    }


def _similar_beer(rng: np.random.Generator, seed: Mapping[str, str]) -> Entity:
    entity = _make_beer(rng)
    # Another beer by the same brewery, often the same style.
    entity["brew_factory_name"] = seed["brew_factory_name"]
    if rng.random() < 0.6:
        entity["style"] = seed["style"]
    return entity


BEER_FACTORY = EntityFactory(
    name="beer",
    attributes=("beer_name", "brew_factory_name", "style", "abv"),
    make=_make_beer,
    make_similar=_similar_beer,
)

MUSIC_FACTORY = EntityFactory(
    name="music",
    attributes=(
        "song_name", "artist_name", "album_name", "genre", "price",
        "copyright", "time",
    ),
    make=_make_song,
    make_similar=_similar_song,
)

RESTAURANT_FACTORY = EntityFactory(
    name="restaurant",
    attributes=("name", "addr", "city", "phone", "type", "class"),
    make=_make_restaurant,
    make_similar=_similar_restaurant,
)

DBLP_ACM_FACTORY = EntityFactory(
    name="bibliography-acm",
    attributes=("title", "authors", "venue", "year"),
    make=_make_paper_dblp_acm,
    make_similar=_similar_paper,
)

DBLP_SCHOLAR_FACTORY = EntityFactory(
    name="bibliography-scholar",
    attributes=("title", "authors", "venue", "year"),
    make=_make_paper_dblp_scholar,
    make_similar=_similar_paper,
)

AMAZON_GOOGLE_FACTORY = EntityFactory(
    name="product-amazon-google",
    attributes=("title", "manufacturer", "price"),
    make=_make_product_ag,
    make_similar=_similar_product_ag,
)

WALMART_AMAZON_FACTORY = EntityFactory(
    name="product-walmart-amazon",
    attributes=("title", "category", "brand", "modelno", "price"),
    make=_make_product_wa,
    make_similar=_similar_product_wa,
)

ABT_BUY_FACTORY = EntityFactory(
    name="textual-abt-buy",
    attributes=("name", "description", "price"),
    make=_make_textual_product,
    make_similar=_similar_textual_product,
)

ALL_FACTORIES: tuple[EntityFactory, ...] = (
    BEER_FACTORY,
    MUSIC_FACTORY,
    RESTAURANT_FACTORY,
    DBLP_ACM_FACTORY,
    DBLP_SCHOLAR_FACTORY,
    AMAZON_GOOGLE_FACTORY,
    WALMART_AMAZON_FACTORY,
    ABT_BUY_FACTORY,
)
