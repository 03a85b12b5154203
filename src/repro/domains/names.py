"""Deterministic domain-name generators for the ecosystem simulator.

Three name populations matter to the paper's analysis:

* *storefront* names registered by affiliates/spammers (pronounceable
  pharma/replica/software-flavored names, constantly re-registered as
  blacklisting burns them),
* *benign* names (the Alexa/ODP world plus ordinary mail traffic), and
* *DGA* names: random, unregistered gibberish such as the domains the
  Rustock botnet emitted for several weeks during the measurement period
  (Section 4.1.1), which drag down the DNS/HTTP purity of the ``Bot`` and
  ``mx2`` feeds.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from functools import lru_cache
from typing import (
    Callable,
    Iterable,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
)

_VOWELS = "aeiou"
_CONSONANTS = "bcdfghjklmnpqrstvwxyz"

#: Word stock for storefront names, by goods category.
PHARMA_WORDS: Sequence[str] = (
    "pill", "rx", "med", "pharma", "drug", "tab", "care", "health",
    "cure", "dose", "remedy", "script", "canadian", "discount", "generic",
    "viag", "cial", "herbal", "vital", "swift",
)
REPLICA_WORDS: Sequence[str] = (
    "replica", "watch", "lux", "brand", "time", "swiss", "gold", "elite",
    "classic", "royal", "premier", "style", "chrono", "exact", "mirror",
)
SOFTWARE_WORDS: Sequence[str] = (
    "soft", "oem", "cheap", "key", "licen", "download", "digital", "app",
    "program", "office", "studio", "suite", "instant", "direct",
)
BENIGN_WORDS: Sequence[str] = (
    "news", "blog", "shop", "home", "tech", "world", "daily", "cloud",
    "media", "forum", "photo", "travel", "sport", "music", "game", "mail",
    "data", "web", "net", "info", "city", "book", "food", "auto", "bank",
    "school", "art", "film", "green", "star", "river", "stone", "field",
)
GENERIC_SUFFIX_WORDS: Sequence[str] = (
    "online", "store", "shop", "site", "market", "zone", "hub", "now",
    "direct", "place", "point", "center", "plus", "pro", "world",
)

#: TLD mixes (weights need not sum to 1).
TldWeights = Sequence[Tuple[str, float]]

SPAM_TLD_WEIGHTS: TldWeights = (
    ("com", 0.55), ("net", 0.15), ("org", 0.08), ("info", 0.08),
    ("biz", 0.06), ("ru", 0.05), ("us", 0.03),
)
BENIGN_TLD_WEIGHTS: TldWeights = (
    ("com", 0.60), ("org", 0.12), ("net", 0.10), ("edu", 0.04),
    ("gov", 0.02), ("de", 0.04), ("co.uk", 0.04), ("info", 0.02),
    ("us", 0.02),
)
DGA_TLD_WEIGHTS: TldWeights = (("com", 0.7), ("net", 0.2), ("info", 0.1),)


@lru_cache(maxsize=None)
def _tld_cumulative(
    weights: Tuple[Tuple[str, float], ...],
) -> Tuple[Tuple[str, ...], Tuple[float, ...]]:
    """Precomputed prefix sums for a TLD weight table (hot path)."""
    tlds: List[str] = []
    cumulative: List[float] = []
    acc = 0.0
    for tld, w in weights:
        acc += w
        tlds.append(tld)
        cumulative.append(acc)
    return tuple(tlds), tuple(cumulative)


def _pick_tld(rng: random.Random, weights: TldWeights) -> str:
    # Exactly one rng.random() draw, like the original linear scan, so
    # the derived name streams are byte-identical.
    tlds, cumulative = _tld_cumulative(tuple(weights))
    x = rng.random() * cumulative[-1]
    index = bisect_left(cumulative, x)
    if index >= len(tlds):
        return tlds[-1]
    return tlds[index]


def _syllable(rng: random.Random) -> str:
    return rng.choice(_CONSONANTS) + rng.choice(_VOWELS)


#: Number of distinct consonant-vowel syllables :func:`salt_token` can
#: emit per position (the base of its integer encoding).
SALT_BASE = len(_CONSONANTS) * len(_VOWELS)


def salt_token(index: int) -> str:
    """Encode *index* as a pronounceable consonant-vowel syllable string.

    The mapping is injective: distinct indices yield distinct tokens, so
    two generators salted with different indices can never issue the
    same name (see :class:`SpamNameGenerator`).  Tokens contain only
    letters -- never digits or hyphens -- which is what makes the salted
    label grammar unambiguous.
    """
    if index < 0:
        raise ValueError("salt index must be non-negative")
    syllables: List[str] = []
    while True:
        index, digit = divmod(index, SALT_BASE)
        consonant, vowel = divmod(digit, len(_VOWELS))
        syllables.append(_CONSONANTS[consonant] + _VOWELS[vowel])
        if index == 0:
            break
    return "".join(reversed(syllables))


class _BaseNameGenerator:
    """Shared machinery: collision-free issuance from a seeded RNG.

    Generators can share one *issued* set so that several generators
    (e.g. per-category storefront namers plus a web-spam namer) never
    collide with each other -- an accidental collision would silently
    merge two unrelated campaigns' ground truth.
    """

    def __init__(
        self, rng: random.Random, issued: Optional[Set[str]] = None
    ) -> None:
        self._rng = rng
        self._issued: Set[str] = issued if issued is not None else set()

    def _issue(self, make_candidate: Callable[[], str]) -> str:
        """Draw candidates until one is new; suffix a counter if needed."""
        for _ in range(64):
            name = make_candidate()
            if name not in self._issued:
                self._issued.add(name)
                return name
        # Extremely unlikely fallback: disambiguate deterministically.
        base = make_candidate()
        counter = 2
        while f"{counter}-{base}" in self._issued:
            counter += 1
        name = f"{counter}-{base}"
        self._issued.add(name)
        return name

    @property
    def issued_count(self) -> int:
        """How many distinct names this generator has produced."""
        return len(self._issued)

    def issued(self) -> Set[str]:
        """A copy of the set of names issued so far."""
        return set(self._issued)


class SpamNameGenerator(_BaseNameGenerator):
    """Generate storefront domain names for a goods category.

    Names look like real spam-advertised storefronts: one or two stock
    words, optional glue syllables and digits, a spam-skewed TLD mix.

    A non-empty *salt* partitions the name space: the salt is embedded
    in every label behind a hyphen (word stock and glue contain none),
    followed only by optional digits, so labels from generators with
    different salts can never be equal.  The world build salts every
    campaign's generator with its campaign id, which is what makes
    unit-local name issuance globally collision-free without any
    shared issued-name set.  Salted and unsalted generators consume
    identical RNG draw sequences.
    """

    _CATEGORY_WORDS: Mapping[str, Sequence[str]] = {
        "pharma": PHARMA_WORDS,
        "replica": REPLICA_WORDS,
        "software": SOFTWARE_WORDS,
    }

    def __init__(
        self,
        rng: random.Random,
        category: str = "pharma",
        issued: Optional[Set[str]] = None,
        salt: str = "",
    ) -> None:
        super().__init__(rng, issued)
        if category not in self._CATEGORY_WORDS:
            raise ValueError(f"unknown goods category {category!r}")
        if salt and not salt.isalpha():
            raise ValueError("salt must be letters only")
        self.category = category
        self.salt = salt
        self._words = self._CATEGORY_WORDS[category]

    def generate(self) -> str:
        """Return a fresh registered-domain name."""
        rng = self._rng

        def candidate() -> str:
            parts: List[str] = [rng.choice(self._words)]
            roll = rng.random()
            if roll < 0.45:
                parts.append(rng.choice(GENERIC_SUFFIX_WORDS))
            elif roll < 0.70:
                parts.append(_syllable(rng) + _syllable(rng))
            if self.salt:
                parts.append("-" + self.salt)
            if rng.random() < 0.35:
                parts.append(str(rng.randrange(1, 1000)))
            label = "".join(parts)
            return f"{label}.{_pick_tld(rng, SPAM_TLD_WEIGHTS)}"

        return self._issue(candidate)

    def generate_batch(self, n: int) -> List[str]:
        """Return *n* fresh names."""
        return [self.generate() for _ in range(n)]


class BenignNameGenerator(_BaseNameGenerator):
    """Generate benign web-site names (the Alexa/ODP world)."""

    def generate(self) -> str:
        """Return a fresh benign registered-domain name."""
        rng = self._rng

        def candidate() -> str:
            first = rng.choice(BENIGN_WORDS)
            second = rng.choice(BENIGN_WORDS)
            if rng.random() < 0.3:
                label = first + second
            else:
                label = first + rng.choice(GENERIC_SUFFIX_WORDS)
            if rng.random() < 0.10:
                label += str(rng.randrange(1, 100))
            return f"{label}.{_pick_tld(rng, BENIGN_TLD_WEIGHTS)}"

        return self._issue(candidate)

    def generate_batch(self, n: int) -> List[str]:
        """Return *n* fresh names."""
        return [self.generate() for _ in range(n)]


class DgaNameGenerator(_BaseNameGenerator):
    """Generate Rustock-style random pseudo-URL domain names.

    These names cost the spammer nearly nothing and are never registered;
    they exist to poison blacklists and waste analyst time.
    """

    def __init__(
        self,
        rng: random.Random,
        min_len: int = 9,
        max_len: int = 16,
        issued: Optional[Set[str]] = None,
    ) -> None:
        super().__init__(rng, issued)
        if not (3 <= min_len <= max_len):
            raise ValueError("need 3 <= min_len <= max_len")
        self.min_len = min_len
        self.max_len = max_len

    def generate(self) -> str:
        """Return a fresh random gibberish domain name."""
        rng = self._rng

        def candidate() -> str:
            length = rng.randrange(self.min_len, self.max_len + 1)
            label = "".join(
                rng.choice(_CONSONANTS if rng.random() < 0.78 else _VOWELS)
                for _ in range(length)
            )
            return f"{label}.{_pick_tld(rng, DGA_TLD_WEIGHTS)}"

        return self._issue(candidate)

    def generate_batch(self, n: int) -> List[str]:
        """Return *n* fresh names."""
        return [self.generate() for _ in range(n)]


def is_plausible_dga(domain: str) -> bool:
    """Cheap lexical heuristic for DGA-looking registrant labels.

    Flags labels that are long, digit-free and heavily consonantal.  Used
    by tests and by the impurity-inspection example; the analysis itself
    never relies on it (the paper uses DNS registration instead).
    """
    label = domain.split(".")[0]
    if len(label) < 9 or any(ch.isdigit() for ch in label):
        return False
    vowels = sum(1 for ch in label if ch in _VOWELS)
    return vowels / len(label) < 0.30


class NameGenerator(Protocol):
    """Structural type for anything with a ``generate() -> str`` method."""

    def generate(self) -> str: ...


def unique_names(generator: NameGenerator, n: int) -> List[str]:
    """Convenience: pull *n* names from any generator with ``generate``."""
    return [generator.generate() for _ in range(n)]


def merge_disjoint(*name_sets: Iterable[str]) -> Set[str]:
    """Union name collections, raising if any overlap.

    The simulator's name populations (spam, benign, DGA) must be disjoint
    for ground truth to be meaningful; this guards world construction.
    """
    merged: Set[str] = set()
    for names in name_sets:
        for name in names:
            if name in merged:
                raise ValueError(f"name populations overlap on {name!r}")
            merged.add(name)
    return merged
