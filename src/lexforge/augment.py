"""Knowledge-driven positive augmentation.

For a query whose source case has extracted elements, find a *different*
case with the identical main-article set whose ancillary articles and
prison term are as close as possible, and use it as the positive instead of
the source. Pairs are then mixed so a configured fraction of the dataset
uses augmented positives.

The positive is found per element signature, the ancillary articles and
prison term that are all the similarity reads: each candidate set is grouped
by signature once, and a search scores each group once per source signature
from one Jaccard per distinct ancillary set and one term similarity per
distinct term of the set. The case found is the one an exhaustive scan of
the candidates picks, with ties broken to the smallest case id.

The similarity of a source ``a`` and a candidate ``b`` is
``(wa * jaccard(a.ancillary, b.ancillary) + wt * term_similarity(a.term,
b.term)) / (wa + wt)``, evaluated in that order, so every score is the
float a per-pair evaluation gives.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add

from .config import AugmentConfig
from .corpus import MONTH_BEARING, LegalElements, PrisonTerm, TermKind
from .errors import MissingElements, NoMatch

#: Months of term difference over which similarity decays by 1/e.
TERM_DECAY_MONTHS = 24.0

#: Similarity credit for the death/life pair, the only cross-kind affinity.
LIFE_DEATH_SIMILARITY = 0.25


@dataclass(frozen=True)
class IndexEntry:
    case_id: str
    elements: LegalElements


class ElementIndex:
    """Cases bucketed by their canonical main-article set.

    Bucket keys are sorted tuples of article ids, so set order never
    matters. A charge-name side index backs the relaxed match mode. Each
    case is indexed once, in case-id order, when the index is built.

    The index also holds the memo behind :func:`find_augmented_positive`:
    each candidate set grouped by signature, with its distinct
    ancillary-article sets and terms kept once each, and the leading
    candidates per (candidate set, source signature, config).
    ``signatures`` counts the groups made and ``scores`` the group scores
    computed.
    """

    def __init__(self, corpus: Mapping[str, LegalElements]):
        self._buckets: dict[tuple[str, ...], list[IndexEntry]] = {}
        self._by_charge: dict[str, list[IndexEntry]] = {}
        for case_id, elements in sorted(corpus.items()):
            entry = IndexEntry(case_id, elements)
            self._buckets.setdefault(self.key_for(elements.main_articles), []).append(entry)
            for charge in elements.charges:
                self._by_charge.setdefault(charge, []).append(entry)
        self._groups: dict[tuple, _SignatureGroups] = {}
        self._leaders: dict[tuple, list[str]] = {}
        self.signatures = 0
        self.scores = 0

    @staticmethod
    def key_for(main_articles: Iterable[str]) -> tuple[str, ...]:
        return tuple(sorted(main_articles))

    def bucket(self, main_articles: Iterable[str]) -> list[IndexEntry]:
        return self._buckets.get(self.key_for(main_articles), [])

    def charge_bucket(self, charge: str) -> list[IndexEntry]:
        return self._by_charge.get(charge, [])

    def leaders(self, source: LegalElements, cfg: AugmentConfig) -> list[str]:
        """The (at most) two candidates for ``source`` that come first by
        (-score, case id).

        The candidates are the source's main-article bucket or, under
        ``shared_charge``, the union of its charge buckets. Only a group's
        two smallest case ids can come first, so a group keeps no others.
        A group's score sums the weighted Jaccard of its ancillary set and
        the weighted similarity of its term, each computed once per distinct
        value, and divides by the weight sum: the per-pair arithmetic.
        The first two are the smallest ids of the highest score, then, if
        that level holds one id, the smallest id of the next.
        """
        names = source.charges if cfg.match_mode == "shared_charge" else source.main_articles
        set_key = (cfg.match_mode, self.key_for(names))
        key = (set_key, _signature(source), cfg)
        if key not in self._leaders:
            if set_key not in self._groups:
                self._groups[set_key] = self._signature_groups(*set_key)
            groups = self._groups[set_key]
            self.scores += len(groups.ids)
            wa, wt = cfg.weight_ancillary, cfg.weight_term
            jw = [wa * _jaccard(source.ancillary_articles, a) for a in groups.ancillary]
            tw = [wt * term_similarity(source.prison_term, t) for t in groups.terms]
            total = wa + wt
            scores = list(map(total.__rtruediv__,
                              map(add, map(jw.__getitem__, groups.ancillary_of),
                                  map(tw.__getitem__, groups.term_of))))
            first: list[str] = []
            if scores:
                top = max(scores)
                first = _level_ids(scores, top, groups.ids)[:2]
                if len(first) < 2 and len(scores) > 1:
                    # the top level is one group of one id; scores are >= 0,
                    # so the next level is the maximum once that group is out
                    scores[scores.index(top)] = -1.0
                    first += _level_ids(scores, max(scores), groups.ids)[:1]
            self._leaders[key] = first
        return self._leaders[key]

    def _signature_groups(self, match_mode: str, names: tuple[str, ...]) -> _SignatureGroups:
        """The distinct ancillary sets and terms of a candidate set, and per
        signature their positions and its two smallest case ids."""
        if match_mode == "shared_charge":
            entries = [e for charge in names for e in self.charge_bucket(charge)]
        else:
            entries = self.bucket(names)
        members: dict[tuple, set[str]] = {}
        for entry in entries:
            members.setdefault(_signature(entry.elements), set()).add(entry.case_id)
        self.signatures += len(members)
        ancillary: dict[frozenset, int] = {}
        terms: dict[PrisonTerm, int] = {}
        ancillary_of = [ancillary.setdefault(articles, len(ancillary)) for articles, _ in members]
        term_of = [terms.setdefault(term, len(terms)) for _, term in members]
        return _SignatureGroups(list(ancillary), list(terms), ancillary_of, term_of,
                                [sorted(ids)[:2] for ids in members.values()])


@dataclass(frozen=True)
class _SignatureGroups:
    """A candidate set's distinct ancillary-article sets and terms, and per
    signature group the position of its set and term and its two smallest
    case ids."""

    ancillary: list[frozenset]
    terms: list[PrisonTerm]
    ancillary_of: list[int]
    term_of: list[int]
    ids: list[list[str]]


def _level_ids(scores: list[float], level: float, ids: list[list[str]]) -> list[str]:
    """The sorted case ids of the groups whose score is ``level``."""
    found: list[str] = []
    at = -1
    for _ in range(scores.count(level)):
        at = scores.index(level, at + 1)
        found += ids[at]
    return sorted(found)


def build_element_index(corpus: Mapping[str, LegalElements]) -> ElementIndex:
    """Index every case exactly once, in case-id order for determinism."""
    return ElementIndex(corpus)


def term_similarity(a: PrisonTerm, b: PrisonTerm) -> float:
    """Similarity of two decided terms in [0, 1].

    Same kind scores 1, decayed by ``exp(-|Δmonths| / 24)`` for the
    month-bearing kinds. Different kinds score 0, except death and life
    imprisonment which keep a small affinity.
    """
    if a.kind == b.kind:
        if a.kind in MONTH_BEARING:
            return math.exp(-abs(a.months - b.months) / TERM_DECAY_MONTHS)
        return 1.0
    if {a.kind, b.kind} == {TermKind.DEATH, TermKind.LIFE}:
        return LIFE_DEATH_SIMILARITY
    return 0.0


def _jaccard(a: frozenset, b: frozenset) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def _signature(elements: LegalElements) -> tuple:
    """What the similarity reads of a case."""
    return elements.ancillary_articles, elements.prison_term


def find_augmented_positive(source_case_id: str, source: LegalElements,
                            index: ElementIndex,
                            cfg: AugmentConfig = AugmentConfig()) -> str:
    """Most element-similar distinct case sharing the source's main articles.

    Ties break to the lexicographically smallest case id. The source is a
    candidate at most once, so the first of the index's two leaders that is
    not the source is the case an exhaustive scan picks. Raises
    :class:`NoMatch` when the source is alone in its bucket.
    """
    for case_id in index.leaders(source, cfg):
        if case_id != source_case_id:
            return case_id
    raise NoMatch(f"no distinct case shares main articles with {source_case_id!r}")


PAIR_ORIGINAL = "original"
PAIR_AUGMENTED = "augmented"


@dataclass(frozen=True)
class TrainingPair:
    query_id: str
    positive_case_id: str
    kind: str
    positive_charges: frozenset[str]
    fallback: bool = False

    def to_record(self) -> dict:
        return {
            "query_id": self.query_id,
            "positive_case_id": self.positive_case_id,
            "kind": self.kind,
            "positive_charges": sorted(self.positive_charges),
            "fallback": self.fallback,
        }


@dataclass
class MixResult:
    pairs: list[TrainingPair]
    fallbacks: list[str] = field(default_factory=list)

    @property
    def augmented_count(self) -> int:
        return sum(1 for p in self.pairs if p.kind == PAIR_AUGMENTED)


def mix_pairs(queries: Sequence, corpus: Mapping[str, LegalElements],
              index: ElementIndex, cfg: AugmentConfig = AugmentConfig(),
              ) -> MixResult:
    """Pair every query with a positive, augmenting a seed-chosen ⌊p·N⌋ subset.

    ``queries`` are objects with ``query_id`` and ``source_case_id`` (query
    records work as-is). Queries picked for augmentation whose bucket holds
    only their source fall back to the original pair and are flagged. Output
    length always equals the query count and is a pure function of
    (queries, corpus, seed).
    """
    n = len(queries)
    # the floor of the decimal the proportion was written as: 0.7 * 90 is 63,
    # where the float product is 62.99999999999999
    target = math.floor(Fraction(repr(cfg.proportion_augmented)) * n)
    rng = random.Random(cfg.seed)
    chosen = set(rng.sample(range(n), target)) if target else set()

    pairs: list[TrainingPair] = []
    fallbacks: list[str] = []
    for i, query in enumerate(queries):
        source_id = query.source_case_id
        if source_id not in corpus:
            raise MissingElements(f"query {query.query_id!r}: source case "
                                  f"{source_id!r} has no extracted elements")
        source = corpus[source_id]
        fell_back = False
        if i in chosen:
            try:
                positive_id = find_augmented_positive(source_id, source, index, cfg)
                pairs.append(TrainingPair(
                    query_id=query.query_id,
                    positive_case_id=positive_id,
                    kind=PAIR_AUGMENTED,
                    positive_charges=corpus[positive_id].charges))
                continue
            except NoMatch:
                fell_back = True
                fallbacks.append(query.query_id)
        pairs.append(TrainingPair(
            query_id=query.query_id,
            positive_case_id=source_id,
            kind=PAIR_ORIGINAL,
            positive_charges=source.charges,
            fallback=fell_back))
    return MixResult(pairs=pairs, fallbacks=fallbacks)
