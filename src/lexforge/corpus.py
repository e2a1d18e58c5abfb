"""Case ingestion, legal-element extraction, and corpus filtering.

Raw corpora arrive as line-delimited records, one judgment per line, with
fields ``case_id``/``id``, ``doc_kind``/``kind``, ``fact``, ``reason``,
``judgment`` and an optional structured ``charges`` list. Parsing turns a
record into a :class:`CaseDocument`; extraction pulls charges, statute
articles and the decided prison term out of the section texts with pattern
rules; filtering drops records that cannot back query synthesis (rulings,
short facts, extraction failures) and tags every exclusion with a reason
code so the corpus funnel can be audited.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from enum import Enum

from .config import CorpusFilterConfig
from .errors import ExtractionFailed, MalformedRecord, MissingField
from .zhnum import NUMERAL_CHARS, int_to_numeral, numeral_to_int


class DocKind(str, Enum):
    JUDGMENT = "judgment"
    RULING = "ruling"


class TermKind(str, Enum):
    DEATH = "death"
    LIFE = "life"
    FIXED_TERM = "fixed_term"
    DETENTION = "detention"
    CONTROL = "control"
    FINE_ONLY = "fine_only"
    EXEMPT = "exempt"


#: Kinds whose ``months`` field carries information.
MONTH_BEARING = frozenset({TermKind.FIXED_TERM, TermKind.DETENTION, TermKind.CONTROL})


@dataclass(frozen=True)
class PrisonTerm:
    """Structured judgment outcome: a kind plus a month count where it applies."""

    kind: TermKind
    months: int = 0

    def __post_init__(self):
        if self.months < 0:
            raise ValueError(f"negative months: {self.months}")
        if self.kind is TermKind.FIXED_TERM and self.months < 1:
            raise ValueError("fixed_term requires months >= 1")
        if self.kind not in MONTH_BEARING and self.months != 0:
            raise ValueError(f"{self.kind.value} carries no month count")

    @classmethod
    def from_record(cls, value) -> "PrisonTerm":
        """Build from the elements file's ``{'kind': ..., 'months': ...}``."""
        if not isinstance(value, Mapping):
            raise MalformedRecord(f"term must be a mapping, not {type(value).__name__}")
        try:
            return cls(kind=TermKind(value["kind"]), months=int(value.get("months", 0)))
        except ValueError as exc:
            raise MalformedRecord(f"term {dict(value)!r}: {exc}") from exc

    def to_record(self) -> dict:
        return {"kind": self.kind.value, "months": self.months}


@dataclass
class CaseDocument:
    """One structured judgment with its verbatim section texts."""

    case_id: str
    doc_kind: DocKind = DocKind.JUDGMENT
    fact: str = ""
    reason: str = ""
    judgment: str = ""
    charge_labels: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class LegalElements:
    """Charges, partitioned statute articles and the prison term of one case."""

    charges: frozenset[str]
    main_articles: frozenset[str]
    ancillary_articles: frozenset[str]
    prison_term: PrisonTerm

    def __post_init__(self):
        overlap = self.main_articles & self.ancillary_articles
        if overlap:
            raise ValueError(f"articles classified both ways: {sorted(overlap)}")


# --------------------------------------------------------------------------
# Article ids and the main/ancillary split
# --------------------------------------------------------------------------

#: Last article of the General Provisions of the Chinese Criminal Law.
GENERAL_PROVISIONS_MAX = 101

MAIN = "main"
ANCILLARY = "ancillary"

_ARTICLE_ID_RE = re.compile(r"^([1-9][0-9]*)(?:-([1-9][0-9]*))?$")


def canonical_article_id(value: int | str) -> str:
    """Normalize an article id to '<number>' or '<number>-<sub>' form."""
    if isinstance(value, int):
        if value < 1:
            raise ValueError(f"article number must be positive: {value}")
        return str(value)
    text = str(value).strip()
    if not _ARTICLE_ID_RE.match(text):
        raise ValueError(f"bad article id: {value!r}")
    return text


def article_base(article_id: str) -> int:
    """Statute number of an article id, ignoring any sub-article suffix."""
    return int(canonical_article_id(article_id).split("-", 1)[0])


def classify_article(article_id: int | str) -> str:
    """Classify one article id as 'main' or 'ancillary'.

    Articles of the General Provisions (1..GENERAL_PROVISIONS_MAX) shape
    sentencing and are ancillary; every article above defines a charge and
    is main.
    """
    return ANCILLARY if article_base(article_id) <= GENERAL_PROVISIONS_MAX else MAIN


# --------------------------------------------------------------------------
# Record parsing
# --------------------------------------------------------------------------

_KIND_ALIASES = {k.value: k for k in DocKind}


def normalize_charge(name: str) -> str:
    """Trim and collapse internal whitespace; charges stay free strings."""
    return re.sub(r"\s+", " ", name.strip())


def parse_case(raw_record: Mapping) -> CaseDocument:
    """Parse one keyed record into a CaseDocument.

    ``id``/``kind`` are accepted as aliases for ``case_id``/``doc_kind``;
    missing reason/judgment sections become empty text. Extra keys (e.g.
    structured ``articles``/``term`` annotations) are tolerated.
    """
    if not isinstance(raw_record, Mapping):
        raise MalformedRecord(f"record is not a mapping: {type(raw_record).__name__}")

    def pick(*names):
        for name in names:
            if name in raw_record and raw_record[name] is not None:
                return raw_record[name]
        return None

    case_id = pick("case_id", "id")
    if case_id is None or str(case_id) == "":
        raise MissingField("case_id")
    case_id = str(case_id)

    fact = pick("fact")
    if fact is None:
        raise MissingField("fact", case_id)

    kind_raw = pick("doc_kind", "kind")
    kind_raw = "judgment" if kind_raw is None else str(kind_raw)
    try:
        doc_kind = _KIND_ALIASES[kind_raw]
    except KeyError:
        raise MalformedRecord(f"record {case_id!r}: unknown doc kind {kind_raw!r}") from None

    sections = {}
    for name, value in (("fact", fact), ("reason", pick("reason")), ("judgment", pick("judgment"))):
        if value is None:
            value = ""
        if not isinstance(value, str):
            raise MalformedRecord(f"record {case_id!r}: field {name!r} is not text")
        sections[name] = value

    charges_raw = pick("charges")
    charge_labels: list[str] = []
    if charges_raw is not None:
        if not isinstance(charges_raw, (list, tuple)):
            raise MalformedRecord(f"record {case_id!r}: charges must be a list")
        charge_labels = [normalize_charge(str(c)) for c in charges_raw]

    return CaseDocument(
        case_id=case_id,
        doc_kind=doc_kind,
        fact=sections["fact"],
        reason=sections["reason"],
        judgment=sections["judgment"],
        charge_labels=charge_labels,
    )


def case_to_record(doc: CaseDocument) -> dict:
    record = {
        "case_id": doc.case_id,
        "doc_kind": doc.doc_kind.value,
        "fact": doc.fact,
        "reason": doc.reason,
        "judgment": doc.judgment,
    }
    if doc.charge_labels:
        record["charges"] = list(doc.charge_labels)
    return record


def case_text(doc: CaseDocument) -> str:
    """Candidate text used for training, indexing and scoring: all three
    sections."""
    return "\n".join(part for part in (doc.fact, doc.reason, doc.judgment) if part)


def elements_to_record(case_id: str, elements: LegalElements) -> dict:
    return {
        "case_id": case_id,
        "charges": sorted(elements.charges),
        "main_articles": sorted(elements.main_articles),
        "ancillary_articles": sorted(elements.ancillary_articles),
        "term": elements.prison_term.to_record(),
    }


def elements_from_record(record: Mapping) -> tuple[str, LegalElements]:
    elements = LegalElements(
        charges=frozenset(normalize_charge(c) for c in record["charges"]),
        main_articles=frozenset(canonical_article_id(a) for a in record["main_articles"]),
        ancillary_articles=frozenset(canonical_article_id(a) for a in record["ancillary_articles"]),
        prison_term=PrisonTerm.from_record(record["term"]),
    )
    return str(record["case_id"]), elements


# --------------------------------------------------------------------------
# Pattern extraction
# --------------------------------------------------------------------------

_NUM = f"0-9{NUMERAL_CHARS}"

# 犯 introduces one charge or a 、-joined list; 犯罪 alone is generic prose
_CHARGE_RE = re.compile(
    r"犯(?!罪)((?:[一-龥]{1,13}?罪)(?:、[一-龥]{1,13}?罪)*)")
_ARTICLE_RE = re.compile(rf"第([{_NUM}]+?)条(?:之([一二三四五六七八九]))?")
_CRIMINAL_LAW = "《中华人民共和国刑法》"

_DURATION = rf"(?:([{_NUM}]+?)年)?(?:零?([{_NUM}]+?)个月)?"
_FIXED_RE = re.compile(rf"有期徒刑{_DURATION}")
_DETENTION_RE = re.compile(rf"拘役{_DURATION}")
_CONTROL_RE = re.compile(rf"管制{_DURATION}")
_DECIDED_RE = re.compile(r"决定执行")
_DEATH_RE = re.compile(r"死刑(?!，?缓期)")
_LIFE_RE = re.compile(r"无期徒刑")
_EXEMPT_RE = re.compile(r"免[予于]刑事处罚")
_FINE_ONLY_RE = re.compile(r"单处罚金")
_FINE_RE = re.compile(r"罚金")


def extract_charges(judgment_text: str) -> list[str]:
    """All charge names of the form 犯X罪(、Y罪…) in sentencing text, deduplicated."""
    seen: list[str] = []
    for match in _CHARGE_RE.finditer(judgment_text):
        for part in match.group(1).split("、"):
            charge = normalize_charge(part)
            if charge and charge not in seen:
                seen.append(charge)
    return seen


def _citation_regions(reason_text: str) -> list[str]:
    """Citation clauses following the criminal-law marker, or the whole text.

    Keeps article scanning away from references to other statutes when the
    text carries explicit citation markers; loosely formatted input without
    any marker is scanned whole.
    """
    if _CRIMINAL_LAW not in reason_text:
        return [reason_text]
    regions = []
    start = 0
    while True:
        pos = reason_text.find(_CRIMINAL_LAW, start)
        if pos < 0:
            break
        begin = pos + len(_CRIMINAL_LAW)
        end = len(reason_text)
        for stop in ("。", "《"):
            cut = reason_text.find(stop, begin)
            if cut >= 0:
                end = min(end, cut)
        regions.append(reason_text[begin:end])
        start = begin
    return regions


def extract_article_ids(reason_text: str) -> list[str]:
    """Cited article ids (with 之N sub-article suffixes) in citation order."""
    ids: list[str] = []
    for region in _citation_regions(reason_text):
        for match in _ARTICLE_RE.finditer(region):
            try:
                base = numeral_to_int(match.group(1))
            except ValueError:
                continue
            if base < 1:
                continue
            article = str(base)
            if match.group(2):
                article = f"{base}-{numeral_to_int(match.group(2))}"
            if article not in ids:
                ids.append(article)
    return ids


def _parse_duration(match: re.Match) -> int | None:
    years, months = match.group(1), match.group(2)
    if years is None and months is None:
        return None
    total = 0
    if years:
        total += numeral_to_int(years) * 12
    if months:
        total += numeral_to_int(months)
    return total if total > 0 else None


def parse_prison_term(text: str) -> PrisonTerm | None:
    """Parse the decided term out of judgment text; None when nothing matches.

    When several custodial sentences appear (joinder of offences), the one
    following 决定执行 is the decided term and wins.
    """
    decided = _DECIDED_RE.search(text)
    regions = [text[decided.end():], text] if decided else [text]
    for region in regions:
        for pattern, kind in ((_FIXED_RE, TermKind.FIXED_TERM),
                              (_DETENTION_RE, TermKind.DETENTION),
                              (_CONTROL_RE, TermKind.CONTROL)):
            for match in pattern.finditer(region):
                months = _parse_duration(match)
                if months is not None:
                    return PrisonTerm(kind, months)
    if _DEATH_RE.search(text):
        return PrisonTerm(TermKind.DEATH)
    if _LIFE_RE.search(text):
        return PrisonTerm(TermKind.LIFE)
    if _EXEMPT_RE.search(text):
        return PrisonTerm(TermKind.EXEMPT)
    if _FINE_ONLY_RE.search(text) or _FINE_RE.search(text):
        return PrisonTerm(TermKind.FINE_ONLY)
    return None


def format_prison_term(term: PrisonTerm) -> str:
    """Render a term the way judgments phrase it (inverse of the parser)."""
    if term.kind is TermKind.DEATH:
        return "死刑"
    if term.kind is TermKind.LIFE:
        return "无期徒刑"
    if term.kind is TermKind.EXEMPT:
        return "免予刑事处罚"
    if term.kind is TermKind.FINE_ONLY:
        return "单处罚金"
    years, months = divmod(term.months, 12)
    parts = ""
    if years:
        parts += f"{int_to_numeral(years)}年"
    if months or not years:
        parts += f"{int_to_numeral(months)}个月"
    label = {TermKind.FIXED_TERM: "有期徒刑",
             TermKind.DETENTION: "拘役",
             TermKind.CONTROL: "管制"}[term.kind]
    return label + parts


def extract_elements(doc: CaseDocument) -> LegalElements:
    """Extract charges, partitioned articles and the prison term from a case.

    Charges and the term come from the judgment section, articles from the
    reason section. Raises :class:`ExtractionFailed` when any of charge,
    main article or term cannot be recovered; such cases are dropped by the
    corpus filter.
    """
    if not doc.reason or not doc.judgment:
        raise ExtractionFailed(doc.case_id, "empty reason or judgment section")

    charges = extract_charges(doc.judgment)
    if not charges:
        raise ExtractionFailed(doc.case_id, "no charge pattern in judgment section")

    article_ids = extract_article_ids(doc.reason)
    if not article_ids:
        raise ExtractionFailed(doc.case_id, "no article citation in reason section")

    main, ancillary = set(), set()
    for article in article_ids:
        if classify_article(article) == MAIN:
            main.add(article)
        else:
            ancillary.add(article)
    if not main:
        raise ExtractionFailed(doc.case_id, "no main article among citations")

    term = parse_prison_term(doc.judgment)
    if term is None:
        raise ExtractionFailed(doc.case_id, "no parseable prison term")

    return LegalElements(
        charges=frozenset(charges),
        main_articles=frozenset(main),
        ancillary_articles=frozenset(ancillary),
        prison_term=term,
    )


# --------------------------------------------------------------------------
# Filtering
# --------------------------------------------------------------------------

REASON_RULING = "RULING"
REASON_SHORT_FACT = "SHORT_FACT"
REASON_EXTRACTION_FAILED = "EXTRACTION_FAILED"


@dataclass(frozen=True)
class Exclusion:
    case_id: str
    reason: str
    detail: str = ""

    def to_record(self) -> dict:
        return {"case_id": self.case_id, "reason": self.reason, "detail": self.detail}


def filter_corpus(docs: Iterable[CaseDocument],
                  cfg: CorpusFilterConfig = CorpusFilterConfig(),
                  on_exclude: Callable[[Exclusion], None] | None = None,
                  ) -> Iterator[tuple[CaseDocument, LegalElements]]:
    """Admit judgment documents with long-enough facts and extractable elements.

    Exclusions are reported through ``on_exclude`` with a reason code, never
    raised. Fact length is counted in characters, so the cut is identical for
    single-byte and multi-byte text.
    """

    def exclude(case_id: str, reason: str, detail: str = ""):
        if on_exclude is not None:
            on_exclude(Exclusion(case_id, reason, detail))

    for doc in docs:
        if doc.doc_kind is DocKind.RULING:
            exclude(doc.case_id, REASON_RULING)
            continue
        if len(doc.fact) < cfg.min_fact_chars:
            exclude(doc.case_id, REASON_SHORT_FACT,
                    f"{len(doc.fact)} < {cfg.min_fact_chars}")
            continue
        try:
            elements = extract_elements(doc)
        except ExtractionFailed as exc:
            exclude(doc.case_id, REASON_EXTRACTION_FAILED, exc.detail)
            continue
        yield doc, elements
