"""Short-query synthesis from case facts, plus entity anonymization.

A chat-style generation client compresses a case fact into a few sentences
that read like a real user query. Prompts carry a fixed system/instruction
pair and two exemplars drawn from a pool by seed, so repeated runs are
reproducible. Generated text then goes through an anonymization pass that
swaps person, company, location and time mentions for dictionary-drawn
surrogates, because model output alone cannot be trusted to drop them.
"""

from __future__ import annotations

import random
import re
import time
from collections.abc import Iterator, Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from types import MappingProxyType

from .config import DEFAULT_MAX_QUERY_CHARS
from .corpus import CaseDocument
from .errors import GenerationFailed, QueryTooLong
from .seeds import derive_seed

Message = dict[str, str]

ENTITY_CATEGORIES = ("person", "company", "location", "time")

DEFAULT_SYSTEM_TEXT = (
    "As a legal expert, you are capable of extracting key elements from the "
    "basic information of a case."
)

DEFAULT_INSTRUCTION_TEXT = (
    "I have a dataset for searching cases by case. However, the basic "
    "information of the cases in my dataset is too long. I will send you the "
    "basic information of these cases, please help me simplify them, and "
    "greatly shorten their length while retaining key legal elements. You can "
    "remove non-key names, locations, etc., but do not delete important "
    "elements for case judgments."
)

_BREVITY_NOTE = (
    "The previous description is still too long. Please compress it further "
    "while keeping the key legal elements."
)

_DEFAULT_EXEMPLARS: list[tuple[str, str]] = [
    (
        "2017年9月24日晚，被告人李某行至某中学对面的宿舍巷口，采用搭接电线的方式窃取停放在该处的"
        "两轮电动车一辆。次日晚，李某骑乘该车至某电动车商行出售，因价格未谈拢，将车藏匿于某公司楼下。"
        "经鉴定，被盗电动车价值人民币1760元。案发后公安机关将被盗车辆发还被害人。",
        "被告人采用搭接电线方式窃取他人停放的电动车并试图出售，经鉴定车辆价值人民币1760元，"
        "车辆已追回并发还被害人。",
    ),
    (
        "2012年1月20日20时许，被告人于某与朋友聚餐饮酒后驾驶小型轿车回家，行经路口时未及时刹车，"
        "与前方等候信号灯的车辆发生追尾，造成三车受损的交通事故。经认定，于某负事故全部责任，"
        "其血液酒精含量为180.51毫克/100毫升。事后于某赔偿了两名车主的修车费用。",
        "被告人醉酒驾驶机动车追尾前车造成财产损失，负事故全部责任，血液酒精含量超过法定标准。",
    ),
    (
        "某公司通过拍卖取得国有建设用地使用权并开发项目，项目范围内的拆迁补偿已于此前实施完毕。"
        "被告人等村民因承揽工程未果，先后多次聚集商议阻挡施工，筹集阻工资金7万元，并通过微信群、"
        "电话邀约组织二十余名村民以锁大门、拉电闸、站立于施工机械上等方式阻挡施工，"
        "致使施工现场无法正常施工。经鉴定，阻工期间造成经济损失124530元。",
        "某公司依法取得建设用地且补偿已落实，附近村民因承揽工程未果合谋阻挡施工，筹集资金7万元并"
        "纠集二十余人多次阻工，造成经济损失经鉴定为124530元。",
    ),
]


EXEMPLARS_PER_PROMPT = 2


def select_exemplars(seed: int) -> list[int]:
    """Indices of the exemplars used for this seed, a pure function of the seed."""
    rng = random.Random(seed)
    return sorted(rng.sample(range(len(_DEFAULT_EXEMPLARS)), EXEMPLARS_PER_PROMPT))


def assemble_prompt(fact: str, exemplar_ids: list[int]) -> list[Message]:
    """Build the message list: system, instruction, the exemplar pairs at
    ``exemplar_ids`` (from :func:`select_exemplars`), then the fact."""
    if not fact:
        raise ValueError("fact must be non-empty")
    messages: list[Message] = [
        {"role": "system", "content": DEFAULT_SYSTEM_TEXT},
        {"role": "user", "content": DEFAULT_INSTRUCTION_TEXT},
    ]
    for idx in exemplar_ids:
        exemplar_fact, exemplar_query = _DEFAULT_EXEMPLARS[idx]
        messages.append({"role": "user", "content": exemplar_fact})
        messages.append({"role": "assistant", "content": exemplar_query})
    messages.append({"role": "user", "content": fact})
    return messages


# --------------------------------------------------------------------------
# Generation clients
# --------------------------------------------------------------------------

_SENTENCE_RE = re.compile(r"[^。！？!?]*[。！？!?]?")

#: Sentences mentioning these are procedural boilerplate, not case events.
DEFAULT_BOILERPLATE_MARKERS = (
    "公诉机关", "证据", "开庭", "审理", "侦查", "移送", "起诉", "辩护",
    "当庭", "诉讼", "质证", "卷宗", "指控的事实", "简易程序", "庭审",
)

#: Narrative sentences the offline client keeps.
OFFLINE_MAX_SENTENCES = 3


def split_sentences(text: str) -> list[str]:
    """Split on sentence terminators, keeping each terminator attached."""
    return [s for s in _SENTENCE_RE.findall(text) if s.strip()]


class OfflineTemplateClient:
    """Deterministic stand-in for a hosted model.

    Compresses a fact by dropping procedural boilerplate sentences and
    keeping up to ``OFFLINE_MAX_SENTENCES`` of the event narrative. Used for
    tests and air-gapped runs; output is a pure function of the input
    messages.
    """

    provenance = "offline_template"

    def complete(self, messages: Sequence[Message]) -> str:
        fact = ""
        for message in messages:
            if message.get("role") == "user":
                fact = message.get("content", "")
        kept: list[str] = []
        for sentence in split_sentences(fact):
            if any(marker in sentence for marker in DEFAULT_BOILERPLATE_MARKERS):
                continue
            kept.append(sentence)
            if len(kept) >= OFFLINE_MAX_SENTENCES:
                break
        if not kept:
            sentences = split_sentences(fact)
            kept = sentences[:1]
        return "".join(kept)


class RemoteGenerationClient:
    """Chat-completion client over HTTP with bounded retry and backoff.

    Sends ``{"model": ..., "messages": [...]}`` as JSON and expects the
    usual ``choices[0].message.content`` reply shape. Server errors and
    transport failures are retried with exponential backoff; client errors
    fail immediately.
    """

    provenance = "remote_model"

    def __init__(self, endpoint: str, model: str, api_key: str = "",
                 timeout: float = 30.0, max_retries: int = 3,
                 backoff: float = 1.0, session=None, sleep=time.sleep):
        if not endpoint:
            raise ValueError("endpoint required")
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key
        self.timeout = timeout
        self.max_retries = max(1, int(max_retries))
        self.backoff = backoff
        if session is None:
            # imported here, by its only user, so other commands skip its import cost
            import requests
            session = requests.Session()
        self.session = session
        self._sleep = sleep

    def complete(self, messages: Sequence[Message]) -> str:
        import requests

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        body = {"model": self.model, "messages": list(messages)}
        last_error: Exception | None = None
        for attempt in range(self.max_retries):
            if attempt:
                self._sleep(self.backoff * (2 ** (attempt - 1)))
            try:
                response = self.session.post(
                    self.endpoint, json=body, headers=headers, timeout=self.timeout)
            except requests.RequestException as exc:
                last_error = exc
                continue
            if response.status_code >= 500:
                last_error = GenerationFailed(
                    f"server error {response.status_code} from {self.endpoint}")
                continue
            if response.status_code >= 400:
                raise GenerationFailed(
                    f"request rejected ({response.status_code}): {response.text[:200]}")
            try:
                payload = response.json()
                return str(payload["choices"][0]["message"]["content"])
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise GenerationFailed(f"unexpected response shape: {exc}") from exc
        raise GenerationFailed(
            f"giving up after {self.max_retries} attempts: {last_error}")


# --------------------------------------------------------------------------
# Entity tagging
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EntitySpan:
    start: int
    end: int
    category: str


DEFAULT_SURNAMES = (
    "王李张刘陈杨黄赵吴周徐孙马朱胡郭何高林罗郑梁谢宋唐许韩冯邓曹彭曾"
    "肖田董袁潘蒋蔡余杜叶程苏魏吕丁任沈姚卢姜崔钟谭陆汪范金石廖贾夏"
)

# Characters that appear in given names but never open the verb phrase that
# follows a name in judgment prose; keeps the greedy name match from
# swallowing the next word.
DEFAULT_GIVEN_NAME_CHARS = (
    "伟芳娜敏静丽强磊军洋勇艳娟涛明超秀兰霞平刚桂英华玉斌宇浩凯健广志"
    "兴良海波宁贵福生元国胜学祥才武新清飞彬富顺信楠榕航弘梅琴欣妍晨曦"
)

_PERSON_MARKERS = "被告人|被害人|证人|罪犯|犯罪嫌疑人|原审被告人"

_ADMIN_SUFFIXES = "省|市|县|区|镇|乡|村|街道"

# Hanzi excluding administrative suffixes, common prepositions/verbs and 某,
# so location and company matches cannot absorb surrounding words.
_NAME_CHAR = r"[^\W\dA-Za-z_省市县区镇乡村街道在于从向与至被的了过和及某因将持趁伙同以经到任]"

_LOCATION_RE = re.compile(rf"(?:{_NAME_CHAR}{{1,3}}(?:{_ADMIN_SUFFIXES}))+")
_COMPANY_RE = re.compile(
    rf"{_NAME_CHAR}{{2,10}}(?:有限责任公司|股份有限公司|有限公司)")
_MARKER_NAME_RE = re.compile(
    rf"(?:{_PERSON_MARKERS})([{DEFAULT_SURNAMES}][{DEFAULT_GIVEN_NAME_CHARS}]{{1,2}})")
_MOU_NAME_RE = re.compile(rf"[{DEFAULT_SURNAMES}]某{{1,2}}[甲乙丙丁]?")
_DATE_RES = (
    re.compile(r"\d{4}年\d{1,2}月\d{1,2}日(?:\d{1,2}时(?:许)?)?"),
    re.compile(r"\d{4}年\d{1,2}月"),
    re.compile(r"\d{1,2}月\d{1,2}日"),
)


class PatternTagger:
    """Dictionary- and pattern-based tagger for the four entity categories.

    Person names are discovered from role markers (被告人X, 被害人X) and the
    anonymous 某-form, then every other occurrence of a discovered name is
    tagged as well. Companies and locations match suffix patterns, dates
    match digit patterns. Spans are non-overlapping; on overlap the longest
    match wins.
    """

    def _person_names(self, text: str) -> set[str]:
        names = {m.group(1) for m in _MARKER_NAME_RE.finditer(text)}
        names.update(m.group(0) for m in _MOU_NAME_RE.finditer(text))
        return names

    def tag(self, text: str) -> list[EntitySpan]:
        candidates: list[EntitySpan] = []
        for pattern in _DATE_RES:
            for m in pattern.finditer(text):
                candidates.append(EntitySpan(m.start(), m.end(), "time"))
        for m in _COMPANY_RE.finditer(text):
            candidates.append(EntitySpan(m.start(), m.end(), "company"))
        for m in _LOCATION_RE.finditer(text):
            candidates.append(EntitySpan(m.start(), m.end(), "location"))
        for name in self._person_names(text):
            for start in _occurrences(name, text):
                candidates.append(EntitySpan(start, start + len(name), "person"))
        # longest-first sweep keeps spans disjoint
        order = {"time": 0, "company": 1, "location": 2, "person": 3}
        candidates.sort(key=lambda s: (s.start, s.start - s.end, order[s.category]))
        chosen: list[EntitySpan] = []
        for span in candidates:
            if chosen and span.start < chosen[-1].end:
                continue
            chosen.append(span)
        return chosen


def _occurrences(name: str, text: str) -> Iterator[int]:
    """The start of each literal occurrence of a non-empty ``name`` in
    ``text``, left to right and non-overlapping: the matches of the escaped
    name's regex, found without compiling one."""
    start = text.find(name)
    while start >= 0:
        yield start
        start = text.find(name, start + len(name))


# --------------------------------------------------------------------------
# Anonymization
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ReplacementDictionary:
    """Surrogate pools keyed by entity category.

    The pools are frozen at construction, into a read-only mapping of
    tuples, along with the table behind :meth:`draw`: per category, every
    substring of a pool member and the positions of the members that
    contain it. A surface that is no member's substring blocks nothing, so
    the table is sized by the pools (each member's substrings, quadratic in
    its length), not by the surfaces drawn against.
    """

    pools: Mapping[str, Sequence[str]]
    _containing: dict[str, dict[str, list[int]]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        pools = {category: tuple(pool) for category, pool in self.pools.items()}
        containing: dict[str, dict[str, list[int]]] = {}
        for category, pool in pools.items():
            table = containing[category] = {}
            for i, surrogate in enumerate(pool):
                n = len(surrogate)
                for sub in {surrogate[a:b] for a in range(n + 1) for b in range(a, n + 1)}:
                    table.setdefault(sub, []).append(i)
        object.__setattr__(self, "pools", MappingProxyType(pools))
        object.__setattr__(self, "_containing", containing)

    @classmethod
    def default(cls) -> "ReplacementDictionary":
        return cls(pools=_DEFAULT_POOLS)

    def draw(self, category: str, rng: random.Random,
             forbidden: frozenset[str]) -> str:
        """A surrogate that contains none of the ``forbidden`` surfaces.

        Containment, not equality: a surrogate such as 吴志成 would carry the
        tagged name 吴志 into the output. The candidates are the clear pool
        members in pool order, so ``rng`` sees the same list as a filter
        that tests every member against every surface.
        """
        pool = self.pools.get(category, ())
        table = self._containing.get(category, {})
        blocked: set[int] = set()
        for surface in forbidden:
            blocked.update(table.get(surface, ()))
        candidates = [s for i, s in enumerate(pool) if i not in blocked] if blocked else pool
        if candidates:
            return rng.choice(candidates)
        # pool exhausted by collisions: synthesize a placeholder
        def clear(surrogate: str) -> bool:
            return not any(surface in surrogate for surface in forbidden)

        base = {"person": "某乙", "company": "某单位", "location": "某地",
                "time": "某年某月"}.get(category, "某")
        if not clear(base):
            raise ValueError(f"every {category} placeholder contains a tagged surface")
        n = 1
        while not clear(f"{base}{n}"):
            n += 1
        return f"{base}{n}"


_DEFAULT_POOLS: dict[str, tuple[str, ...]] = {
    "person": (
        "周建国", "吴志成", "郑学礼", "冯国安", "陈得水", "何启东", "罗树仁",
        "高立本", "宋景和", "谢延年", "唐守义", "韩向荣", "曹敬亭", "彭绍先",
        "董继业", "袁世杰", "潘鸿儒", "蒋子谦", "蔡光耀", "余庆堂", "杜文翰",
        "叶茂林", "程万里", "苏慕白", "魏长卿", "吕望舒", "丁汝珍", "任逍遥",
        "沈碧波", "姚春兰", "卢照临", "姜云帆", "崔九龄", "钟灵毓", "谭世平",
        "陆建波", "汪伦才", "范仲文", "金石开", "石敬亭",
    ),
    "company": (
        "启明贸易有限公司", "长风物资有限公司", "青松建材有限公司",
        "汇通运输有限公司", "金桥实业有限公司", "东方红食品有限公司",
        "银河信息有限公司", "蓝天装饰有限公司", "绿洲农业有限公司",
        "红叶印刷有限公司", "四海商贸有限公司", "八方物流有限公司",
        "中原机械有限公司", "南湖置业有限公司", "北斗仪器有限公司",
        "三江化工有限公司", "五岳矿业有限公司", "七星电子有限公司",
        "九州医药有限公司", "万象文化有限公司",
    ),
    "location": (
        "靖远市", "合浦县", "桐庐镇", "望江区", "沙洲市", "凤鸣县", "雁荡镇",
        "竹溪村", "梅岭区", "松原市", "柏乡县", "枫林镇", "荷塘区", "杏花村",
        "云梦县", "星河区", "月湖镇", "日照村", "山海县", "天泽市", "泉水镇",
        "石桥村", "锦绣区", "安宁市",
    ),
    "time": (
        "2008年3月5日", "2009年7月21日", "2010年11月2日", "2011年4月18日",
        "2012年8月30日", "2013年1月9日", "2014年6月14日", "2015年10月27日",
        "2016年2月3日", "2017年5月16日", "2018年9月8日", "2019年12月25日",
        "2020年3月19日", "2021年7月6日", "2022年11月13日", "2023年4月1日",
        "2007年6月11日", "2006年9月23日", "2005年12月7日", "2004年2月29日",
    ),
}


@dataclass(frozen=True)
class AnonymizationEntry:
    """One substitution: where it was in the input and what replaced it."""

    start: int
    end: int
    surface: str
    category: str
    replacement: str
    out_end: int

    def to_record(self) -> dict:
        return {
            "span": [self.start, self.end],
            "surface": self.surface,
            "category": self.category,
            "replacement": self.replacement,
        }


def anonymize(text: str, tagger: PatternTagger,
              replacements: ReplacementDictionary, seed: int,
              ) -> tuple[str, list[AnonymizationEntry]]:
    """Replace tagged person/company/location/time spans with surrogates.

    The same surface always maps to the same surrogate within one call, and
    surrogates are drawn so that no tagged surface (of any entity in the
    text) can reappear in the output. Deterministic under the seed.
    """
    spans = [s for s in tagger.tag(text) if s.category in ENTITY_CATEGORIES]
    spans.sort(key=lambda s: s.start)
    if not spans:
        return text, []

    forbidden = frozenset(text[s.start:s.end] for s in spans)
    rng = random.Random(seed)
    mapping: dict[tuple[str, str], str] = {}
    pieces: list[str] = []
    log: list[AnonymizationEntry] = []
    cursor = 0
    out_len = 0
    for span in spans:
        surface = text[span.start:span.end]
        key = (span.category, surface)
        if key not in mapping:
            mapping[key] = replacements.draw(span.category, rng, forbidden)
        replacement = mapping[key]
        gap = text[cursor:span.start]
        pieces.append(gap)
        out_len += len(gap)
        pieces.append(replacement)
        log.append(AnonymizationEntry(
            start=span.start, end=span.end, surface=surface,
            category=span.category, replacement=replacement,
            out_end=out_len + len(replacement)))
        out_len += len(replacement)
        cursor = span.end
    pieces.append(text[cursor:])
    return "".join(pieces), log


# --------------------------------------------------------------------------
# Query records and the generation pipeline
# --------------------------------------------------------------------------

@dataclass
class QueryRecord:
    query_id: str
    source_case_id: str
    text: str
    generator: str
    exemplar_ids: list[int]
    anonymization_log: list[AnonymizationEntry]

    def to_record(self) -> dict:
        return {
            "query_id": self.query_id,
            "source_case_id": self.source_case_id,
            "text": self.text,
            "generator": self.generator,
            "exemplar_ids": list(self.exemplar_ids),
            "anonymization_log": [e.to_record() for e in self.anonymization_log],
        }


def truncate_at_sentence(text: str, limit: int) -> str:
    """Largest sentence-aligned prefix within the limit; raises if none fits."""
    if len(text) <= limit:
        return text
    kept = ""
    for sentence in split_sentences(text):
        if len(kept) + len(sentence) > limit:
            break
        kept += sentence
    if not kept:
        raise QueryTooLong(
            f"no sentence boundary within {limit} characters")
    return kept


#: Client calls per query before empty output is a :class:`GenerationFailed`.
GENERATION_ATTEMPTS = 3


def generate_query(doc: CaseDocument, client: OfflineTemplateClient | RemoteGenerationClient,
                   seed: int = 0, *, tagger: PatternTagger | None = None,
                   replacements: ReplacementDictionary | None = None,
                   max_query_chars: int = DEFAULT_MAX_QUERY_CHARS) -> QueryRecord:
    """Synthesize one anonymized short query for a case, with id
    ``q-<case id>``.

    Empty client outputs are retried up to ``GENERATION_ATTEMPTS`` times
    before :class:`GenerationFailed`. Over-long output gets exactly one
    re-ask with a brevity note, then a hard sentence-boundary truncation;
    only when no sentence fits does :class:`QueryTooLong` surface.
    """
    tagger = tagger or PatternTagger()
    replacements = replacements or ReplacementDictionary.default()

    exemplar_ids = select_exemplars(derive_seed(seed, "exemplars"))
    messages = assemble_prompt(doc.fact, exemplar_ids)

    text = ""
    for _ in range(GENERATION_ATTEMPTS):
        text = client.complete(messages).strip()
        if text:
            break
    if not text:
        raise GenerationFailed(
            f"empty output for case {doc.case_id} after {GENERATION_ATTEMPTS} attempts")

    if len(text) > max_query_chars:
        retry = list(messages) + [
            {"role": "assistant", "content": text},
            {"role": "user", "content": _BREVITY_NOTE},
        ]
        shorter = client.complete(retry).strip()
        if shorter:
            text = shorter
        if len(text) > max_query_chars:
            text = truncate_at_sentence(text, max_query_chars)

    anon_text, log = anonymize(text, tagger, replacements,
                               derive_seed(seed, "anonymize"))
    if len(anon_text) > max_query_chars:
        anon_text = truncate_at_sentence(anon_text, max_query_chars)
        log = [e for e in log if e.out_end <= len(anon_text)]

    return QueryRecord(
        query_id=f"q-{doc.case_id}",
        source_case_id=doc.case_id,
        text=anon_text,
        generator=client.provenance,
        exemplar_ids=exemplar_ids,
        anonymization_log=log,
    )


def generate_queries(docs: Sequence[CaseDocument],
                     client: OfflineTemplateClient | RemoteGenerationClient,
                     global_seed: int = 0, *, max_in_flight: int = 4,
                     max_query_chars: int = DEFAULT_MAX_QUERY_CHARS,
                     ) -> list[QueryRecord]:
    """Generate queries for many cases with a bounded in-flight limit, with
    one tagger and one replacement dictionary for the run.

    Per-case seeds derive from (global_seed, case_id), so results do not
    depend on completion order.
    """
    tagger = PatternTagger()
    replacements = ReplacementDictionary.default()

    def one(doc: CaseDocument) -> QueryRecord:
        return generate_query(
            doc, client, derive_seed(global_seed, doc.case_id),
            tagger=tagger, replacements=replacements,
            max_query_chars=max_query_chars)

    if max_in_flight <= 1 or len(docs) <= 1:
        return [one(doc) for doc in docs]
    with ThreadPoolExecutor(max_workers=max_in_flight) as pool:
        return list(pool.map(one, docs))
