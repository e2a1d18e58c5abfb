"""Deterministic synthetic-corpus generator.

Emits desk-scale criminal-judgment corpora from templates with known
embedded elements (charge, statute articles, prison term) and planted
entities, together with per-case bookkeeping, so extraction, augmentation,
anonymization and evaluation can all be checked against ground truth.
Fixture text is mechanical, not jurisprudence: it exists so that element
extraction must invert the template and so that lexical overlap between
related cases is controllable.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from random import Random

from .corpus import (
    MONTH_BEARING,
    CaseDocument,
    DocKind,
    LegalElements,
    PrisonTerm,
    TermKind,
    format_prison_term,
)
from .errors import InsufficientData
from .querygen import DEFAULT_GIVEN_NAME_CHARS, DEFAULT_SURNAMES
from .seeds import derive_seed
from .zhnum import int_to_numeral


@dataclass(frozen=True)
class ChargeProfile:
    """One charge template: its main articles, event phrasings and term tiers.

    Each charge carries several paraphrase variants of its event clause so
    that cases sharing legal elements need not share surface wording; that
    keeps purely lexical scorers honest at evaluation time.
    """

    name: str
    main_articles: tuple[str, ...]
    events: tuple[str, ...]                     # slots: victim, item, amount
    severity: tuple[str, str, str]              # phrase per tier
    months: tuple[tuple[int, int], ...]         # month range per tier
    amounts: tuple[tuple[int, int], ...]        # amount range per tier
    term_kind: TermKind = TermKind.FIXED_TERM
    specials: tuple[TermKind, ...] = ()


CHARGE_PROFILES: tuple[ChargeProfile, ...] = (
    ChargeProfile(
        name="盗窃罪", main_articles=("264",),
        events=(
            "趁无人之际窃取被害人{victim}停放的{item}，经鉴定价值人民币{amount}元",
            "撬开门锁潜入室内，盗走被害人{victim}的{item}，赃物估价为人民币{amount}元",
            "趁被害人{victim}不备顺手牵走其{item}，该物品价值共计人民币{amount}元",
        ),
        severity=("盗窃数额较大", "盗窃数额巨大", "盗窃数额特别巨大"),
        months=((6, 12), (30, 42), (96, 120)),
        amounts=((2000, 8000), (40000, 90000), (400000, 900000)),
        specials=(TermKind.CONTROL, TermKind.FINE_ONLY),
    ),
    ChargeProfile(
        name="抢劫罪", main_articles=("263",),
        events=(
            "伙同他人拦截被害人{victim}，当场使用暴力劫取其{item}（价值人民币{amount}元）",
            "持刀威逼被害人{victim}交出随身{item}，抢得财物折价人民币{amount}元",
            "采取捂嘴、殴打手段强行夺走被害人{victim}的{item}，所得合计人民币{amount}元",
        ),
        severity=("抢劫情节一般", "抢劫数额巨大", "抢劫情节特别严重"),
        months=((36, 60), (96, 120), (150, 180)),
        amounts=((1000, 5000), (50000, 100000), (200000, 500000)),
        specials=(TermKind.LIFE, TermKind.DEATH),
    ),
    ChargeProfile(
        name="诈骗罪", main_articles=("266",),
        events=(
            "虚构投资项目骗取被害人{victim}钱款共计人民币{amount}元",
            "谎称能够低价购房，诱使被害人{victim}转账人民币{amount}元后失联",
            "编造中奖信息骗得被害人{victim}汇款人民币{amount}元",
        ),
        severity=("诈骗数额较大", "诈骗数额巨大", "诈骗数额特别巨大"),
        months=((6, 12), (36, 48), (120, 144)),
        amounts=((5000, 20000), (60000, 150000), (600000, 1500000)),
        specials=(TermKind.FINE_ONLY,),
    ),
    ChargeProfile(
        name="交通肇事罪", main_articles=("133",),
        events=(
            "驾驶重型货车违反交通运输管理法规发生重大事故，致被害人{victim}重伤，"
            "车辆损失经鉴定为人民币{amount}元",
            "驾车行经路口时超速行驶撞倒被害人{victim}致其重伤，事故造成财产损失人民币{amount}元",
            "夜间疲劳驾驶客车酿成重大交通事故，被害人{victim}受重伤，经核定损失人民币{amount}元",
        ),
        severity=("肇事后负事故主要责任", "肇事后逃逸", "因逃逸致一人死亡"),
        months=((6, 24), (40, 80), (96, 144)),
        amounts=((30000, 80000), (80000, 200000), (200000, 500000)),
        specials=(TermKind.EXEMPT,),
    ),
    ChargeProfile(
        name="危险驾驶罪", main_articles=("133-1",),
        events=(
            "醉酒后驾驶小型轿车上道路行驶，经检验其血液酒精含量为{amount}毫克每百毫升",
            "饮酒后驾驶机动车被当场查获，血样检测结果为{amount}毫克每百毫升",
            "酒后驾车上路被执勤民警拦查，体内酒精含量达{amount}毫克每百毫升",
        ),
        severity=("酒驾情节较轻", "酒驾情节较重", "酒驾情节严重"),
        months=((1, 2), (3, 4), (5, 6)),
        amounts=((90, 140), (150, 220), (230, 300)),
        term_kind=TermKind.DETENTION, specials=(TermKind.FINE_ONLY,),
    ),
    ChargeProfile(
        name="故意伤害罪", main_articles=("234",),
        events=(
            "因琐事与被害人{victim}发生争执，持{item}将其打伤，医疗费合计人民币{amount}元",
            "与被害人{victim}发生口角后动手，用{item}击打对方头部致伤，"
            "花去医药费人民币{amount}元",
            "酒后与被害人{victim}互殴，操起{item}将人打伤，治疗费用总计人民币{amount}元",
        ),
        severity=("致一人轻伤二级", "致一人重伤二级", "致一人严重残疾"),
        months=((6, 18), (36, 60), (96, 144)),
        amounts=((3000, 9000), (20000, 60000), (80000, 150000)),
        specials=(TermKind.LIFE,),
    ),
    ChargeProfile(
        name="寻衅滋事罪", main_articles=("293",),
        events=(
            "酒后无故殴打被害人{victim}，任意损毁店内财物，造成损失人民币{amount}元",
            "在街头拦截辱骂被害人{victim}并砸坏摊位物品，毁损财物价值人民币{amount}元",
            "无事生非追逐恐吓被害人{victim}，打砸现场物品造成损失人民币{amount}元",
        ),
        severity=("滋事情节恶劣", "多次滋事且情节恶劣", "纠集他人多次滋事破坏秩序"),
        months=((6, 16), (30, 54), (68, 100)),
        amounts=((2000, 8000), (10000, 40000), (50000, 120000)),
    ),
    ChargeProfile(
        name="职务侵占罪", main_articles=("271",),
        events=(
            "利用担任{company}出纳的职务便利，将单位资金人民币{amount}元非法占为己有",
            "在{company}负责收取货款期间，私自截留公司款项人民币{amount}元",
            "借职务之便挪走{company}账户资金人民币{amount}元用于个人挥霍",
        ),
        severity=("侵占数额较大", "侵占数额巨大", "侵占数额特别巨大"),
        months=((8, 20), (36, 56), (70, 110)),
        amounts=((30000, 90000), (200000, 500000), (1000000, 3000000)),
    ),
    ChargeProfile(
        name="非法拘禁罪", main_articles=("238",),
        events=(
            "伙同他人将被害人{victim}非法拘禁于一出租屋内，限制其人身自由达{amount}小时",
            "纠集数人强行扣押被害人{victim}并看管于宾馆房间，非法限制自由长达{amount}小时",
            "以索要欠款为由关押被害人{victim}，剥夺其人身自由共{amount}小时",
        ),
        severity=("拘禁时间较短", "多次拘禁他人", "拘禁并有殴打侮辱情节"),
        months=((4, 12), (26, 40), (54, 80)),
        amounts=((30, 70), (100, 200), (240, 400)),
    ),
    ChargeProfile(
        name="敲诈勒索罪", main_articles=("274",),
        events=(
            "以公开他人隐私相要挟，强行索取被害人{victim}人民币{amount}元",
            "以举报相威胁向被害人{victim}索要钱财，勒索得款人民币{amount}元",
            "抓住被害人{victim}的把柄反复威吓，迫使其交付人民币{amount}元",
        ),
        severity=("勒索数额较大", "勒索数额巨大", "勒索数额特别巨大"),
        months=((6, 16), (30, 44), (58, 90)),
        amounts=((3000, 9000), (40000, 90000), (350000, 800000)),
    ),
    ChargeProfile(
        name="故意毁坏财物罪", main_articles=("275",),
        events=(
            "因纠纷将被害人{victim}的{item}砸毁，经鉴定损失人民币{amount}元",
            "泄愤报复砸坏被害人{victim}所有的{item}，毁损价值人民币{amount}元",
            "深夜持械损毁被害人{victim}的{item}，造成直接经济损失人民币{amount}元",
        ),
        severity=("毁财数额较大", "毁财数额巨大", "毁财有其他特别严重情节"),
        months=((4, 12), (26, 40), (54, 84)),
        amounts=((5000, 15000), (30000, 80000), (120000, 300000)),
    ),
    ChargeProfile(
        name="开设赌场罪", main_articles=("303",),
        events=(
            "租用场地设置赌博机招揽他人赌博，非法获利人民币{amount}元",
            "组织人员在出租屋内开设牌局抽头渔利，累计获利人民币{amount}元",
            "利用网络平台开设赌场接受投注，从中牟利人民币{amount}元",
        ),
        severity=("开设赌场情节一般", "开设赌场情节严重", "开设赌场获利特别巨大"),
        months=((6, 16), (30, 44), (58, 90)),
        amounts=((10000, 40000), (80000, 200000), (400000, 900000)),
    ),
)

_INTRO_SCAFFOLDS: tuple[str, ...] = (
    "{date}，被告人{name}在{location}{venue}{event}，{severity}。",
    "被告人{name}于{date}在{location}{venue}{event}，{severity}。",
    "经查明：{date}，被告人{name}在{location}{venue}{event}，{severity}。",
)

_REASON_SCAFFOLDS: tuple[str, ...] = (
    "本院认为，被告人{name}的行为已构成{charge}，公诉机关指控的罪名成立。"
    "{clauses}依照《中华人民共和国刑法》{refs}之规定，判决如下。",
    "本院经审理认为，被告人{name}所为已触犯刑律，构成{charge}，指控罪名成立。"
    "{clauses}依照《中华人民共和国刑法》{refs}之规定，作出如下判决。",
    "法院认为，被告人{name}无视国法，其行为构成{charge}，依法应予惩处。"
    "{clauses}依照《中华人民共和国刑法》{refs}之规定，判决如下。",
)

_JUDGMENT_SCAFFOLDS: tuple[str, ...] = (
    "被告人{name}犯{charge}，判处{term}{fine}。",
    "判决如下：一、被告人{name}犯{charge}，判处{term}{fine}；二、继续追缴违法所得。",
    "依照上述法律条款，判决被告人{name}犯{charge}，判处{term}{fine}。"
    "刑期从判决执行之日起计算。",
)

ANCILLARY_POOL: tuple[str, ...] = ("67", "72", "65", "25", "27", "68", "64", "52")

_ANCILLARY_CLAUSES = {
    "67": "被告人具有自首情节，依法可以从轻处罚。",
    "72": "被告人符合适用缓刑的条件。",
    "65": "被告人系累犯，依法应当从重处罚。",
    "25": "本案系共同犯罪。",
    "27": "被告人起次要作用，系从犯。",
    "68": "被告人有立功表现，依法可以从轻处罚。",
    "64": "违法所得应当予以追缴。",
    "52": "判处罚金应当根据犯罪情节决定罚金数额。",
}

_POST_CLAUSES = {
    "surrender": "主动投案并如实供述自己的罪行",
    "caught": "被公安机关抓获归案",
    "summoned": "经电话传唤到案",
    "escorted": "被群众扭送至公安机关",
}

FILLER_SENTENCES: tuple[str, ...] = (
    "公诉机关认为上述事实清楚，证据确实、充分。",
    "上述事实有相关书证、证人证言及被告人供述等证据证实。",
    "案件由公安机关侦查终结后移送审查起诉。",
    "被告人对公诉机关指控的事实无异议并自愿认罪。",
    "本案经依法组成合议庭公开开庭审理。",
    "辩护人对指控的基本事实不持异议。",
    "公诉机关建议在法定幅度内量刑。",
    "上述证据均经当庭质证，来源合法。",
    "被告人到案后的供述与其他证据能够相互印证。",
    "审理期间各方当事人均未申请回避。",
    "卷宗材料显示侦查程序符合法律规定。",
    "附带民事诉讼部分双方已另行达成调解。",
    "公诉机关就量刑情节发表了公诉意见。",
    "庭审中控辩双方围绕量刑情节充分发表了意见。",
)

_CITY_NAMES = ("临江", "云岭", "安和", "河阳", "曲水", "白沙", "青田", "龙泉", "新川", "平乐")
_DISTRICT_NAMES = ("东湖", "城北", "长安", "桂园", "江滨", "南浦", "西塘", "鹤鸣")
_VENUES = ("某停车场", "某商场门口", "某仓库", "某路段", "某广场", "某工地", "某门市部")
_ITEMS = ("电动自行车", "摩托车", "手提电脑", "手机", "金项链", "货车轮胎", "照相机", "电缆线")
_COMPANY_PREFIXES = ("盛达", "宏远", "金辉", "华信", "瑞丰", "天成", "立远", "恒泰", "广汇", "旭日")
_COMPANY_INDUSTRIES = ("商贸", "运输", "建筑", "科技", "实业", "物流")

# mostly the common tier: cases sharing a charge usually share circumstances,
# which is what makes same-charge in-batch negatives false negatives
_TIER_WEIGHTS = (0.75, 0.17, 0.08)

#: Most ancillary articles a judgment cites.
ANCILLARY_MAX = 3
#: Filler sentences a fact draws before it is padded to ``min_fact_chars``.
FILLER_RANGE = (4, 8)
#: Share of judgments whose term is one of their charge's special kinds.
SPECIAL_TERM_RATE = 0.04


@dataclass(frozen=True)
class SyntheticSpec:
    n_cases: int = 1000
    charge_count: int = 10
    n_rulings: int = 0
    n_short_facts: int = 0
    n_unextractable: int = 0
    min_fact_chars: int = 100
    seed: int = 0

    def __post_init__(self):
        for name in ("n_cases", "n_rulings", "n_short_facts", "n_unextractable"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.charge_count < 1 or self.charge_count > len(CHARGE_PROFILES):
            raise ValueError(
                f"charge_count must be in 1..{len(CHARGE_PROFILES)}")


@dataclass(frozen=True)
class CaseGroundTruth:
    elements: LegalElements | None
    entities: dict[str, list[str]] = field(default_factory=dict)


@dataclass
class CorpusBuild:
    cases: list[CaseDocument]
    truth: dict[str, CaseGroundTruth]

    def elements(self) -> dict[str, LegalElements]:
        return {cid: t.elements for cid, t in self.truth.items()
                if t.elements is not None}


def _weighted_tier(rng: Random) -> int:
    roll = rng.random()
    edge = 0.0
    for tier, weight in enumerate(_TIER_WEIGHTS):
        edge += weight
        if roll < edge:
            return tier
    return len(_TIER_WEIGHTS) - 1


def _make_name(rng: Random) -> str:
    surname = rng.choice(DEFAULT_SURNAMES)
    given_len = rng.choice((1, 2))
    given = "".join(rng.choice(DEFAULT_GIVEN_NAME_CHARS) for _ in range(given_len))
    return surname + given


def _make_victim(rng: Random) -> str:
    return rng.choice(DEFAULT_SURNAMES) + "某"


def _make_location(rng: Random) -> str:
    return (rng.choice(_CITY_NAMES) + "市" + rng.choice(_DISTRICT_NAMES) + "区")


def _make_company(rng: Random) -> str:
    return (rng.choice(_COMPANY_PREFIXES) + rng.choice(_COMPANY_INDUSTRIES) + "有限公司")


def _make_date(rng: Random) -> str:
    return f"{rng.randint(2012, 2021)}年{rng.randint(1, 12)}月{rng.randint(1, 28)}日"


def _draw_term(profile: ChargeProfile, tier: int, rng: Random) -> PrisonTerm:
    if profile.specials and rng.random() < SPECIAL_TERM_RATE:
        kind = rng.choice(profile.specials)
        if kind not in MONTH_BEARING:
            return PrisonTerm(kind)
        return PrisonTerm(kind, rng.choice((6, 12, 18, 24)))
    lo, hi = profile.months[tier]
    if hi - lo >= 6:
        # sentencing snaps to a coarse grid, so identical terms recur across
        # cases: that is what makes some precedents popular augmentation targets
        choices = list(range(lo, hi + 1, 6))
        return PrisonTerm(profile.term_kind, rng.choice(choices))
    return PrisonTerm(profile.term_kind, rng.randint(lo, hi))


def _article_refs(articles: Sequence[str]) -> str:
    parts = []
    for article in articles:
        base, _, sub = article.partition("-")
        ref = f"第{int_to_numeral(int(base))}条"
        if sub:
            ref += f"之{int_to_numeral(int(sub))}"
        parts.append(ref)
    return "、".join(parts)


def _build_case(case_id: str, spec: SyntheticSpec, rng: Random,
                charge_index: int) -> tuple[CaseDocument, CaseGroundTruth]:
    profile = CHARGE_PROFILES[charge_index]
    tier = _weighted_tier(rng)

    name = _make_name(rng)
    victim = _make_victim(rng)
    location = _make_location(rng)
    company = _make_company(rng)
    date = _make_date(rng)
    item = rng.choice(_ITEMS)
    venue = rng.choice(_VENUES)
    amount = rng.randint(*profile.amounts[tier])

    event_template = rng.choice(profile.events)
    event = event_template.format(victim=victim, item=item, amount=amount,
                                  company=company)
    entities: dict[str, list[str]] = {
        "person": [name],
        "location": [location],
        "time": [date],
    }
    if "{victim}" in event_template:
        entities["person"].append(victim)
    if "{company}" in event_template:
        entities["company"] = [company]

    term = _draw_term(profile, tier, rng)

    ancillary_count = rng.randint(0, ANCILLARY_MAX)
    ancillary = tuple(sorted(rng.sample(ANCILLARY_POOL, ancillary_count)))
    if term.kind is TermKind.LIFE or term.kind is TermKind.DEATH:
        ancillary = tuple(a for a in ancillary if a != "72")

    post_key = "surrender" if "67" in ancillary else rng.choice(
        ("caught", "summoned", "escorted"))
    post = f"案发后，{name}{_POST_CLAUSES[post_key]}。"

    intro = rng.choice(_INTRO_SCAFFOLDS).format(
        date=date, name=name, location=location, venue=venue, event=event,
        severity=profile.severity[tier])
    fact_parts = [intro, post]
    filler_count = rng.randint(*FILLER_RANGE)
    fillers = rng.sample(FILLER_SENTENCES, min(filler_count, len(FILLER_SENTENCES)))
    fact_parts.extend(fillers)
    fact = "".join(fact_parts)
    extra_filler = [s for s in FILLER_SENTENCES if s not in fillers]
    while len(fact) < spec.min_fact_chars and extra_filler:
        fact += extra_filler.pop(0)

    cited = list(profile.main_articles) + list(ancillary)
    anc_clauses = "".join(_ANCILLARY_CLAUSES[a] for a in ancillary)
    reason = rng.choice(_REASON_SCAFFOLDS).format(
        name=name, charge=profile.name, clauses=anc_clauses,
        refs=_article_refs(cited))

    term_phrase = format_prison_term(term)
    fine_suffix = ""
    if term.kind in (TermKind.FIXED_TERM, TermKind.DETENTION) and rng.random() < 0.5:
        fine_suffix = f"，并处罚金人民币{rng.randint(1, 20) * 1000}元"
    elif term.kind in (TermKind.DEATH, TermKind.LIFE):
        fine_suffix = "，并处没收个人全部财产"
    judgment = rng.choice(_JUDGMENT_SCAFFOLDS).format(
        name=name, charge=profile.name, term=term_phrase, fine=fine_suffix)

    doc = CaseDocument(case_id=case_id, doc_kind=DocKind.JUDGMENT, fact=fact,
                       reason=reason, judgment=judgment,
                       charge_labels=[profile.name])
    elements = LegalElements(
        charges=frozenset({profile.name}),
        main_articles=frozenset(profile.main_articles),
        ancillary_articles=frozenset(ancillary),
        prison_term=term,
    )
    return doc, CaseGroundTruth(elements=elements, entities=entities)


def _build_ruling(case_id: str, rng: Random) -> tuple[CaseDocument, CaseGroundTruth]:
    name = _make_name(rng)
    fact = (f"罪犯{name}在服刑期间能够认罪悔罪，遵守监规，接受教育改造，"
            f"积极参加劳动，确有悔改表现。执行机关提请对其减刑。"
            + FILLER_SENTENCES[0] + FILLER_SENTENCES[1])
    doc = CaseDocument(
        case_id=case_id, doc_kind=DocKind.RULING, fact=fact,
        reason=f"本院认为，罪犯{name}确有悔改表现，符合减刑条件。",
        judgment=f"对罪犯{name}减去有期徒刑六个月。")
    return doc, CaseGroundTruth(elements=None)


def _build_short_fact(case_id: str, spec: SyntheticSpec, rng: Random,
                      charge_index: int) -> tuple[CaseDocument, CaseGroundTruth]:
    doc, _ = _build_case(case_id, spec, rng, charge_index)
    limit = rng.randint(max(10, spec.min_fact_chars // 2), spec.min_fact_chars - 1)
    doc.fact = doc.fact[:limit]
    return doc, CaseGroundTruth(elements=None)


def _build_unextractable(case_id: str, spec: SyntheticSpec, rng: Random,
                         charge_index: int) -> tuple[CaseDocument, CaseGroundTruth]:
    doc, _ = _build_case(case_id, spec, rng, charge_index)
    doc.judgment = "本判决为依法作出的处理决定。"  # no charge, no term
    return doc, CaseGroundTruth(elements=None)


def generate_corpus(spec: SyntheticSpec) -> CorpusBuild:
    """Build a corpus with known elements; byte-identical under (spec, seed).

    Returns ``spec.n_cases`` valid judgments, then the requested number of
    rulings, then of short-fact documents, then of unextractable documents,
    each of which the corpus filter must exclude; their ground truth has no
    elements.
    """
    cases: list[CaseDocument] = []
    truth: dict[str, CaseGroundTruth] = {}
    counter = 0

    def next_id() -> str:
        nonlocal counter
        counter += 1
        return f"case-{counter:06d}"

    for i in range(spec.n_cases):
        case_id = next_id()
        rng = Random(derive_seed(spec.seed, "case", case_id))
        # round-robin base guarantees every charge appears when n >= charges
        charge_index = i % spec.charge_count
        doc, gt = _build_case(case_id, spec, rng, charge_index)
        cases.append(doc)
        truth[case_id] = gt

    for kind, count in (("ruling", spec.n_rulings),
                        ("short", spec.n_short_facts),
                        ("unextractable", spec.n_unextractable)):
        for i in range(count):
            case_id = next_id()
            rng = Random(derive_seed(spec.seed, kind, case_id))
            if kind == "ruling":
                doc, gt = _build_ruling(case_id, rng)
            elif kind == "short":
                doc, gt = _build_short_fact(case_id, spec, rng, i % spec.charge_count)
            else:
                doc, gt = _build_unextractable(case_id, spec, rng, i % spec.charge_count)
            cases.append(doc)
            truth[case_id] = gt

    return CorpusBuild(cases=cases, truth=truth)


# --------------------------------------------------------------------------
# Evaluation fixtures: pools of 100 candidates with 30 graded labels
# --------------------------------------------------------------------------

#: Two terms count as matching circumstances within this month distance.
TERM_MATCH_TOLERANCE_MONTHS = 12
#: Candidates in each query's pool.
POOL_SIZE = 100
#: Candidates of a pool with a graded label, the source case among them.
ANNOTATED_SIZE = 30


def terms_match(a: PrisonTerm, b: PrisonTerm) -> bool:
    if a.kind != b.kind:
        return False
    if a.kind in MONTH_BEARING:
        return abs(a.months - b.months) <= TERM_MATCH_TOLERANCE_MONTHS
    return True


def agreement_label(source: LegalElements, candidate: LegalElements) -> int:
    """Graded label from element agreement.

    Matching main articles stand in for matching key facts, matching terms
    for matching circumstances: both -> 3, facts only -> 2, circumstances
    only -> 1, neither -> 0.
    """
    facts = source.main_articles == candidate.main_articles
    circumstances = terms_match(source.prison_term, candidate.prison_term)
    if facts and circumstances:
        return 3
    if facts:
        return 2
    if circumstances:
        return 1
    return 0


@dataclass
class QrelsBuild:
    sources: dict[str, str]                  # query_id -> source case id
    pools: dict[str, list[str]]              # query_id -> 100 candidate ids
    labels: dict[str, dict[str, int]]        # query_id -> annotated labels


def generate_qrels(build: CorpusBuild, seed: int = 0, *, n_queries: int = 50) -> QrelsBuild:
    """Benchmark-shaped fixtures: per query a candidate pool with a graded
    annotated subset, labels derived from ground-truth element agreement.

    The annotated subset mixes same-main candidates (split across term
    tiers) with cross-main candidates so that every label value occurs.
    The source case always sits in its own pool and labels itself 3.
    """
    elements = build.elements()
    valid_ids = sorted(elements)
    if len(valid_ids) < POOL_SIZE:
        raise InsufficientData(
            f"need at least {POOL_SIZE} valid cases for a pool, have {len(valid_ids)}")
    rng = Random(derive_seed(seed, "qrels"))
    source_ids = sorted(rng.sample(valid_ids, min(n_queries, len(valid_ids))))

    by_main: dict[tuple[str, ...], list[str]] = {}
    for case_id in valid_ids:
        key = tuple(sorted(elements[case_id].main_articles))
        by_main.setdefault(key, []).append(case_id)

    sources: dict[str, str] = {}
    pools: dict[str, list[str]] = {}
    labels: dict[str, dict[str, int]] = {}

    for source_id in source_ids:
        query_id = f"q-{source_id}"
        query_rng = Random(derive_seed(seed, "pool", source_id))
        source = elements[source_id]
        key = tuple(sorted(source.main_articles))

        same_main = [c for c in by_main[key] if c != source_id]
        same_term = [c for c in same_main
                     if terms_match(source.prison_term, elements[c].prison_term)]
        same_term_set, same_main_set = set(same_term), set(same_main)
        diff_term = [c for c in same_main if c not in same_term_set]
        cross_main = [c for c in valid_ids
                      if c != source_id and c not in same_main_set]
        cross_near = [c for c in cross_main
                      if terms_match(source.prison_term, elements[c].prison_term)]
        cross_near_set = set(cross_near)
        cross_far = [c for c in cross_main if c not in cross_near_set]

        annotated = [source_id]

        def take(pool: list[str], want: int):
            chosen = query_rng.sample(pool, min(want, len(pool)))
            seen = set(annotated)
            annotated.extend(c for c in chosen if c not in seen)

        take(same_term, 12)
        take(diff_term, 6)
        take(cross_near, 6)
        take(cross_far, ANNOTATED_SIZE - len(annotated))
        annotated_set = set(annotated)
        backfill = [c for c in cross_main if c not in annotated_set]
        for c in backfill:
            if len(annotated) >= ANNOTATED_SIZE:
                break
            annotated.append(c)
        annotated = annotated[:ANNOTATED_SIZE]

        annotated_set = set(annotated)
        rest = [c for c in valid_ids if c not in annotated_set]
        unannotated = query_rng.sample(rest, min(POOL_SIZE - len(annotated), len(rest)))
        pool = sorted(annotated + unannotated)

        sources[query_id] = source_id
        pools[query_id] = pool
        labels[query_id] = {
            c: agreement_label(source, elements[c]) for c in annotated}

    return QrelsBuild(sources=sources, pools=pools, labels=labels)
