"""Dataset forge, training math and evaluation for asymmetric legal case retrieval."""

from .augment import (
    AugmentConfig,
    ElementIndex,
    TrainingPair,
    build_element_index,
    element_similarity,
    find_augmented_positive,
    mix_pairs,
)
from .corpus import (
    ArticleSplitRule,
    CaseDocument,
    CorpusFilterConfig,
    LegalElements,
    PrisonTerm,
    TermKind,
    classify_article,
    extract_elements,
    filter_corpus,
    parse_case,
)
from .errors import LexforgeError
from .evaluation import (
    MetricsReport,
    average_precision,
    evaluate_run,
    ndcg_at_k,
    precision_at_k,
    restrict_to_annotated,
)
from .querygen import (
    EntityTagger,
    GenerationClient,
    OfflineTemplateClient,
    PatternTagger,
    PromptTemplate,
    QueryRecord,
    RemoteGenerationClient,
    ReplacementDictionary,
    anonymize,
    assemble_prompt,
    generate_query,
)
from .retrieval import (
    Bm25Index,
    Bm25Params,
    SegmentConfig,
    bm25_score,
    dense_score,
    search,
    segment,
)
from .testkit import SyntheticSpec, generate_corpus, generate_qrels
from .training import (
    LossConfig,
    ToyEmbedder,
    TrainSchedule,
    cosine_matrix,
    false_negative_mask,
    in_batch_loss,
    train_toy,
)

__version__ = "0.1.0"
