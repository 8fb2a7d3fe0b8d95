"""diamask: audit and mask away time-period bias in labeled text corpora.

The pipeline: load a labeled corpus, surface suspicious phrase/label
associations (local mutual information), annotate named entities, and
replace person mentions with role tokens resolved from a snapshot-dated
Wikidata index so a classifier can no longer memorize who instead of what.
A deterministic hashed n-gram logistic classifier, McNemar significance
testing, and a dataset-by-policy evaluation matrix measure the effect.
"""

from .analysis import LmiEntry, LmiTable, compute_lmi, export_lmi_table, extract_ngrams, tokenize
from .annotate import (
    AnnotatedDocument,
    Gazetteer,
    NeSpan,
    NeTag,
    load_annotations,
    load_gazetteer,
    tag_with_gazetteer,
    write_annotations,
)
from .corpus import (
    Corpus,
    Document,
    Label,
    SplitMode,
    SplitSpec,
    load_corpus,
    save_corpus,
    split_by_time,
    split_random,
)
from .errors import DataError
from .experiment import (
    DatasetBundle,
    EvalCell,
    FeatureSpace,
    MatrixCell,
    MatrixReport,
    McNemarResult,
    Model,
    SyntheticData,
    TrainConfig,
    evaluate,
    featurize,
    load_model,
    mcnemar,
    run_matrix,
    save_model,
    synth_diachronic_corpus,
    train,
)
from .masking import MaskPolicy, mask_corpus, mask_text
from .wikidata import (
    EntityIndex,
    EntityRecord,
    ResolvedLabel,
    ResolveMode,
    RoleProperty,
    Statement,
    coverage_rate,
    index_dump,
    load_index,
    lookup_by_name,
    resolve_person_label,
    save_index,
    top_labels,
)

__version__ = "0.1.0"
