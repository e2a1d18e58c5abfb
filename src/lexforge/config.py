"""Pipeline configuration: one INI file, environment and flag overrides.

A section is a field of :class:`PipelineConfig` (``[run]`` holds its own
scalars), a key is a field of that section's dataclass, and a value is
parsed by the field's annotation, so each default is written once. The
environment (``LEXFORGE_ENDPOINT``, ``LEXFORGE_MODEL``, ``LEXFORGE_API_KEY``)
overrides the client credentials; flags override both. Seeds come only
from ``--seed``.

Every section's dataclass is defined here and the stage modules import it,
so this module imports only :mod:`errors` and loading a config loads no
stage.
"""

from __future__ import annotations

import configparser
import math
import os
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_type_hints

from .errors import UsageError

ENV_PREFIX = "LEXFORGE_"
DEFAULT_MAX_QUERY_CHARS = 400
#: The two keys named apart from the field they set, by field.
KEY_OF_FIELD = {"proportion_augmented": "proportion", "masking_enabled": "masking"}


@dataclass
class ClientSettings:
    endpoint: str = ""
    model: str = ""
    api_key: str = ""
    timeout: float = 30.0
    retries: int = 3
    backoff: float = 1.0
    max_in_flight: int = 4

    def __post_init__(self):
        if not self.timeout > 0:
            raise ValueError("timeout must be > 0")
        if self.retries < 1:
            raise ValueError("retries must be >= 1")
        if not self.backoff >= 0:
            raise ValueError("backoff must be >= 0")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")


@dataclass(frozen=True)
class LossConfig:
    """The in-batch contrastive loss that :mod:`lexforge.training` computes."""

    temperature: float = 1.0
    masking_enabled: bool = True

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")


@dataclass(frozen=True)
class CorpusFilterConfig:
    """Which records :func:`lexforge.corpus.filter_corpus` admits."""

    min_fact_chars: int = 100

    def __post_init__(self):
        if self.min_fact_chars < 0:
            raise ValueError("min_fact_chars must be >= 0")


@dataclass(frozen=True)
class AugmentConfig:
    """The positive search and pair mix of :mod:`lexforge.augment`."""

    proportion_augmented: float = 0.7
    weight_ancillary: float = 0.5
    weight_term: float = 0.5
    seed: int = 0
    match_mode: str = "exact_main"  # or "shared_charge"

    def __post_init__(self):
        if not 0.0 <= self.proportion_augmented <= 1.0:
            raise ValueError("proportion_augmented must be in [0, 1]")
        if self.weight_ancillary < 0 or self.weight_term < 0:
            raise ValueError("weights must be non-negative")
        if not math.isfinite(self.weight_ancillary + self.weight_term):
            raise ValueError("weight sum must be finite")
        if self.weight_ancillary + self.weight_term <= 0:
            raise ValueError("weight sum must be positive")
        if self.match_mode not in ("exact_main", "shared_charge"):
            raise ValueError(f"unknown match mode: {self.match_mode}")


@dataclass(frozen=True)
class SegmentConfig:
    """Window length and stride, in characters, of dense scoring in
    :mod:`lexforge.retrieval`.

    The window limit plays the role of a model's maximum input length; it
    is counted in characters here because token counts depend on an
    external tokenizer. ``stride`` defaults to ``max_len`` (non-overlapping
    windows that reassemble to the original text). ``step`` is the stride in
    effect and decides equality; ``stride`` keeps the value given, so a
    ``dataclasses.replace`` with a new ``max_len`` and no stride steps by
    the new length.
    """

    max_len: int = 2048
    stride: int | None = field(default=None, compare=False)
    step: int = field(init=False)

    def __post_init__(self):
        if self.max_len < 1:
            raise ValueError("max_len must be positive")
        step = self.max_len if self.stride is None else self.stride
        if step < 1 or step > self.max_len:
            raise ValueError("need 1 <= stride <= max_len")
        object.__setattr__(self, "step", step)


@dataclass(frozen=True)
class Bm25Params:
    """The BM25 parameters of :mod:`lexforge.retrieval`."""

    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self):
        if self.k1 < 0:
            raise ValueError("k1 must be >= 0")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("b must be in [0, 1]")


@dataclass
class PipelineConfig:
    max_query_chars: int = DEFAULT_MAX_QUERY_CHARS
    client: ClientSettings = field(default_factory=ClientSettings)
    filter: CorpusFilterConfig = field(default_factory=CorpusFilterConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    segment: SegmentConfig = field(default_factory=SegmentConfig)
    bm25: Bm25Params = field(default_factory=Bm25Params)


def config_keys() -> dict[str, tuple[type, dict[str, str]]]:
    """Each section's dataclass and its keys, mapped to the fields they set."""
    sections = {name: cls for name, cls in get_type_hints(PipelineConfig).items()
                if is_dataclass(cls)}
    return {section: (cls, {KEY_OF_FIELD.get(f.name, f.name): f.name for f in fields(cls)
                            if f.init and f.name != "seed" and f.name not in sections})
            for section, cls in {"run": PipelineConfig, **sections}.items()}


def parse(target, values: Mapping[str, tuple[str, str]]) -> dict:
    """Parse ``values``, (source, text) by field or parameter name, by the
    annotations of ``target``; the source (a flag, or a file, section and
    key) names a text that fails to parse, or a number that is not finite,
    in the UsageError raised."""
    hints = get_type_hints(target.__init__ if isinstance(target, type) else target)
    booleans = configparser.ConfigParser.BOOLEAN_STATES
    parsed = {}
    for name, (source, text) in values.items():
        # an optional field (`int | None`) parses as its other type
        kind = next((t for t in get_args(hints[name]) if t is not type(None)), hints[name])
        try:
            if kind is bool and text.lower() not in booleans:
                raise ValueError("not a boolean")
            parsed[name] = booleans[text.lower()] if kind is bool else kind(text)
            if kind is float and not math.isfinite(parsed[name]):
                raise ValueError("not a finite number")
        except ValueError as exc:
            raise UsageError(f"{source} = {text!r}: {exc}") from exc
    return parsed


def with_values(target, values: Mapping[str, tuple[str, str]], **fixed):
    """A class called, or a dataclass instance copied, with the parsed
    ``values`` and the ``fixed`` keyword arguments; a ValueError it raises is
    a UsageError naming the sources of ``values``."""
    cls = target if isinstance(target, type) else type(target)
    kwargs = {**parse(cls, values), **fixed}
    try:
        return cls(**kwargs) if target is cls else replace(target, **kwargs)
    except ValueError as exc:
        sources = ", ".join(f"{source} = {text!r}" for source, text in values.values())
        raise UsageError(f"{sources}: {exc}") from exc


def load_config(path: str | Path | None = None,
                env: Mapping[str, str] = os.environ) -> PipelineConfig:
    """Read a config file (optional) and apply environment overrides."""
    keys = config_keys()
    values: dict[str, dict[str, tuple[str, str]]] = {section: {} for section in keys}
    if path is not None:
        if not Path(path).exists():
            raise UsageError(f"config file not found: {path}")
        try:
            text = Path(path).read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise UsageError(f"{path}: not UTF-8 at byte {exc.start + 1}") from None
        parser = configparser.ConfigParser()
        try:
            parser.read_string(text, source=os.fspath(path))
            for section in parser.sections():
                if section not in keys:
                    raise UsageError(f"{path}: unknown section [{section}]")
                known = keys[section][1]
                for key, text in parser.items(section):
                    source = f"{path} [{section}] {key}"
                    if key not in known:
                        why = "seeds come only from --seed" if key == "seed" else "unknown key"
                        raise UsageError(f"{source}: {why}; known: {', '.join(known)}")
                    values[section][known[key]] = (source, text)
        except configparser.Error as exc:
            raise UsageError(f"{path}: {' '.join(str(exc).split())}") from exc
    for name in ("endpoint", "model", "api_key"):
        var = ENV_PREFIX + name.upper()
        if var in env:
            values["client"][name] = (var, env[var])
    return with_values(PipelineConfig, values.pop("run"), **{
        section: with_values(keys[section][0], section_values)
        for section, section_values in values.items()})
