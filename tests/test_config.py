"""The config loader: each key lands on its field, each bad input is a usage error."""

import re
from pathlib import Path

import pytest

from lexforge import cli
from lexforge.augment import AugmentConfig
from lexforge.config import (
    ClientSettings,
    LossConfig,
    PipelineConfig,
    config_keys,
    load_config,
)
from lexforge.corpus import CorpusFilterConfig
from lexforge.errors import UsageError
from lexforge.retrieval import Bm25Params, SegmentConfig

README = Path(__file__).resolve().parents[1] / "README.md"

EVERY_KEY = """
[run]
max_query_chars = 300

[client]
endpoint = http://api.test/v1
model = m1
api_key = k1
timeout = 5.5
retries = 7
backoff = 0.25
max_in_flight = 2

[filter]
min_fact_chars = 50

[augment]
proportion = 0.4
weight_ancillary = 0.3
weight_term = 0.9
match_mode = shared_charge

[loss]
temperature = 0.2
masking = off

[segment]
max_len = 512
stride = 256

[bm25]
k1 = 0.9
b = 0.4
"""


def _ini(tmp_path, text, name="pipeline.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def _accepted():
    return {(section, key) for section, (_, keys) in config_keys().items() for key in keys}


def _keys_in(text):
    section, keys = None, set()
    for line in text.splitlines():
        if m := re.fullmatch(r"\[(\w+)\]", line.strip()):
            section = m.group(1)
        elif "=" in line:
            keys.add((section, line.split("=")[0].strip()))
    return keys


class TestLoader:
    def test_no_file_gives_defaults(self):
        assert load_config(env={}) == PipelineConfig()

    def test_each_key_lands_on_its_field(self, tmp_path):
        cfg = load_config(_ini(tmp_path, EVERY_KEY), env={})
        assert cfg == PipelineConfig(
            max_query_chars=300,
            client=ClientSettings(endpoint="http://api.test/v1", model="m1", api_key="k1",
                                  timeout=5.5, retries=7, backoff=0.25, max_in_flight=2),
            filter=CorpusFilterConfig(min_fact_chars=50),
            augment=AugmentConfig(proportion_augmented=0.4, weight_ancillary=0.3,
                                  weight_term=0.9, match_mode="shared_charge"),
            loss=LossConfig(temperature=0.2, masking_enabled=False),
            segment=SegmentConfig(max_len=512, stride=256),
            bm25=Bm25Params(k1=0.9, b=0.4))

    def test_every_accepted_key_is_covered(self):
        assert _keys_in(EVERY_KEY) == _accepted()

    def test_benchmark_segment_window(self, tmp_path):
        cfg = load_config(_ini(tmp_path, "[segment]\nmax_len = 128\nstride = 64\n"), env={})
        assert cfg.segment == SegmentConfig(max_len=128, stride=64)
        assert cfg == PipelineConfig(segment=SegmentConfig(max_len=128, stride=64))

    def test_stride_follows_max_len(self, tmp_path):
        cfg = load_config(_ini(tmp_path, "[segment]\nmax_len = 128\n"), env={})
        assert cfg.segment.step == 128
        assert cfg.segment == SegmentConfig(max_len=128, stride=128)

    def test_environment_overrides_file(self, tmp_path):
        path = _ini(tmp_path, "[client]\nendpoint = http://file\nmodel = from-file\n")
        cfg = load_config(path, env={"LEXFORGE_ENDPOINT": "http://env",
                                     "LEXFORGE_API_KEY": "secret"})
        assert (cfg.client.endpoint, cfg.client.model, cfg.client.api_key) == (
            "http://env", "from-file", "secret")

    def test_readme_block_loads_and_lists_every_key(self, tmp_path):
        block = re.search(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        text = block.group(1)
        assert _keys_in(text) == _accepted()
        cfg = load_config(_ini(tmp_path, text), env={})
        assert cfg.segment == PipelineConfig().segment
        assert cfg.augment == PipelineConfig().augment

    def test_unreadable_file_is_usage_error(self, tmp_path):
        with pytest.raises(UsageError, match="no section headers"):
            load_config(_ini(tmp_path, "k1 = 1\n"), env={})


BAD_FILES = [
    ("[bm25]\nb = 2\n", "[bm25] b = '2': b must be in [0, 1]"),
    ("[bm25]\nk = 1.0\n", "[bm25] k: unknown key"),
    ("[filter]\nrequire_extractable_elements = false\n",
     "[filter] require_extractable_elements: unknown key"),
    ("[segmnt]\nmax_len = 128\n", "unknown section [segmnt]"),
    ("[run]\nseed = 7\n", "[run] seed: seeds come only from --seed"),
    ("[augment]\nseed = 7\n", "[augment] seed: seeds come only from --seed"),
    ("[loss]\nmasking = maybe\n", "[loss] masking = 'maybe': not a boolean"),
    ("[augment]\nmatch_mode = bogus\n", "[augment] match_mode = 'bogus'"),
    ("[augment]\nweight_term = inf\n", "[augment] weight_term = 'inf': not a finite number"),
    ("[augment]\nweight_ancillary = nan\n",
     "[augment] weight_ancillary = 'nan': not a finite number"),
    ("[augment]\nweight_ancillary = 1e308\nweight_term = 1e308\n",
     "weight_term = '1e308': weight sum must be finite"),
    ("[bm25]\nk1 = nan\n", "[bm25] k1 = 'nan': not a finite number"),
    ("[bm25]\nk1 = inf\n", "[bm25] k1 = 'inf': not a finite number"),
    ("[loss]\ntemperature = nan\n", "[loss] temperature = 'nan': not a finite number"),
    ("[loss]\ntemperature = inf\n", "[loss] temperature = 'inf': not a finite number"),
    ("[filter]\nmin_fact_chars = ten\n", "[filter] min_fact_chars = 'ten'"),
    ("[augment]\nproportion_augmented = 0.5\n", "[augment] proportion_augmented: unknown key"),
    ("[client]\ntimeout = -1\n", "[client] timeout = '-1': timeout must be > 0"),
    ("[client]\nretries = 0\n", "[client] retries = '0': retries must be >= 1"),
    ("[client]\nbackoff = -0.5\n", "[client] backoff = '-0.5': backoff must be >= 0"),
    ("[client]\nmax_in_flight = -3\n",
     "[client] max_in_flight = '-3': max_in_flight must be >= 1"),
]

BAD_FLAGS = [
    (["augment", "--queries", "q", "--elements", "e", "--output", "o",
      "--proportion", "1.5"], "--proportion = '1.5': proportion_augmented must be in [0, 1]"),
    (["search", "--queries", "q", "--corpus", "c", "--output", "o", "--k", "0"],
     "--k = '0': k must be >= 1"),
    (["search", "--queries", "q", "--corpus", "c", "--output", "o", "--scorer", "dense"],
     "dense scoring needs --checkpoint"),
    (["train", "--pairs", "p", "--queries", "q", "--corpus", "c", "--output", "o",
      "--epochs", "0"], "--epochs = '0': epochs must be >= 1"),
    (["train", "--pairs", "p", "--queries", "q", "--corpus", "c", "--output", "o",
      "--batch-size", "two"], "--batch-size = 'two'"),
    (["train", "--pairs", "p", "--queries", "q", "--corpus", "c", "--output", "o",
      "--learning-rate", "nan"], "--learning-rate = 'nan': not a finite number"),
    (["train", "--pairs", "p", "--queries", "q", "--corpus", "c", "--output", "o",
      "--hash-buckets", "0"], "--hash-buckets = '0': hash_buckets must be >= 1"),
    (["train", "--pairs", "p", "--queries", "q", "--corpus", "c", "--output", "o",
      "--hash-buckets", "-4"], "--hash-buckets = '-4': hash_buckets must be >= 1"),
    (["train", "--pairs", "p", "--queries", "q", "--corpus", "c", "--output", "o",
      "--dim", "0"], "--dim = '0': dim must be >= 1"),
    (["fixtures", "--out", "d", "--charges", "99"], "--charges = '99'"),
    (["fixtures", "--out", "d", "--n-queries", "-1"], "--n-queries = '-1': n_queries must be >= 0"),
    (["fixtures", "--out", "d", "--n-cases", "-1"], "--n-cases = '-1': n_cases must be >= 0"),
    (["fixtures", "--out", "d", "--n-rulings", "-2"], "--n-rulings = '-2': n_rulings must be >= 0"),
    (["fixtures", "--out", "d", "--n-short-facts", "-3"],
     "--n-short-facts = '-3': n_short_facts must be >= 0"),
    (["synthesize", "--corpus", "c", "--elements", "e", "--output", "o", "--limit", "-1"],
     "--limit = -1: limit must be >= 0"),
    (["synthesize", "--corpus", "c", "--elements", "e", "--output", "o",
      "--max-in-flight", "0"], "--max-in-flight = '0': max_in_flight must be >= 1"),
]


class TestUsageErrors:
    """Each bad input exits 1 with one line naming where it came from."""

    def _one_line(self, capsys, argv):
        assert cli.main([str(a) for a in argv]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("usage error: ")
        return err

    @pytest.mark.parametrize("text,expected", BAD_FILES)
    def test_bad_config_file(self, tmp_path, capsys, text, expected):
        path = _ini(tmp_path, text)
        err = self._one_line(capsys, ["--config", path, "report", tmp_path / "m.json"])
        assert f"{path} " in err or f"{path}:" in err
        assert expected in err

    @pytest.mark.parametrize("argv,expected", BAD_FLAGS)
    def test_bad_flag(self, tmp_path, capsys, monkeypatch, argv, expected):
        monkeypatch.chdir(tmp_path)
        assert expected in self._one_line(capsys, argv)
