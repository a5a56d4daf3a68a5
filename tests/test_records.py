"""The record types: construction by keyword with defaults, == field by field,
the immutability of Candidate and FilterReport, and a ConfigError for every
bad config value, whether a config is built or derived from another one with
_replace."""

import math

import pytest

from mtkit.bleu import BleuResult
from mtkit.candidates import Candidate
from mtkit.corpus import FilterConfig, FilterReport, ParallelExample, RULE_ORDER
from mtkit.decode import DecodeConfig
from mtkit.domain import SelectionConfig
from mtkit.errors import ConfigError

# (record type, required fields, defaults of the other fields, another valid
# value of each field)
_RECORDS = [
    (BleuResult, dict(score=1.0, precisions=(1.0, 0.5, 0.25, 0.125), brevity_penalty=1.0,
                      hyp_len=3, ref_len=3), {},
     dict(score=2.0, precisions=(1.0,) * 4, brevity_penalty=0.5, hyp_len=4, ref_len=4)),
    (Candidate, dict(tokens=(0, 2), fwd_logprob=-1.0),
     dict(lm_logprob=None, rev_logprob=None, fused_score=None, combined_score=None),
     dict(tokens=(1, 2), fwd_logprob=-2.0, lm_logprob=-1.0, rev_logprob=-1.0, fused_score=-1.0,
          combined_score=-1.0)),
    (ParallelExample, dict(source="a b", target="x y"), dict(external_score=None),
     dict(source="c", target="z", external_score=0.7)),
    (FilterReport, {}, dict(total=0, kept=0, rejected=dict.fromkeys(RULE_ORDER, 0), malformed=0),
     dict(total=1, kept=1, rejected=dict.fromkeys(RULE_ORDER, 1), malformed=1)),
    (FilterConfig, {}, dict(max_len_tokens=250, max_len_ratio=1.3, min_external_score=0.6,
                            required_langs=None, min_len_tokens=1),
     dict(max_len_tokens=20, max_len_ratio=2.0, min_external_score=0.5,
          required_langs=("en", "de"), min_len_tokens=2)),
    (SelectionConfig, {}, dict(stage1_threshold=0.5, final_threshold=0.90),
     dict(stage1_threshold=0.6, final_threshold=0.95)),
    (DecodeConfig, {}, dict(beam_size=4, max_len=50, n_candidates=15, length_penalty_alpha=0.0,
                            fusion_lambda=0.0, sample_k=500, seed=0),
     dict(beam_size=5, max_len=40, n_candidates=5, length_penalty_alpha=1.0, fusion_lambda=0.1,
          sample_k=5, seed=1)),
]


@pytest.mark.parametrize("record, required, defaults, other", _RECORDS,
                         ids=[r.__name__ for r, *_ in _RECORDS])
def test_keyword_construction_defaults_and_field_equality(record, required, defaults, other):
    made = record(**required)
    assert {name: getattr(made, name) for name in other} == {**required, **defaults}
    assert made == record(**required)
    # a record differs from one that differs in any single field
    for name, value in other.items():
        assert record(**{**required, name: value}) != made, name


def test_candidate_is_immutable():
    cand = Candidate(tokens=(0, 2), fwd_logprob=-1.0)
    with pytest.raises(AttributeError):
        cand.rev_logprob = -2.0
    filled = cand._replace(rev_logprob=-2.0, lm_logprob=-3.0, combined_score=-6.0)
    assert filled == Candidate(tokens=(0, 2), fwd_logprob=-1.0, lm_logprob=-3.0,
                               rev_logprob=-2.0, combined_score=-6.0)
    assert filled == ((0, 2), -1.0, -3.0, -2.0, None, -6.0)  # a plain tuple of its fields
    assert cand == Candidate(tokens=(0, 2), fwd_logprob=-1.0)
    assert cand.rev_logprob is None and cand.combined_score is None
    assert "rev_logprob=-2.0" in repr(filled)


def test_filter_report_is_immutable_and_merge_builds_a_new_one():
    first = FilterReport(total=3, kept=2, rejected={**dict.fromkeys(RULE_ORDER, 0), "ratio": 1})
    second = FilterReport(total=2, kept=0, rejected={**dict.fromkeys(RULE_ORDER, 0), "score": 2},
                          malformed=1)
    with pytest.raises(AttributeError):
        first.total = 4
    merged = first.merge(second)
    assert merged == FilterReport(5, 2, {**dict.fromkeys(RULE_ORDER, 0), "ratio": 1, "score": 2}, 1)
    assert first == (3, 2, {**dict.fromkeys(RULE_ORDER, 0), "ratio": 1}, 0)
    assert second == (2, 0, {**dict.fromkeys(RULE_ORDER, 0), "score": 2}, 1)
    assert merged.rejected is not first.rejected and merged.rejected is not second.rejected
    # each report built with the default gets its own zero counts
    assert FilterReport().rejected is not FilterReport().rejected
    assert first._replace(malformed=7) == (3, 2, first.rejected, 7) and first.malformed == 0


_BAD = [
    (DecodeConfig, dict(beam_size=0)),
    (DecodeConfig, dict(max_len=0)),
    (DecodeConfig, dict(n_candidates=0)),
    (DecodeConfig, dict(fusion_lambda=-0.1)),
    (DecodeConfig, dict(fusion_lambda=math.inf)),
    (DecodeConfig, dict(length_penalty_alpha=math.nan)),
    (DecodeConfig, dict(length_penalty_alpha=1000.0)),
    (DecodeConfig, dict(sample_k=0)),
    (FilterConfig, dict(max_len_ratio=0.5)),
    (FilterConfig, dict(max_len_ratio=math.nan)),
    (FilterConfig, dict(min_external_score=1.5)),
    (FilterConfig, dict(required_langs=("en",))),
    (FilterConfig, dict(min_len_tokens=-1)),
    (FilterConfig, dict(min_len_tokens=300)),
    (SelectionConfig, dict(stage1_threshold=0.95)),
    (SelectionConfig, dict(stage1_threshold=-0.1)),
    (SelectionConfig, dict(final_threshold=1.5)),
]


@pytest.mark.parametrize("config, bad", _BAD,
                         ids=[f"{c.__name__}-{next(iter(b))}" for c, b in _BAD])
def test_every_bad_config_value_is_refused_when_built_or_derived(config, bad):
    # the sample stage and grid_search_lambdas derive per-line and per-point
    # configs with _replace, so it must check what it builds too
    with pytest.raises(ConfigError) as built:
        config(**bad)
    with pytest.raises(ConfigError) as derived:
        config()._replace(**bad)
    assert str(derived.value) == str(built.value)
