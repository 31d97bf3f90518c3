import itertools
import random
import re
import unicodedata

import pytest
from hypothesis import given, settings, strategies as st

from wolofspell.alphabet import WOLOF_CHARS
from wolofspell.distance import weighted_levenshtein
from wolofspell.translit import RuleSet, _default_ruleset, transform

import oracles
from conftest import KNOWN_MISSPELLINGS


class TestTransform:
    def test_french_ou_becomes_u(self):
        assert transform("mousiba") == "musiba"

    def test_kh_becomes_x_lengthening_left_to_distance(self):
        assert transform("sakhar") == "saxar"

    def test_identity_on_clean_wolof_word(self):
        assert transform("dëkk") == "dëkk"

    def test_gn_becomes_enye(self):
        assert transform("gnopati") == "ñopati"

    def test_eu_becomes_umlaut_e(self):
        assert transform("deuk") == "dëk"

    def test_gui_becomes_gi(self):
        assert transform("guinaw") == "ginaw"

    def test_final_silent_e_dropped_after_consonant(self):
        assert transform("thiossane") == "ciossan"

    def test_final_e_kept_after_vowel(self):
        assert transform("bae") == "bae"

    def test_foreign_letters_eliminated_after_rules(self):
        # h survives no rule here and is deleted at the end
        assert transform("hama") == "ama"

    def test_may_become_empty(self):
        assert transform("hv") == ""

    def test_output_is_wolof_only(self):
        rng = random.Random(31)
        pool = sorted(WOLOF_CHARS) + list("hvzceau")
        for _ in range(300):
            word = "".join(rng.choice(pool) for _ in range(rng.randint(1, 10)))
            for c in transform(word):
                assert c in WOLOF_CHARS, (word, transform(word))

    def test_deterministic(self):
        for word in ["mousiba", "thiossane", "deuk"]:
            assert transform(word) == transform(word)

    def test_never_moves_away_from_gold(self, model):
        for misspelling, gold in KNOWN_MISSPELLINGS:
            before = weighted_levenshtein(misspelling, gold, model)
            after = weighted_levenshtein(transform(misspelling), gold, model)
            assert after <= before, (misspelling, gold, before, after)


class TestRuleSet:
    def test_longest_pattern_wins_within_priority(self):
        rules = RuleSet({"g": "k", "gu": "w"})
        assert transform("gui", rules) == "wi"

    def test_single_pass_no_reapplication(self):
        rules = RuleSet({"a": "aa"})
        assert transform("aa", rules) == "aaaa"

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            RuleSet({"": "b"})

    def test_pattern_longer_than_four_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="pattern 'abcde'"):
            RuleSet({"abcde": "x"})
        path = tmp_path / "rules.tsv"
        path.write_text("h\t\nabcde\tx\n", encoding="utf-8")
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}:2: pattern 'abcde'")):
            RuleSet.from_file(path)

    def test_empty_rule_set_rewrites_nothing(self):
        # no fallback to the bundled rules: only letter elimination runs
        assert transform("khoul", RuleSet({})) == "koul"
        assert transform("khoul") == "xul"

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("# test rules\nou\tu\nh\t\n", encoding="utf-8")
        rules = RuleSet.from_file(path)
        assert transform("khoul", rules) == "kul"

    def test_empty_replacement_deletes(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("h\t\n", encoding="utf-8")
        rules = RuleSet.from_file(path)
        assert transform("haha", rules) == "aa"

    def test_bad_column_count_rejected(self, tmp_path):
        path = tmp_path / "rules.tsv"
        for row in ("ou", "ou\tu\t10"):
            path.write_text(f"h\t\n{row}\n", encoding="utf-8")
            with pytest.raises(ValueError, match=re.escape(
                    f"{path}:2: expected pattern<TAB>replacement")):
                RuleSet.from_file(path)

    def test_duplicate_pattern_in_file_names_line(self, tmp_path):
        # OU and ou are the same pattern once normalized
        path = tmp_path / "rules.tsv"
        path.write_text("OU\tu\nou\tw\n", encoding="utf-8")
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}:2: duplicate pattern 'ou'")):
            RuleSet.from_file(path)

    def test_pattern_with_whitespace_names_line(self, tmp_path):
        # no token holds whitespace, so such a pattern could never fire
        path = tmp_path / "rules.tsv"
        for row, pattern in ((" ou\tu", "' ou'"), ("o u\tu", "'o u'"),
                             ("ou\u00a0\tu", "'ou\\xa0'")):
            path.write_text(f"h\t\n{row}\n", encoding="utf-8")
            with pytest.raises(ValueError, match=re.escape(
                    f"{path}:2: whitespace in pattern {pattern}")):
                RuleSet.from_file(path)

    def test_rules_normalized_like_tokens(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("OU\tU\n", encoding="utf-8")
        rules = RuleSet.from_file(path)
        assert rules.rules == {"ou": "u"}
        assert transform("mousiba", rules) == "musiba"

    def test_mapping_read_like_the_file(self):
        # an uppercase pattern or replacement, a decomposed accent and
        # padding are normalized as a file's rows are
        assert transform("khar", RuleSet({"Kh": "x"})) == "xar"
        assert transform("khar", RuleSet({"kh": "X"})) == "xar"
        decomposed = unicodedata.normalize("NFD", "é")
        assert len(decomposed) == 2
        rules = RuleSet({"a": decomposed, "OU": " U "})
        assert rules.rules == {"a": "é", "ou": "u"}
        assert transform("ba", rules) == "bé"

    def test_mapping_patterns_equal_once_normalized_rejected(self):
        with pytest.raises(ValueError, match="duplicate pattern 'ou'"):
            RuleSet({"OU": "u", "ou": "w"})
        with pytest.raises(ValueError, match="duplicate pattern 'é'"):
            RuleSet({"é": "e", unicodedata.normalize("NFD", "é"): "e"})

    def test_default_rules_load(self):
        rules = _default_ruleset()
        assert rules.rules["ou"] == "u"
        assert transform("mousiba") == transform("mousiba", rules)


RULE_MAPS = st.dictionaries(st.text("aehk", min_size=1, max_size=4),
                            st.text("aeëkx", max_size=3), max_size=6)


class TestAgainstOracle:
    """``transform`` against ``oracles.transliterate``, which rewrites with
    one regular expression instead of the per-position lookups."""

    @settings(max_examples=400, deadline=None)
    @given(rules=RULE_MAPS, word=st.text("aehkx", max_size=12))
    def test_generated_rules(self, rules, word):
        assert transform(word, RuleSet(rules)) == oracles.transliterate(word, rules)

    def test_bundled_rules_on_every_short_string(self):
        rules = _default_ruleset().rules
        letters = sorted(set("".join(rules)))
        for size in range(1, 5):
            for chars in itertools.product(letters, repeat=size):
                word = "".join(chars)
                assert transform(word) == oracles.transliterate(word, rules), word
