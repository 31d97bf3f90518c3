import random
import re

import pytest

from wolofspell.alphabet import WOLOF_CHARS
from wolofspell.distance import weighted_levenshtein
from wolofspell.translit import RuleSet, TranslitRule, transform

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
        rules = RuleSet([
            TranslitRule("g", "k", 10),
            TranslitRule("gu", "w", 10),
        ])
        assert transform("gui", rules) == "wi"

    def test_lower_priority_fires_first(self):
        rules = RuleSet([
            TranslitRule("ab", "x", 20),
            TranslitRule("a", "o", 10),
        ])
        # priority 10 wins at position 0 even though "ab" is longer
        assert transform("ab", rules) == "ob"

    def test_single_pass_no_reapplication(self):
        rules = RuleSet([TranslitRule("a", "aa", 10)])
        assert transform("aa", rules) == "aaaa"

    def test_duplicate_pattern_rejected(self):
        with pytest.raises(ValueError):
            RuleSet([TranslitRule("a", "b"), TranslitRule("a", "c")])

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            RuleSet([TranslitRule("", "b")])

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("# test rules\nou\tu\t10\nh\t\t20\n", encoding="utf-8")
        rules = RuleSet.from_file(path)
        assert transform("khoul", rules) == "kul"

    def test_empty_replacement_deletes(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("h\t\t10\n", encoding="utf-8")
        rules = RuleSet.from_file(path)
        assert transform("haha", rules) == "aa"

    def test_bad_column_count_rejected(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("ou\tu\n", encoding="utf-8")
        with pytest.raises(ValueError):
            RuleSet.from_file(path)

    def test_non_integer_priority_names_line(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("h\t\t10\nou\tu\tx\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: priority 'x'")):
            RuleSet.from_file(path)

    def test_duplicate_pattern_in_file_names_line(self, tmp_path):
        # OU and ou are the same pattern once normalized
        path = tmp_path / "rules.tsv"
        path.write_text("OU\tu\t10\nou\tw\t10\n", encoding="utf-8")
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}:2: duplicate pattern 'ou'")):
            RuleSet.from_file(path)

    def test_pattern_with_whitespace_names_line(self, tmp_path):
        # no token holds whitespace, so such a pattern could never fire
        path = tmp_path / "rules.tsv"
        for row, pattern in ((" ou\tu\t1", "' ou'"), ("o u\tu\t1", "'o u'"),
                             ("ou\u00a0\tu\t1", "'ou\\xa0'")):
            path.write_text(f"h\t\t10\n{row}\n", encoding="utf-8")
            with pytest.raises(ValueError, match=re.escape(
                    f"{path}:2: whitespace in pattern {pattern}")):
                RuleSet.from_file(path)

    def test_rules_normalized_like_tokens(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("OU\tU\t10\n", encoding="utf-8")
        rules = RuleSet.from_file(path)
        assert [(r.pattern, r.replacement) for r in rules.rules] == [("ou", "u")]
        assert transform("mousiba", rules) == "musiba"

    def test_default_rules_load(self):
        rules = RuleSet.default()
        assert any(r.pattern == "ou" for r in rules.rules)
