"""Lexicon indexing and rhythm-constrained phrase search."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from arud import filler
from arud.errors import ScriptError
from arud.filler import (
    BeatTrie,
    FillQuery,
    JUNCTURE_SLACK,
    Lexicon,
    LexiconEntry,
    _prefix_compatible,
    _trie_candidates,
    edit_row,
    fill,
    index_lexicon,
    matches_target,
    next_row,
    phrase_beats_in_context,
)
from arud.scansion import beat_segments, scan, scan_readings
from arud.script import ScriptLine, parse_line


class TestIndex:
    def test_prefix_tree_keys(self):
        # each word is found under its own isolated beats
        lex = index_lexicon(["مَا", "لَهُ"])
        assert fill(FillQuery(target="10", max_words=1), lex) == ["مَا"]
        assert fill(FillQuery(target="11", max_words=1), lex) == ["لَهُ"]
        assert len(lex) == 2

    def test_empty_stream(self):
        lex = index_lexicon([])
        assert len(lex) == 0 and fill(FillQuery(target="10"), lex) == []

    def test_unscannable_word_skipped(self):
        # geminated letter with no vowel cannot scan
        lex = index_lexicon(["مَا", "بَمّ"])
        assert len(lex) == 1

    def test_duplicates_collapse(self):
        lex = index_lexicon(["مَا", "مَا", "مَا"])
        assert len(lex) == 1

    def test_multi_word_entry_skipped(self):
        lex = index_lexicon(["مَا لَهُ"])
        assert len(lex) == 0


class TestPrefixPruning:
    def test_exact_prefix_within_slack(self):
        assert _prefix_compatible("110", "11010", 2)

    def test_gross_mismatch_rejected(self):
        assert not _prefix_compatible("000000", "111111", 2)

    def test_shifted_by_insertion_still_viable(self):
        # isolated "11"+"11010" vs in-context "110"+"11010": the isba
        # insertion shifts later positions; must not be pruned
        assert _prefix_compatible("1111010", "11011010", 4)

    def test_overlong_rejected(self):
        assert not _prefix_compatible("1" * 10, "11", 2)

    def test_short_partial_always_viable(self):
        assert _prefix_compatible("01", "11010", 2)


class TestFill:
    def test_single_exact_match(self):
        lex = index_lexicon(["مَا"])
        assert fill(FillQuery(target="10"), lex) == ["مَا"]

    def test_juncture_beats_concatenation(self):
        # isolated beats are "11"+"10" = "1110", but in context the
        # pronoun clitic gains its long vowel: target "11010" matches
        lex = index_lexicon(["لَهُ", "مَا", "عَلَّمَ"])
        assert fill(FillQuery(target="11010"), lex) == ["لَهُ مَا"]

    def test_unvocalized_start_unsatisfiable(self):
        lex = index_lexicon(["لَهُ", "مَا", "عَلَّمَ"])
        assert fill(FillQuery(target="01"), lex) == []

    def test_verse_final_extension(self):
        # target needs the verse-final long vowel after the last fatha
        lex = index_lexicon(["قَتَلَ"])
        assert fill(FillQuery(target="1110", verse_final=True), lex) == \
            ["قَتَلَ"]
        assert fill(FillQuery(target="1110"), lex) == []

    def test_left_context_juncture(self):
        # after لَهُ the candidate مَا completes the isba pattern
        lex = index_lexicon(["مَا", "عَلَّمَ"])
        out = fill(FillQuery(target="10", left_context="لَهُ"), lex)
        assert out == ["مَا"]

    def test_max_results_truncates(self):
        lex = index_lexicon(["مَا", "لَا", "يَا"])
        out = fill(FillQuery(target="10", max_results=2), lex)
        assert len(out) == 2
        assert out == sorted(out)

    def test_optional_plural_m_in_context(self):
        # isolated لَهُمْ is "110"; only the licensed reading لَهُمُو gives
        # "1110" before مَا
        lex = index_lexicon(["لَهُمْ", "مَا", "قَدْ"])
        query = FillQuery(target="1110", right_context="مَا", max_words=1)
        assert fill(query, lex) == ["لَهُمْ"]

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            FillQuery(target="102")
        with pytest.raises(ValueError):
            FillQuery(target="")


def brute_force(query, surfaces, tables=None):
    """Oracle: enumerate every phrase up to max_words, rescan in context."""
    left = parse_line(query.left_context).words \
        if query.left_context.strip() else ()
    right = parse_line(query.right_context).words \
        if query.right_context.strip() else ()
    words = {s: parse_line(s).words[0] for s in surfaces}
    found = set()
    for n in range(1, query.max_words + 1):
        for combo in itertools.product(sorted(words), repeat=n):
            phrase = [words[s] for s in combo]
            if matches_target(phrase, left, right, query, tables):
                found.add(" ".join(combo))
    return sorted(found)[:query.max_results]


class TestBoundedCompleteness:
    LEXICON = ["مَا", "لَهُ", "عَلَّمَ", "مَعًا", "مِنْ", "قَدْ", "لَا",
               "قَتَلَ"]

    @pytest.mark.parametrize("target", ["10", "11010", "1011", "110110",
                                        "101010", "01"])
    def test_matches_brute_force(self, target):
        lex = index_lexicon(self.LEXICON)
        query = FillQuery(target=target, max_words=2)
        assert fill(query, lex) == brute_force(query, self.LEXICON)

    def test_with_context(self):
        lex = index_lexicon(self.LEXICON)
        query = FillQuery(target="1010", left_context="عَلَّمَ",
                          right_context="مَعًا", max_words=2)
        assert fill(query, lex) == brute_force(query, self.LEXICON)

    # In isolation five words scan as 10, two as 11 and two as 1010,
    # which is also 10 twice.
    SHARED_PATTERNS = ["مَا", "لَا", "يَا", "قَدْ", "مِنْ", "لَهُ", "بِهِ",
                       "لَهُمْ", "بَدْرٌ", "دَمْعٌ"]

    @pytest.mark.parametrize("target", ["1010", "101110", "11010",
                                        "1110", "10101010"])
    @pytest.mark.parametrize("left, right", [("", ""),
                                             ("عَلَّمَ", "مَعًا")])
    def test_shared_patterns_walk_once(self, monkeypatch, target, left,
                                       right):
        walks = []

        def counted(*args):
            walks.append(args)
            return _trie_candidates(*args)

        lex = index_lexicon(self.SHARED_PATTERNS)
        query = FillQuery(target=target, left_context=left,
                          right_context=right, max_words=3)
        monkeypatch.setattr(filler, "_trie_candidates", counted)
        got = fill(query, lex)
        assert got == brute_force(query, self.SHARED_PATTERNS)
        # At most one walk per distinct prefix of isolated beats at each
        # depth: the root, then one or two words.
        patterns = {scan(parse_line(s), sentence_initial=False)[1]
                    for s in self.SHARED_PATTERNS}
        assert patterns == {"10", "11", "110", "1010"}
        pairs = {a + b for a in patterns for b in patterns}
        assert len(walks) <= 1 + len(patterns) + len(pairs)


class TestSoundness:
    def test_results_rescan_to_target(self):
        lex = index_lexicon(TestBoundedCompleteness.LEXICON)
        query = FillQuery(target="110110", max_words=2)
        for phrase in fill(query, lex):
            words = parse_line(phrase).words
            assert matches_target(list(words), (), (), query)


BEATS = st.text(alphabet="01", max_size=8)


def reference_candidates(trie, partial, target, slack):
    """Entries in trie order, each node tested by `_prefix_compatible`."""
    found = []

    def walk(node, path):
        if not _prefix_compatible(partial + path, target, slack):
            return
        found.extend(node.entries)
        for ch in ("0", "1"):
            child = node.children.get(ch)
            if child is not None:
                walk(child, path + ch)

    walk(trie, "")
    return found


def reference_distance(a, b):
    """Levenshtein distance by the textbook recursion."""
    if not a or not b:
        return len(a) + len(b)
    return min(reference_distance(a[1:], b) + 1,
               reference_distance(a, b[1:]) + 1,
               reference_distance(a[1:], b[1:]) + (a[0] != b[0]))


class TestIncrementalRows:
    @given(BEATS, BEATS)
    def test_fold_of_next_row_is_edit_row(self, a, b):
        row = list(range(len(b) + 1))
        for ch in a:
            row = next_row(row, ch, b)
        assert row == edit_row(a, b)

    @given(st.text(alphabet="01", max_size=5), st.text(alphabet="01",
                                                       max_size=5))
    def test_edit_row_entries_are_distances(self, a, b):
        assert edit_row(a, b) == [reference_distance(a, b[:j])
                                  for j in range(len(b) + 1)]

    @given(st.lists(BEATS, max_size=12), BEATS, st.text(alphabet="01",
                                                        min_size=1,
                                                        max_size=8),
           st.integers(0, 6))
    @settings(max_examples=300)
    def test_trie_candidates_match_per_node_check(self, patterns, partial,
                                                  target, slack):
        trie = BeatTrie()
        for i, beats in enumerate(patterns):
            trie.insert(LexiconEntry(surface=str(i), word=(),
                                     isolated_beats=beats))
        found = _trie_candidates(trie, edit_row(partial, target), target,
                                 slack)
        assert [entry for entry, _ in found] == \
            reference_candidates(trie, partial, target, slack)
        for entry, row in found:
            assert row == edit_row(partial + entry.isolated_beats, target)


def reference_phrase_beats(phrase, left, right, verse_final):
    """The phrase's segments of each reading, from `beat_segments`."""
    words = tuple(left) + tuple(phrase) + tuple(right)
    try:
        readings = scan_readings(ScriptLine(words, verse_final))
    except ScriptError:
        return []
    if len(readings[0][0].words) != len(words):
        return []
    lo, hi = len(left), len(left) + len(phrase)
    return ["".join(beat_segments(transcription)[lo:hi])
            for transcription, _ in readings]


# Words that change at a boundary (isba, plural-m, connective alifs,
# tanwin), that vanish, and plain ones.
CONTEXT_WORDS = ["لَهُمْ", "مَا", "لَهُ", "عَلَيْكُمْ", "بِهِمُ", "قُلْ",
                 "ٱبْنُ", "ٱلْبَيْتِ", "فِي", "مَعًا", "عَلَّمَ", "و۠",
                 "قَتَلَ", "بَمّ", "دَمْعٌ", "قَلْبِي"]
CONTEXT = st.lists(st.sampled_from(CONTEXT_WORDS), max_size=3).map(
    lambda ws: parse_line(" ".join(ws)).words if ws else ())


class TestPhraseBeatsSlice:
    @given(CONTEXT.filter(bool), CONTEXT, CONTEXT, st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_slice_equals_segments(self, phrase, left, right, verse_final):
        assert phrase_beats_in_context(phrase, left, right, verse_final) \
            == reference_phrase_beats(phrase, left, right, verse_final)

    @pytest.mark.parametrize("left", ["", "قَالَ"])
    @pytest.mark.parametrize("verse_final", [False, True])
    def test_licensed_plural_m(self, left, verse_final):
        left_words = parse_line(left).words if left else ()
        got = phrase_beats_in_context(parse_line("لَهُمْ").words,
                                      left_words, parse_line("مَا").words,
                                      verse_final)
        assert got == ["110", "1110"]
        assert got == reference_phrase_beats(
            parse_line("لَهُمْ").words, left_words, parse_line("مَا").words,
            verse_final)
