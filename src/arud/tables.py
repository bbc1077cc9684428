"""Loading of the shipped, editable data tables.

All tables are UTF-8 text files, one mapping per line, tab-separated.
``#`` starts a comment line.  The shipped files live in ``arud/data``;
``TableSet.load(DIR)`` reads the same file names from ``DIR`` instead.
A row that cannot be loaded raises ``TableError`` naming its file and
1-based line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

from . import script
from .errors import TableError
from .script import ALIF, WASL_ALIF, Word, parse_line


def _read_table(name: str, table_dir: str | None, nfields: int, parse):
    """`parse(*fields)` for each data row of table `name`, in file order.

    A row without `nfields` tab-separated fields, one that `parse`
    rejects with a ValueError, or a file that is not UTF-8 raises
    TableError.
    """
    path = Path(table_dir or Path(__file__).parent / "data", name)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        valid = exc.object[:exc.start].decode("utf-8")
        lineno = len((valid + "x").splitlines())
        raise TableError(f"{path}:{lineno}: not valid UTF-8: "
                         f"{exc.reason}") from None
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        try:
            if len(fields) != nfields:
                raise ValueError(f"expected {nfields} tab-separated "
                                 f"field(s), got {len(fields)}")
            rows.append(parse(*fields))
        except ValueError as exc:
            raise TableError(f"{path}:{lineno}: {exc}") from None
    return rows


def data_version(table_dir: str | None = None) -> str:
    try:
        return _read_table("VERSION", table_dir, 1, str.strip)[0]
    except (FileNotFoundError, IndexError):
        return "unknown"


def fold_base(base: str) -> str:
    """Fold letter variants used as match keys: wasl-alif matches plain alif."""
    return ALIF if base == WASL_ALIF else base


def word_key(word: Word) -> str:
    """The word's base letters, folded as by `fold_base`."""
    return "".join([g.base for g in word]).replace(WASL_ALIF, ALIF)


def _one_word(text: str) -> Word:
    words = parse_line(text).words
    if len(words) != 1:
        raise ValueError(f"expected one word, got {len(words)}")
    return words[0]


def _special_row(key, text):
    return key, _one_word(text)


def _known_row(text):
    word = _one_word(text.strip())
    return word_key(word), word


@dataclass
class WordTable:
    """Base-letter keys -> replacement words, tried in file order."""

    entries: dict[str, list[Word]] = field(default_factory=dict)

    @classmethod
    def from_rows(cls, rows) -> "WordTable":
        table = cls()
        for key, word in rows:
            table.entries.setdefault(key, []).append(word)
        return table

    def candidates(self, word: Word) -> list[Word]:
        return self.entries.get(word_key(word), [])


def _juncture_row(key, vowel, mode):
    if vowel not in script.VOWEL_KIND_TO_CHAR:
        raise ValueError(f"unknown juncture vowel {vowel!r}")
    if mode not in ("exact", "suffix"):
        raise ValueError(f"unknown juncture mode {mode!r}")
    return key, vowel, mode


@dataclass
class JunctureTable:
    """Preceding-word base letters -> vowel given to its final sakin letter."""

    exact: dict[str, str] = field(default_factory=dict)
    suffix: dict[str, str] = field(default_factory=dict)
    default: str = "kasra"

    @classmethod
    def load(cls, table_dir: str | None = None) -> "JunctureTable":
        table = cls()
        for key, vowel, mode in _read_table("juncture.tsv", table_dir, 3,
                                            _juncture_row):
            getattr(table, mode)[key] = vowel
        return table

    def vowel_for(self, word: Word) -> str:
        key = word_key(word)
        if key in self.exact:
            return self.exact[key]
        for suffix, vowel in self.suffix.items():
            if key.endswith(suffix) and len(key) > len(suffix):
                return vowel
        return self.default


@dataclass
class SilentWordTable:
    """Word base letters -> zero-based index of the silent letter."""

    entries: dict[str, int] = field(default_factory=dict)

    @classmethod
    def load(cls, table_dir: str | None = None) -> "SilentWordTable":
        return cls(dict(_read_table("silent_words.tsv", table_dir, 2,
                                    lambda key, idx: (key, int(idx)))))

    def silent_index(self, word: Word) -> int | None:
        return self.entries.get(word_key(word))


@dataclass
class TableSet:
    special: WordTable
    juncture: JunctureTable
    known: WordTable
    silent: SilentWordTable

    @classmethod
    def load(cls, table_dir: str | None = None) -> "TableSet":
        """The tables in `table_dir`, or the shipped ones when it is None.

        ``special_words.tsv`` rows are a key and its replacement word;
        ``known_words.tsv`` rows are one word, keyed by its base letters.
        """
        return cls(
            special=WordTable.from_rows(_read_table(
                "special_words.tsv", table_dir, 2, _special_row)),
            juncture=JunctureTable.load(table_dir),
            known=WordTable.from_rows(_read_table(
                "known_words.tsv", table_dir, 1, _known_row)),
            silent=SilentWordTable.load(table_dir),
        )


@cache
def default_tables() -> TableSet:
    """The shipped tables, loaded once per process and shared: callers
    must not modify them."""
    return TableSet.load()
