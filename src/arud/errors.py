"""Exception hierarchy shared across the toolkit."""


class ScriptError(ValueError):
    """Base class for all text-model errors."""


class ParseError(ScriptError):
    """Input text cannot be turned into a structural line."""


class EmptyLine(ParseError):
    """Line contains no words."""


class EmptyWord(ParseError):
    """Operation received an empty word."""


class LeadingDiacritic(ParseError):
    """A diacritic appeared before any letter in a word."""


class ForeignCharacter(ParseError):
    """A code point outside the Arabic letters, marks and whitespace."""


class DoubleDiacritic(ParseError):
    """Two conflicting marks of the same class on one letter."""


class ScanError(ScriptError):
    """Grapheme-to-beat transformation failed."""


class UnderDiacritized(ScanError):
    """A grapheme could not be resolved to one of the four scansion marks."""


class ShaddaWithoutVowel(UnderDiacritized):
    """A geminated letter carries no usable vowel mark."""


class DanglingWasl(ScanError):
    """A connective alif with no resolvable phonetic context."""


class LineTooShort(ScriptError):
    """Line has too few words for span masking."""


class EmptyHemistich(ScriptError):
    """A verse half is empty."""


class EmptyEvaluation(ScriptError):
    """Evaluation requested over zero records."""


class TableError(ValueError):
    """A data table row that cannot be loaded: "FILE:LINE: reason"."""
