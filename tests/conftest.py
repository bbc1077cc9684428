"""Shared test settings.

``--hypothesis-profile=ci`` runs every property test with at least 1,000
examples and no deadline: a test that sets its own example count takes
it through `at_least`, so the profile can raise it.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=1000, deadline=None)


def at_least(max_examples: int) -> int:
    """`max_examples`, or the loaded profile's count when that is larger.

    Test modules are imported after the profile is loaded, so a test's
    ``@settings(max_examples=at_least(n))`` runs `n` examples in the
    default profile and 1,000 under ``ci``.
    """
    return max(max_examples, settings.default.max_examples)
