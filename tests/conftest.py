"""Hypothesis settings shared by every test module."""

from hypothesis import settings

# exact arithmetic makes single examples slow and uneven, so no example
# runs against a deadline
settings.register_profile("exact", deadline=None)
settings.load_profile("exact")
