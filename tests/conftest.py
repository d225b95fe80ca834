"""Shared test settings.

Property tests run a fixed, derandomized set of examples and keep no example
database, so every run of the suite checks the same cases and writes nothing
into the checkout.
"""

from hypothesis import settings

settings.register_profile("relaybf", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("relaybf")
