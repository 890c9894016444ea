"""Shared test settings.

Property tests run under one fixed ``hypothesis`` profile: derandomized, so
every run draws the same examples, with no deadline (the first call on a
new grid shape builds its stencil) and a fixed example budget, so the suite
stays deterministic and its cost bounded.  No example database is kept.
"""

from hypothesis import settings

settings.register_profile("filmcav", derandomize=True, deadline=None,
                          max_examples=12, database=None)
settings.load_profile("filmcav")
