"""Hypothesis profiles for the property tests.

``default`` checks the same 100 derandomized examples per property on every
run; ``ci`` (``pytest --hypothesis-profile=ci``) checks 1000.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("default", max_examples=100, deadline=None,
                              derandomize=True)
    settings.register_profile("ci", max_examples=1000, deadline=None,
                              derandomize=True)
    settings.load_profile("default")
