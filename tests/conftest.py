"""Hypothesis profiles.

``ci`` is Hypothesis's own ``ci`` profile with more examples.  Loaded by
``pytest --hypothesis-profile=ci``, it raises the property tests of the gcd,
of exact division and of the multiply-add in test_field_internals.py, which
ask for their count through ``examples``, to its ``max_examples``; tests with
a fixed count keep theirs.  Without the option every test runs its own count.
"""

from hypothesis import settings

if settings.get_current_profile_name() == "ci":
    # Hypothesis loads its own ci profile on a CI host; keep that one active,
    # since registering a profile under the active name also loads it
    settings.register_profile("hypothesis-ci", settings.get_profile("ci"))
    settings.load_profile("hypothesis-ci")
settings.register_profile("ci", settings.get_profile("ci"), max_examples=2000)
