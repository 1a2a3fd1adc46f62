"""Test-session settings.

The ``ci`` hypothesis profile (``pytest --hypothesis-profile=ci``) prints
the reproduction blob of a failing property test, so a failure on a CI
runner can be replayed locally with ``@reproduce_failure``.  Example
counts and deadlines stay those of each test.
"""

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
