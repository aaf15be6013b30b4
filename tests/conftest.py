"""Hypothesis profiles. The default profile serves the tier-1 run; "ci" is
derandomized, keeps no example database and draws five times as many
examples, for the deeper property run of CI:

    PYTHONPATH=src python -m pytest -q tests/test_scalars.py \
        tests/test_solitons.py tests/test_format.py tests/test_fuzz.py \
        tests/test_contact.py tests/test_geometry.py \
        tests/test_closed_forms.py tests/test_frame_change.py \
        --hypothesis-profile=ci

A property without a fixed max_examples takes its count from the loaded
profile, so it runs deeper under "ci"; tests/test_fuzz.py sets multiples of
the profile's count."""
from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None,
                          max_examples=500)
