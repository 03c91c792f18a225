from hypothesis import settings

# Derandomized and without deadlines, so property tests are reproducible
# and never fail on a slow machine.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")
