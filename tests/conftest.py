from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic and its run time bounded.
settings.register_profile("hcslab", deadline=None, derandomize=True, database=None, max_examples=40)
settings.load_profile("hcslab")
