"""Hypothesis profiles. Tier-1 runs the default profile. tests/mutants.py
passes --hypothesis-profile=mutants: a test that a mutant breaks then fails
on its first falsifying example instead of shrinking it, which could take
minutes; the example counts stay those of each test."""

from hypothesis import Phase, settings

settings.register_profile("mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
