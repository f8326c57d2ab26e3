from hypothesis import HealthCheck, Phase, settings

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# tests/mutants.py runs the tests a mutant must fail under this profile:
# a failing example is enough, so the shrink phase is skipped, and with it
# the explain phase, which reads the shrunk example
settings.register_profile("mutants", settings.get_profile("ci"),
                          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
settings.load_profile("ci")
