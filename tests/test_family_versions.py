"""Tests for program versions in the family (preprocessor conditionals)."""

from repro import analyze
from repro.synth import FamilySpec, generate_program


class TestVersions:
    def test_versions_share_source_shape(self):
        v0 = generate_program(FamilySpec(target_kloc=0.2, seed=5, version=0))
        v1 = generate_program(FamilySpec(target_kloc=0.2, seed=5, version=1))
        assert v0.source != v1.source
        assert "#define VERSION 0" in v0.source
        assert "#define VERSION 1" in v1.source
        # Identical modulo the version define.
        assert v0.source.replace("VERSION 0", "VERSION 1") == v1.source

    def test_both_versions_verify(self):
        """The analyzer is adapted to the *family*: every version of every
        program is proved without re-tuning (Sect. 3.2)."""
        for version in (0, 1):
            gp = generate_program(
                FamilySpec(target_kloc=0.2, seed=5, version=version))
            r = analyze(gp.source, "f.c", config=gp.analyzer_config())
            assert r.alarm_count == 0, f"version {version}"

    def test_version_selects_different_helper(self):
        from repro.frontend import compile_source
        from repro.frontend.pretty import format_function

        v1 = generate_program(FamilySpec(target_kloc=0.2, seed=5, version=1))
        prog = compile_source(v1.source, "f.c")
        text = format_function(prog.functions["clamp_ref"])
        assert "0.001" in text  # the deadband branch was selected

    def test_version_zero_has_plain_helper(self):
        from repro.frontend import compile_source
        from repro.frontend.pretty import format_function

        v0 = generate_program(FamilySpec(target_kloc=0.2, seed=5, version=0))
        prog = compile_source(v0.source, "f.c")
        text = format_function(prog.functions["clamp_ref"])
        assert "0.001" not in text
