"""Robustness: malformed inputs must fail with ReproError, never crash.

The paper's frontend "rejects unsupported constructs with an error
message" — a production analyzer must never die with an internal exception
on user input.  These tests fuzz the frontend with mutated and random
sources and assert every failure is a classified, located error.
"""

import random
import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LexerError, PreprocessorError, ReproError
from repro.frontend import (
    check_source_text, compile_source, decode_source, read_source_file,
)

VALID = """
#define N 4
typedef float real;
struct st { int a; real b[N]; };
volatile int v;
struct st g;
int helper(int x) { return x + 1; }
int main(void) {
    int i;
    for (i = 0; i < N; i++) { g.b[i] = 0.5f; }
    g.a = helper(v);
    return 0;
}
"""


def expect_clean_failure(source):
    try:
        compile_source(source, "fuzz.c")
    except ReproError:
        pass  # classified failure: fine
    except RecursionError:
        pytest.fail("recursion blowup on malformed input")
    # Accepting the input is also fine (the mutation may be harmless).


class TestMutationFuzz:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_deletion_mutations(self, seed):
        rng = random.Random(seed)
        src = VALID
        # Delete a random slice.
        a = rng.randrange(len(src))
        b = min(len(src), a + rng.randrange(1, 30))
        expect_clean_failure(src[:a] + src[b:])

    @settings(max_examples=120, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_insertion_mutations(self, seed):
        rng = random.Random(seed)
        src = VALID
        pos = rng.randrange(len(src))
        junk = "".join(rng.choice("(){}[];,*&<>=+-!%#\"'") for _ in range(rng.randrange(1, 6)))
        expect_clean_failure(src[:pos] + junk + src[pos:])

    @settings(max_examples=60, deadline=None)
    @given(st.text(alphabet=string.printable, max_size=200))
    def test_random_text(self, text):
        expect_clean_failure(text)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_token_shuffle(self, seed):
        rng = random.Random(seed)
        tokens = VALID.split()
        rng.shuffle(tokens)
        expect_clean_failure(" ".join(tokens))


class TestSpecificMalformed:
    CASES = [
        "int",
        "int x",
        "int x = ;",
        "void f( { }",
        "void f(void) { if }",
        "void f(void) { while (1) }",
        "void f(void) { return 1 + ; }",
        "struct s { int a; } ;; int main(void) { return 0; }",
        "#define\nint x;",
        "#if\nint x;\n#endif",
        "void f(void) { x = 1; }",           # undeclared
        "int main(void) { unknown(); return 0; }",
        "int a[0]; int main(void) { return 0; }",
        "int a[-1]; int main(void) { return 0; }",
        "int main(void) { int x = \"str\"; return 0; }",
        "union u { int a; }; int main(void) { return 0; }",
        "int *g; int main(void) { return 0; }",
        "int main(void) { goto end; end: return 0; }",
        "int f(void) { return f(); } int main(void) { return f(); }" * 1,
    ]

    @pytest.mark.parametrize("source", CASES,
                             ids=[f"case{i}" for i in range(len(CASES))])
    def test_malformed_raises_repro_error(self, source):
        with pytest.raises(ReproError):
            compile_source(source, "bad.c")

    def test_recursion_rejected_or_handled(self):
        # Direct recursion: the analyzer targets a recursion-free family.
        src = "int f(int n) { return f(n); } int main(void) { f(1); return 0; }"
        try:
            from repro import analyze

            analyze(src)
        except (ReproError, RecursionError):
            pass  # either a frontend rejection or a bounded failure is fine

    def test_deeply_nested_expression(self):
        expr = "1" + " + 1" * 400
        src = f"int x; int main(void) {{ x = {expr}; return 0; }}"
        prog = compile_source(src, "deep.c")
        assert prog is not None

    def test_deeply_nested_parens(self):
        """Very deep nesting either parses or is rejected gracefully."""
        expr = "(" * 150 + "1" + ")" * 150
        src = f"int x; int main(void) {{ x = {expr}; return 0; }}"
        try:
            compile_source(src, "deep.c")
        except ReproError:
            pass  # classified rejection is acceptable

    def test_recursion_rejected(self):
        src = "int f(void); int g(void) { return f(); } " \
              "int f(void) { return g(); } int main(void) { return f(); }"
        with pytest.raises(ReproError):
            compile_source(src, "rec.c")

    def test_self_recursion_rejected(self):
        src = "int f(int n) { return f(n); } int main(void) { return f(1); }"
        with pytest.raises(ReproError):
            compile_source(src, "rec.c")

    def test_many_globals(self):
        decls = "\n".join(f"int g{i};" for i in range(2000))
        src = decls + "\nint main(void) { g0 = 1; return 0; }"
        prog = compile_source(src, "many.c")
        # unused globals are deleted; g0 remains
        assert prog.global_by_name("g0") is not None
        assert prog.global_by_name("g1999") is None


VALID_BYTES = VALID.encode("utf-8")


class TestEncodingRobustness:
    """Byte-level hazards: a BOM, CRLF line endings or non-UTF-8 bytes
    must surface as located PreprocessorError/LexerError (CLI exit 3),
    never as a raw UnicodeDecodeError."""

    def test_utf8_bom_rejected(self):
        with pytest.raises(PreprocessorError) as ei:
            decode_source(b"\xef\xbb\xbf" + VALID_BYTES, "bom.c")
        assert "byte-order mark" in str(ei.value)
        assert "bom.c:1:1" in str(ei.value)

    def test_bom_in_text_rejected(self):
        with pytest.raises(PreprocessorError):
            check_source_text("\ufeff" + VALID, "bom.c")

    def test_crlf_rejected_with_location(self):
        crlf = VALID.replace("\n", "\r\n")
        with pytest.raises(PreprocessorError) as ei:
            decode_source(crlf.encode("utf-8"), "dos.c")
        assert "CRLF" in str(ei.value) or "carriage return" in str(ei.value)
        assert "dos.c:" in str(ei.value)

    def test_lone_cr_rejected(self):
        with pytest.raises(PreprocessorError):
            check_source_text("int x;\rint main(void) { return 0; }")

    def test_non_utf8_bytes_rejected(self):
        with pytest.raises((PreprocessorError, LexerError)) as ei:
            decode_source(b"int x;\n\xff\xfe int y;\n", "bin.c")
        assert "bin.c" in str(ei.value)

    def test_nul_byte_rejected(self):
        with pytest.raises((PreprocessorError, LexerError)):
            decode_source(b"int x;\x00int y;\n", "nul.c")

    @settings(max_examples=80, deadline=None)
    @given(st.binary(max_size=120))
    def test_random_bytes_never_unicode_error(self, data):
        try:
            text = decode_source(data, "fuzz.bin")
        except ReproError:
            return  # classified rejection: fine
        # Decoded clean: the full pipeline must also stay classified.
        expect_clean_failure(text)

    def test_read_source_file_bom(self, tmp_path):
        p = tmp_path / "bom.c"
        p.write_bytes(b"\xef\xbb\xbf" + VALID_BYTES)
        with pytest.raises(PreprocessorError):
            read_source_file(str(p))

    def test_read_source_file_clean(self, tmp_path):
        p = tmp_path / "ok.c"
        p.write_bytes(VALID_BYTES)
        assert read_source_file(str(p)) == VALID

    def test_compile_rejects_embedded_cr(self):
        # The preprocessor checks text even when handed a raw string
        # (callers that bypass read_source_file are still protected).
        with pytest.raises(PreprocessorError):
            compile_source("int x;\r\nint main(void) { return 0; }",
                           "dos.c")
