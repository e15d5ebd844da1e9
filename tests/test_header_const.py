from conftest import golden
from tecsrust.header_const import convert_defines


def test_kernel_header_matches_figure():
    out, diags = convert_defines(golden("kernel_cfg.h"))
    assert out == golden("kernel_cfg.rs")
    assert diags == []


def test_empty_input():
    assert convert_defines("") == ("", [])


def test_parenthesized_value_is_skipped_with_warning():
    out, diags = convert_defines("#define STACK_SIZE (4096)\n")
    assert out == ""
    assert [d.code for d in diags] == ["non-literal-define"]
    assert diags[0].severity.value == "warning"


def test_function_like_macro_is_skipped():
    out, diags = convert_defines("#define MAX(a, b) ((a) > (b) ? (a) : (b))\n")
    assert out == ""
    assert [d.code for d in diags] == ["non-literal-define"]


def test_non_define_lines_are_silently_ignored():
    text = "// comment\n#include <kernel.h>\n\nint x;\n"
    assert convert_defines(text) == ("", [])


def test_identifier_case_preserved():
    out, _ = convert_defines("#define ISRID_tISR_SIOPortTarget1_ISRInstance\t1\n")
    assert out == "pub const ISRID_tISR_SIOPortTarget1_ISRInstance: i32 = 1;\n"


def test_hex_literals_re_emitted_as_written():
    out, _ = convert_defines("#define FLAGS 0x1F\n")
    assert out == "pub const FLAGS: i32 = 0x1F;\n"


def test_order_preserved():
    out, _ = convert_defines("#define B 2\n#define A 1\n")
    assert out.splitlines() == ["pub const B: i32 = 2;", "pub const A: i32 = 1;"]


def test_concatenation_distributes():
    a = "#define X 1\n#define SKIP (2)\n"
    b = "#define Y 2\n"
    assert convert_defines(a + b)[0] == convert_defines(a)[0] + convert_defines(b)[0]


def test_line_bijection():
    text = golden("kernel_cfg.h") + "#define BAD (1)\n"
    out, diags = convert_defines(text)
    bare = sum(1 for l in text.splitlines()
               if l.startswith("#define") and l.split()[-1].isdigit())
    assert len(out.splitlines()) == bare


def test_values_outside_i32_are_skipped_with_a_located_warning():
    text = ("#define KEEP_MAX 2147483647\n#define BIG 0xFFFFFFFF\n"
            "#define OVER 2147483648\n#define KEEP_MIN -2147483648\n"
            "#define UNDER -2147483649\n")
    out, diags = convert_defines(text, "k.h")
    assert out == "pub const KEEP_MAX: i32 = 2147483647;\npub const KEEP_MIN: i32 = -2147483648;\n"
    assert [d.code for d in diags] == ["constant-out-of-range"] * 3
    assert [str(d.location) for d in diags] == ["k.h:2:1", "k.h:3:1", "k.h:5:1"]
    assert all(d.severity.value == "warning" for d in diags)
