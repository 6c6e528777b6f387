"""Tests for the Bristol Fashion, BLIF and Verilog interchange formats."""

import random

import pytest

from repro.testing import full_adder_naive, random_xag
from repro.circuits.arithmetic import adder
from repro.io import (
    load_bristol,
    read_blif,
    read_bristol,
    save_blif,
    save_bristol,
    load_blif,
    write_blif,
    write_bristol,
    write_verilog,
    save_verilog,
)
from repro.xag import Xag, equivalent


# ----------------------------------------------------------------------
# Bristol Fashion
# ----------------------------------------------------------------------
def test_bristol_roundtrip_full_adder():
    fa = full_adder_naive()
    text = write_bristol(fa, [1, 1, 1], [1, 1])
    rebuilt = read_bristol(text)
    assert rebuilt.num_pis == 3 and rebuilt.num_pos == 2
    assert equivalent(fa, rebuilt)


def test_bristol_roundtrip_random_networks(rng):
    for seed in range(3):
        xag = random_xag(random.Random(seed), num_pis=6, num_gates=30)
        rebuilt = read_bristol(write_bristol(xag))
        assert equivalent(xag, rebuilt)


def test_bristol_header_counts():
    fa = full_adder_naive()
    text = write_bristol(fa, [1, 1, 1], [1, 1])
    lines = [line for line in text.splitlines() if line.strip()]
    num_gates, num_wires = (int(token) for token in lines[0].split())
    assert num_gates == len(lines) - 3
    assert lines[1].split()[0] == "3"
    assert lines[2].split()[0] == "2"
    assert num_wires >= fa.num_pis + num_gates


def test_bristol_constant_outputs():
    xag = Xag()
    xag.create_pis(2)
    xag.create_po(xag.get_constant(True), "one")
    xag.create_po(xag.get_constant(False), "zero")
    rebuilt = read_bristol(write_bristol(xag))
    assert equivalent(xag, rebuilt)


def test_bristol_width_validation():
    fa = full_adder_naive()
    with pytest.raises(ValueError):
        write_bristol(fa, [2, 2], [1, 1])
    with pytest.raises(ValueError):
        write_bristol(fa, [1, 1, 1], [3])


def test_bristol_explicit_empty_widths_error_not_default():
    """``input_widths=[]`` must fail the coverage check, not silently fall
    back to the single-value default (regression: truthiness vs ``is None``)."""
    fa = full_adder_naive()
    with pytest.raises(ValueError, match="input widths"):
        write_bristol(fa, input_widths=[])
    with pytest.raises(ValueError, match="output widths"):
        write_bristol(fa, output_widths=[])
    # None still means "one value spanning all bits"
    header = write_bristol(fa, input_widths=None).splitlines()[1]
    assert header == "1 3"


def test_bristol_rejects_bad_input():
    with pytest.raises(ValueError):
        read_bristol("1 1")
    with pytest.raises(ValueError):
        read_bristol("1 4\n1 2\n1 1\n\n2 1 0 1 3 NAND\n")


def test_bristol_rejects_undriven_output_wires():
    # the AND drives wire 2, but the single output is the last wire, 3
    with pytest.raises(ValueError, match="wire 3"):
        read_bristol("1 4\n1 2\n1 1\n2 1 0 1 2 AND\n")


@pytest.mark.parametrize("line", [
    "2 1 0 5 3 AND",   # wire 5 is driven by nothing
    "1 1 0 3 XOR",     # XOR declared with one input
    "2 0 0 1 AND",     # AND declared without an output
    "2 1 0 1 AND",     # fewer wires than the counts declare
    "2 1 0 x 3 AND",   # non-integer wire
    "1 1 2 3 EQ",      # EQ drives 0 or 1 only
])
def test_bristol_rejects_malformed_gate_lines(line):
    with pytest.raises(ValueError, match=repr(line)):
        read_bristol(f"1 4\n1 2\n1 1\n{line}\n")


def test_bristol_zero_input_network_round_trips():
    """Constants are written as EQ gates, so a network without inputs is
    readable (an ``x0 XOR x0`` constant would read a wire that is not there)."""
    xag = Xag()
    xag.create_po(xag.get_constant(True), "one")
    xag.create_po(xag.get_constant(False), "zero")
    text = write_bristol(xag)
    assert "EQ\n" in text
    rebuilt = read_bristol(text)
    assert rebuilt.num_pis == 0
    assert rebuilt.po_literals() == xag.po_literals()


def test_bristol_file_roundtrip(tmp_path):
    add = adder(4)
    path = tmp_path / "adder.bristol"
    save_bristol(add, path, [4, 4], [4, 1])
    rebuilt = load_bristol(path)
    assert equivalent(add, rebuilt)


def test_bristol_mand_gate_support():
    text = "\n".join([
        "1 6",
        "1 4",
        "1 2",
        "",
        "4 2 0 1 2 3 4 5 MAND",
    ]) + "\n"
    xag = read_bristol(text)
    assert xag.num_pos == 2
    assert xag.num_ands == 2


# ----------------------------------------------------------------------
# BLIF
# ----------------------------------------------------------------------
def test_blif_roundtrip_full_adder():
    fa = full_adder_naive()
    rebuilt = read_blif(write_blif(fa))
    assert equivalent(fa, rebuilt)
    assert rebuilt.pi_names() == fa.pi_names()
    assert rebuilt.po_names() == fa.po_names()


def test_blif_roundtrip_random_networks(rng):
    for seed in range(3):
        xag = random_xag(random.Random(seed + 10), num_pis=5, num_gates=25)
        rebuilt = read_blif(write_blif(xag))
        assert equivalent(xag, rebuilt)


def test_blif_file_roundtrip(tmp_path):
    add = adder(4)
    path = tmp_path / "adder.blif"
    save_blif(add, path)
    assert equivalent(add, load_blif(path))


def test_blif_constant_output():
    xag = Xag()
    xag.create_pis(1)
    xag.create_po(xag.get_constant(False), "zero")
    rebuilt = read_blif(write_blif(xag))
    assert equivalent(xag, rebuilt)


def test_blif_model_name():
    fa = full_adder_naive()
    text = write_blif(fa, model_name="my_adder")
    assert ".model my_adder" in text
    # an explicit name always wins; only None falls back to the network name
    assert write_blif(fa, model_name=None).startswith(f".model {fa.name}")


def _gate_with_constant_fanin():
    """Network with a live gate reading node 0 (bypasses constant folding).

    The public constructors fold constant fan-ins away, but external
    frontends (and the low-level node array) can legitimately describe such
    gates; the BLIF writer must still emit valid text for them.
    """
    from repro.xag.graph import NodeKind, literal

    xag = Xag()
    a, b = xag.create_pis(2)
    gate = xag._new_node(NodeKind.XOR, xag.get_constant(True), a)
    xag.create_po(literal(gate), "inv")
    xag.create_po(xag.create_and(literal(gate), b), "gated")
    return xag


def test_blif_declares_const0_for_gate_fanins():
    """Regression: a gate (not just a PO) reading node 0 must pull in the
    ``.names const0`` driver, otherwise the emitted BLIF references an
    undeclared signal."""
    xag = _gate_with_constant_fanin()
    text = write_blif(xag)
    assert ".names const0" in text
    rebuilt = read_blif(text)
    assert equivalent(xag, rebuilt)


def test_blif_round_trips_ports_named_like_internal_signals():
    """Regression (found by tests/test_reader_fuzz.py): an input listed as
    an output, and ports named like the writer's gate or constant signals,
    must write BLIF the reader rebuilds instead of a signal defined twice."""
    text = "\n".join([
        ".model ports",
        ".inputs n3 const0 b",
        ".outputs b n3 y n4",
        ".names n3 b n4",
        "11 1",
        ".names const0 n4 y",
        "01 1",
        "10 1",
        ".end",
    ])
    xag = read_blif(text)
    rebuilt = read_blif(write_blif(xag))
    assert equivalent(xag, rebuilt)
    assert rebuilt.pi_names() == xag.pi_names()
    assert rebuilt.po_names() == xag.po_names()


def test_blif_writer_rejects_outputs_it_cannot_name():
    """BLIF has one signal per name: an output named after an input it does
    not carry, or two outputs sharing a name over different literals, have
    no BLIF form."""
    xag = Xag()
    a, b = xag.create_pis(2)
    xag.create_po(xag.create_not(a), "x0")   # the inputs are x0, x1
    with pytest.raises(ValueError, match="'x0'"):
        write_blif(xag)
    twice = Xag()
    a, b = twice.create_pis(2)
    twice.create_po(twice.create_and(a, b), "y")
    twice.create_po(twice.create_xor(a, b), "y")
    with pytest.raises(ValueError, match="'y'"):
        write_blif(twice)


def test_blif_reader_resolves_out_of_order_definitions():
    """Legal BLIF may define a cover before its sources; the reader must
    resolve covers in dependency order instead of raising KeyError."""
    text = "\n".join([
        ".model ooo",
        ".inputs a b",
        ".outputs y",
        ".names mid a y",   # reads `mid` before it is defined
        "11 1",
        ".names a b mid",
        "01 1",
        "10 1",
        ".end",
    ])
    xag = read_blif(text)
    assert xag.num_pis == 2 and xag.num_pos == 1
    reference = Xag()
    a, b = reference.create_pis(2)
    reference.create_po(reference.create_and(reference.create_xor(a, b), a), "y")
    assert equivalent(reference, xag)


def test_blif_reader_rejects_undefined_signals():
    text = "\n".join([
        ".model broken",
        ".inputs a",
        ".outputs y",
        ".names a ghost y",
        "11 1",
        ".end",
    ])
    with pytest.raises(ValueError, match="undefined signal.*ghost"):
        read_blif(text)
    with pytest.raises(ValueError, match="output 'y' is never defined"):
        read_blif(".model m\n.inputs a\n.outputs y\n.end\n")


def test_blif_reader_rejects_cyclic_covers():
    text = "\n".join([
        ".model loop",
        ".inputs a",
        ".outputs y",
        ".names y a u",
        "11 1",
        ".names u a y",
        "11 1",
        ".end",
    ])
    with pytest.raises(ValueError, match="combinational cycle"):
        read_blif(text)


@pytest.mark.parametrize("body, message", [
    pytest.param(".names a b y\n1x 1", r"line 5: cover of 'y', row '1x 1'",
                 id="unknown-pattern-symbol"),
    pytest.param(".names a b y\n1 1", r"line 5: cover of 'y', row '1 1'.*"
                 r"1 symbols for 2 inputs", id="pattern-too-short"),
    pytest.param(".names a b y\n111 1", r"line 5: cover of 'y', row '111 1'"
                 r".*3 symbols for 2 inputs", id="pattern-too-long"),
    pytest.param(".names a b y\n11", r"line 5: cover of 'y', row '11'.*"
                 r"output value", id="row-without-output-value"),
    pytest.param(".names\n.names a b y\n11 1", r"line 4: \.names declares "
                 r"no output", id="bare-names"),
    pytest.param(".names a b y\n11 1\n.names a b y\n01 1",
                 r"line 6: signal 'y' is already defined on line 4",
                 id="signal-defined-twice"),
    pytest.param(".names a b b\n11 1\n.names a b y\n11 1",
                 r"line 4: signal 'b' is already defined on line 2",
                 id="cover-redefines-input"),
    pytest.param(".names c\n0\n1\n.names a c y\n11 1",
                 r"line 6: cover of 'c', row '1'", id="constant-mixes-values"),
])
def test_blif_reader_rejects_malformed_covers(body, message):
    """A malformed cover fails with its target and line: it must never
    build a wrong network (``1x`` read as a·¬b, a short pattern as y = a, a
    PI or a signal silently redefined) or fail without context."""
    text = f".model m\n.inputs a b\n.outputs y\n{body}\n.end\n"
    with pytest.raises(ValueError, match=message):
        read_blif(text)


# ----------------------------------------------------------------------
# Verilog
# ----------------------------------------------------------------------
def test_verilog_writer_structure(tmp_path):
    fa = full_adder_naive()
    text = write_verilog(fa)
    assert text.startswith("module full_adder(")
    assert text.count("input ") == 3
    assert text.count("output ") == 2
    assert "endmodule" in text
    assert "&" in text and "^" in text
    path = tmp_path / "fa.v"
    save_verilog(fa, path)
    assert path.read_text() == text


def test_verilog_sanitises_names():
    xag = Xag()
    a = xag.create_pi("1bad-name")
    xag.create_po(a, "out put")
    text = write_verilog(xag, module_name="top")
    assert "1bad-name" not in text
    assert "s_1bad_name" in text


def test_verilog_deduplicates_colliding_port_names():
    xag = Xag()
    a = xag.create_pi("a-b")
    b = xag.create_pi("a_b")       # sanitises to the same identifier
    c = xag.create_pi("a.b")       # and so does this one
    xag.create_po(xag.create_and(a, xag.create_xor(b, c)), "a b")
    text = write_verilog(xag, module_name="top")
    header = text.splitlines()[0]
    ports = header[header.index("(") + 1:header.index(")")].split(", ")
    assert len(ports) == len(set(ports)) == 4
    assert "a_b" in ports and "a_b_2" in ports and "a_b_3" in ports


def test_verilog_ports_never_collide_with_wire_names():
    xag = Xag()
    a = xag.create_pi("x")
    b = xag.create_pi("y")
    and_node = xag.create_and(a, b) >> 1
    xag.create_pi(f"n{and_node}")   # would alias the generated wire name
    xag.create_po(xag.create_and(a, b), "out")
    text = write_verilog(xag)
    assert text.count(f"wire n{and_node};") == 1
    assert f"input n{and_node}_2;" in text


def test_verilog_rejects_empty_port_names():
    import pytest

    xag = Xag()
    a = xag.create_pi("")
    xag.create_po(a, "out")
    with pytest.raises(ValueError):
        write_verilog(xag)
