"""Bristol Fashion circuit format reader/writer.

The MPC/FHE benchmark collection the paper optimises (and essentially every
MPC framework) exchanges circuits in "Bristol Fashion": a plain-text netlist
of AND/XOR/INV/EQ/EQW gates whose first wires are the inputs and whose last
wires are the outputs.  Supporting the format means the original benchmark
files can be optimised directly with this library when they are available,
and our generated circuits can be exported to MPC tooling.

Format summary (one gate per line)::

    <num_gates> <num_wires>
    <num_input_values> <width_0> ... <width_{n-1}>
    <num_output_values> <width_0> ... <width_{m-1}>

    <n_in> <n_out> <in_wires...> <out_wires...> <GATE>
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.xag.graph import Xag, lit_complemented, lit_node

#: gate name → (inputs, outputs); MAND takes ``2k`` inputs to ``k`` outputs.
_ARITY = {"XOR": (2, 1), "AND": (2, 1), "INV": (1, 1), "NOT": (1, 1),
          "EQW": (1, 1), "EQ": (1, 1)}


def write_bristol(xag: Xag, input_widths: Optional[Sequence[int]] = None,
                  output_widths: Optional[Sequence[int]] = None) -> str:
    """Serialise a network in Bristol Fashion.

    ``input_widths`` / ``output_widths`` group the PIs/POs into values (they
    default to a single value spanning all bits).  An explicitly passed
    grouping is always honoured — e.g. ``input_widths=[]`` fails the coverage
    check below instead of silently falling back to the default.
    """
    input_widths = list(input_widths) if input_widths is not None else [xag.num_pis]
    output_widths = list(output_widths) if output_widths is not None else [xag.num_pos]
    if sum(input_widths) != xag.num_pis:
        raise ValueError("input widths do not cover the primary inputs")
    if sum(output_widths) != xag.num_pos:
        raise ValueError("output widths do not cover the primary outputs")

    lines: List[str] = []
    wire_of_node: Dict[int, int] = {}
    inverted_wire: Dict[int, int] = {}
    next_wire = xag.num_pis
    for position, node in enumerate(xag.pis()):
        wire_of_node[node] = position

    def wire_for(lit: int) -> int:
        nonlocal next_wire
        node = lit_node(lit)
        if node == 0:
            # constants are driven once each by Bristol's EQ gate, whose
            # input field is the constant value itself
            value = int(lit_complemented(lit))
            if value not in constant_wire:
                constant_wire[value] = next_wire
                lines.append(f"1 1 {value} {next_wire} EQ")
                next_wire += 1
            return constant_wire[value]
        base = wire_of_node[node]
        if not lit_complemented(lit):
            return base
        if node not in inverted_wire:
            inverted_wire[node] = next_wire
            lines.append(f"1 1 {base} {next_wire} INV")
            next_wire += 1
        return inverted_wire[node]

    constant_wire: Dict[int, int] = {}

    for node in xag.gates():
        f0, f1 = xag.fanins(node)
        a = wire_for(f0)
        b = wire_for(f1)
        wire_of_node[node] = next_wire
        gate = "AND" if xag.is_and(node) else "XOR"
        lines.append(f"2 1 {a} {b} {next_wire} {gate}")
        next_wire += 1

    # outputs must occupy the final wires, in order
    output_wires = []
    for lit in xag.po_literals():
        source = wire_for(lit)
        output_wires.append(source)
    for source in output_wires:
        lines.append(f"1 1 {source} {next_wire} EQW")
        next_wire += 1

    header = [
        f"{len(lines)} {next_wire}",
        " ".join([str(len(input_widths))] + [str(w) for w in input_widths]),
        " ".join([str(len(output_widths))] + [str(w) for w in output_widths]),
        "",
    ]
    return "\n".join(header + lines) + "\n"


def read_bristol(text: str) -> Xag:
    """Parse a Bristol Fashion netlist into an XAG.

    A malformed gate line (a field that is not an integer, a wire count
    that does not match the line or the gate's arity, an input wire no
    earlier line drives) and an output wire no gate drives raise
    :class:`ValueError` naming the line or wire.
    """
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if len(lines) < 3:
        raise ValueError("truncated Bristol circuit")
    num_gates, num_wires = (int(tok) for tok in lines[0].split())
    input_spec = [int(tok) for tok in lines[1].split()]
    output_spec = [int(tok) for tok in lines[2].split()]
    input_widths = input_spec[1:1 + input_spec[0]]
    output_widths = output_spec[1:1 + output_spec[0]]
    num_inputs = sum(input_widths)
    num_outputs = sum(output_widths)

    xag = Xag()
    xag.name = "bristol"
    wires: Dict[int, int] = {}
    for index in range(num_inputs):
        wires[index] = xag.create_pi(f"x{index}")

    gate_lines = lines[3:3 + num_gates]
    if len(gate_lines) != num_gates:
        raise ValueError("gate count does not match the header")
    for index, line in enumerate(gate_lines):
        in_wires, out_wires, gate = _parse_gate(index, line)
        if gate != "EQ":
            for wire in in_wires:
                if wire not in wires:
                    raise ValueError(f"Bristol gate {index} ({line!r}) reads "
                                     f"wire {wire}, which no earlier gate "
                                     f"or input drives")
        if gate == "XOR":
            value = xag.create_xor(wires[in_wires[0]], wires[in_wires[1]])
        elif gate == "AND":
            value = xag.create_and(wires[in_wires[0]], wires[in_wires[1]])
        elif gate == "INV" or gate == "NOT":
            value = xag.create_not(wires[in_wires[0]])
        elif gate == "EQW":
            value = wires[in_wires[0]]
        elif gate == "EQ":
            value = xag.get_constant(bool(in_wires[0]))
        else:  # MAND, vectorised AND: pairwise ANDs of the two halves
            half = len(out_wires)
            for position, wire in enumerate(out_wires):
                wires[wire] = xag.create_and(
                    wires[in_wires[position]], wires[in_wires[half + position]])
            continue
        wires[out_wires[0]] = value

    for index in range(num_outputs):
        wire = num_wires - num_outputs + index
        if wire not in wires:
            raise ValueError(f"Bristol output {index} (wire {wire}) is never "
                             f"driven")
        xag.create_po(wires[wire], f"y{index}")
    return xag


def _parse_gate(index: int, line: str) -> Tuple[List[int], List[int], str]:
    """``(input wires, output wires, GATE)`` of one gate line, validated
    against the line's own counts and the gate's arity."""
    tokens = line.split()
    gate = tokens[-1].upper()
    try:
        numbers = [int(tok) for tok in tokens[:-1]]
    except ValueError:
        raise ValueError(f"Bristol gate {index} ({line!r}) has a "
                         f"non-integer wire field") from None
    if len(numbers) < 2 or len(numbers) != 2 + numbers[0] + numbers[1]:
        raise ValueError(f"Bristol gate {index} ({line!r}) does not list "
                         f"the input and output wires its counts declare")
    n_in, n_out = numbers[0], numbers[1]
    if gate == "MAND":
        width = max(n_out, 1)
        arity = (2 * width, width)
    elif gate in _ARITY:
        arity = _ARITY[gate]
    else:
        raise ValueError(f"unsupported Bristol gate {gate!r} in gate "
                         f"{index} ({line!r})")
    if (n_in, n_out) != arity:
        raise ValueError(f"Bristol gate {index} ({line!r}): {gate} takes "
                         f"{arity[0]} input and {arity[1]} output wires, "
                         f"the line declares {n_in} and {n_out}")
    if gate == "EQ" and numbers[2] not in (0, 1):
        raise ValueError(f"Bristol gate {index} ({line!r}): EQ drives the "
                         f"constant 0 or 1, not {numbers[2]}")
    return numbers[2:2 + n_in], numbers[2 + n_in:], gate


def save_bristol(xag: Xag, path: Union[str, Path], input_widths: Sequence[int] = None,
                 output_widths: Sequence[int] = None) -> None:
    """Write a Bristol Fashion file."""
    Path(path).write_text(write_bristol(xag, input_widths, output_widths))


def load_bristol(path: Union[str, Path]) -> Xag:
    """Read a Bristol Fashion file."""
    return read_bristol(Path(path).read_text())
