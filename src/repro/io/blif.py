"""Minimal BLIF writer/reader for XAGs.

Only the subset needed to exchange XAGs with classical logic-synthesis tools
is supported: ``.model``, ``.inputs``, ``.outputs`` and on-set ``.names``
covers.  AND and XOR gates map to their sum-of-products covers; complemented
edges are folded into the covers, so no extra inverter nodes are created.
The reader rejects what it cannot represent faithfully — a cover row whose
pattern does not match the cover's inputs, a signal defined twice — with a
``ValueError`` naming the cover and the line, never a wrong network.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.xag.graph import Xag, lit_complemented, lit_node


def write_blif(xag: Xag, model_name: Optional[str] = None) -> str:
    """Serialise a network as BLIF text.

    Internal signals (gates, the constant) get names no port uses, so ports
    named like internal signals still write text :func:`read_blif` rebuilds.
    An output named after its own source signal (an input listed as an
    output) needs no buffer cover.  BLIF gives one signal per name, so two
    outputs that share a name must share a literal, and an output named
    after an input must be that input; anything else raises ``ValueError``.
    """
    name = model_name if model_name is not None else (xag.name or "xag")
    lines = [f".model {name}"]
    lines.append(".inputs " + " ".join(xag.pi_name(i) for i in range(xag.num_pis)))
    lines.append(".outputs " + " ".join(xag.po_name(i) for i in range(xag.num_pos)))
    used = set(xag.pi_names()) | set(xag.po_names())

    def fresh(base: str) -> str:
        while base in used:
            base += "_"
        used.add(base)
        return base

    signal_names: Dict[int, str] = {}
    # the constant driver must be declared whenever *anything* — a primary
    # output or a gate fan-in — reads node 0, else the emitted BLIF
    # references an undeclared signal.
    uses_constant = any(lit_node(lit) == 0 for lit in xag.po_literals()) or any(
        lit_node(fanin) == 0
        for node in xag.gates() for fanin in xag.fanins(node))
    if uses_constant:
        signal_names[0] = fresh("const0")
        lines.append(f".names {signal_names[0]}")  # empty cover = constant 0
    #: signal name → the literal it carries (inputs, then output buffers).
    named: Dict[str, int] = {}
    for index, node in enumerate(xag.pis()):
        signal_names[node] = xag.pi_name(index)
        named[xag.pi_name(index)] = node << 1

    for node in xag.gates():
        f0, f1 = xag.fanins(node)
        gate_name = fresh(f"n{node}")
        signal_names[node] = gate_name
        in0 = signal_names[lit_node(f0)]
        in1 = signal_names[lit_node(f1)]
        c0 = lit_complemented(f0)
        c1 = lit_complemented(f1)
        lines.append(f".names {in0} {in1} {gate_name}")
        if xag.is_and(node):
            lines.append(f"{'0' if c0 else '1'}{'0' if c1 else '1'} 1")
        else:
            # XOR of possibly complemented inputs
            first = "01" if not (c0 ^ c1) else "00"
            second = "10" if not (c0 ^ c1) else "11"
            lines.append(f"{first} 1")
            lines.append(f"{second} 1")

    for index, lit in enumerate(xag.po_literals()):
        out_name = xag.po_name(index)
        if out_name in named:
            if named[out_name] != lit:
                raise ValueError(f"BLIF cannot name two different signals "
                                 f"{out_name!r} (output {index})")
            continue
        named[out_name] = lit
        source = signal_names[lit_node(lit)]
        lines.append(f".names {source} {out_name}")
        lines.append("0 1" if lit_complemented(lit) else "1 1")
    lines.append(".end")
    return "\n".join(lines) + "\n"


def read_blif(text: str) -> Xag:
    """Parse the BLIF subset produced by :func:`write_blif`.

    Raises ``ValueError`` (naming the signal and line) on malformed covers,
    signals defined twice, undefined signals and combinational cycles.
    """
    xag = Xag()
    signals: Dict[str, int] = {}
    outputs: List[str] = []
    lines = [line.strip() for line in text.splitlines()]
    index = 0
    pending_output_covers: List[tuple] = []
    #: line number of every signal's definition (PI or cover target).
    defined_at: Dict[str, int] = {}

    def define(name: str, line_no: int) -> None:
        if name in defined_at:
            raise ValueError(f"BLIF line {line_no}: signal {name!r} is "
                             f"already defined on line {defined_at[name]}")
        defined_at[name] = line_no

    while index < len(lines):
        line = lines[index]
        index += 1
        if not line or line.startswith("#"):
            continue
        if line.startswith(".model"):
            xag.name = line.split(maxsplit=1)[1] if " " in line else ""
        elif line.startswith(".inputs"):
            for name in line.split()[1:]:
                define(name, index)
                signals[name] = xag.create_pi(name)
        elif line.startswith(".outputs"):
            outputs = line.split()[1:]
        elif line.startswith(".names"):
            names = line.split()[1:]
            if not names:
                raise ValueError(f"BLIF line {index}: .names declares no "
                                 "output signal")
            target = names[-1]
            sources = names[:-1]
            define(target, index)
            cover: List[Tuple[int, str]] = []
            while index < len(lines) and lines[index] and not lines[index].startswith("."):
                cover.append((index + 1, lines[index]))
                index += 1
            pending_output_covers.append(
                (target, sources, _parse_cover(target, sources, cover)))
        elif line.startswith(".end"):
            break

    # resolve covers in dependency order (Kahn-style): legal BLIF may define
    # a .names cover before the covers of its source signals, so each cover
    # waits on its missing sources and is built once the last one appears.
    missing_count: Dict[int, int] = {}
    waiters: Dict[str, List[int]] = {}
    ready: List[int] = []
    for index, (target, sources, _) in enumerate(pending_output_covers):
        missing = [s for s in sources if s not in signals]
        missing_count[index] = len(missing)
        for source in missing:
            waiters.setdefault(source, []).append(index)
        if not missing:
            ready.append(index)
    resolved = 0
    while ready:
        index = ready.pop()
        target, sources, cover = pending_output_covers[index]
        signals[target] = _build_cover(xag, signals, sources, cover)
        resolved += 1
        for waiter in waiters.pop(target, ()):
            missing_count[waiter] -= 1
            if missing_count[waiter] == 0:
                ready.append(waiter)
    if resolved != len(pending_output_covers):
        unresolved = [pending_output_covers[index]
                      for index, count in missing_count.items() if count > 0]
        defined = set(signals) | {target for target, _, _ in unresolved}
        for target, sources, _ in unresolved:
            undefined = [s for s in sources if s not in defined]
            if undefined:
                raise ValueError(f"BLIF cover for {target!r} reads undefined "
                                 f"signal(s) {undefined}")
        cycle = sorted(target for target, _, _ in unresolved)
        raise ValueError(f"BLIF covers form a combinational cycle: {cycle}")

    for name in outputs:
        if name not in signals:
            raise ValueError(f"BLIF output {name!r} is never defined")
        xag.create_po(signals[name], name)
    return xag


def _parse_cover(target: str, sources: List[str],
                 rows: List[Tuple[int, str]]) -> List[str]:
    """Validate the rows of one ``.names`` cover; return its input patterns.

    A constant cover (no inputs) is one output column: ``1`` rows make the
    signal 1, no rows or ``0`` rows make it 0, and mixing both is rejected.
    Every other row is an input pattern over ``0``/``1``/``-`` with one
    symbol per input, followed by the output value ``1`` (only on-set
    covers are supported).
    """
    patterns: List[str] = []
    for line_no, row in rows:
        fields = row.split()
        where = f"BLIF line {line_no}: cover of {target!r}, row {row!r}"
        if not sources:
            if fields not in (["0"], ["1"]) or \
                    patterns[:1] not in ([], fields):
                raise ValueError(f"{where}: a constant cover's rows are all "
                                 "0 or all 1")
            patterns.append(fields[0])
            continue
        if len(fields) != 2:
            raise ValueError(f"{where}: expected an input pattern and an "
                             "output value")
        pattern, value = fields
        if len(pattern) != len(sources):
            raise ValueError(f"{where}: pattern has {len(pattern)} symbols "
                             f"for {len(sources)} inputs")
        if set(pattern) - set("01-"):
            raise ValueError(f"{where}: pattern symbols must be 0, 1 or -")
        if value != "1":
            raise ValueError(f"{where}: only on-set covers (output 1) are "
                             "supported")
        patterns.append(pattern)
    return patterns


def _build_cover(xag: Xag, signals: Dict[str, int], sources: List[str],
                 cover: List[str]) -> int:
    if not sources:
        return xag.get_constant(cover[:1] == ["1"])
    terms = []
    for pattern in cover:
        literals = []
        for position, symbol in enumerate(pattern):
            if symbol == "-":
                continue
            literal = signals[sources[position]]
            literals.append(literal if symbol == "1" else xag.create_not(literal))
        terms.append(xag.create_and_multi(literals))
    return xag.create_or_multi(terms)


def save_blif(xag: Xag, path: Union[str, Path]) -> None:
    """Write a BLIF file."""
    Path(path).write_text(write_blif(xag))


def load_blif(path: Union[str, Path]) -> Xag:
    """Read a BLIF file."""
    return read_blif(Path(path).read_text())
