"""Circuit serialization (the BITS system's EDIF role, in JSON).

The paper's BITS reads and writes EDIF; this library uses a JSON schema
carrying the same structural content: nets (name/width), blocks
(kind/ports), registers and PI/PO markings.  Block *behaviour* is not
serialized — it is reattached on load from the block ``kind`` through a
spec registry (``add<W>`` and ``mul<W>x<W>_<O>`` are pre-registered; custom
kinds can be added with :func:`register_block_kind`).
"""

from __future__ import annotations

import json
import re
from typing import Callable, Dict, Optional, Tuple

from repro.datapath.modules import adder_spec, multiplier_spec, passthrough_spec
from repro.errors import RTLError
from repro.rtl.circuit import RTLCircuit

SCHEMA_VERSION = 1

_KIND_REGISTRY: Dict[str, Callable[[], Tuple]] = {}


def register_block_kind(kind: str, factory: Callable[[], Tuple]) -> None:
    """Register a spec factory returning (kind, word_func, gate_expander)."""
    _KIND_REGISTRY[kind] = factory


def _builtin_spec(kind: str):
    if kind in _KIND_REGISTRY:
        return _KIND_REGISTRY[kind]()
    add_match = re.fullmatch(r"add(\d+)", kind)
    if add_match:
        return adder_spec(int(add_match.group(1)))
    mul_match = re.fullmatch(r"mul(\d+)x\d+_(\d+)", kind)
    if mul_match:
        return multiplier_spec(int(mul_match.group(1)), int(mul_match.group(2)))
    wire_match = re.fullmatch(r"wire(\d+)", kind)
    if wire_match:
        return passthrough_spec(int(wire_match.group(1)))
    return None


def circuit_to_dict(circuit: RTLCircuit) -> dict:
    """Structural dictionary form of a circuit."""
    return {
        "schema": SCHEMA_VERSION,
        "name": circuit.name,
        "nets": [
            {"name": net.name, "width": net.width} for net in circuit.nets
        ],
        "blocks": [
            {
                "name": block.name,
                "kind": block.kind,
                "inputs": [circuit.nets[n].name for n in block.input_nets],
                "outputs": [circuit.nets[n].name for n in block.output_nets],
            }
            for block in circuit.blocks.values()
        ],
        "registers": [
            {
                "name": register.name,
                "input": circuit.nets[register.input_net].name,
                "output": circuit.nets[register.output_net].name,
            }
            for register in circuit.registers.values()
        ],
        "primary_inputs": [circuit.nets[n].name for n in circuit.primary_inputs],
        "primary_outputs": [circuit.nets[n].name for n in circuit.primary_outputs],
    }


def circuit_from_dict(data: dict) -> RTLCircuit:
    """Rebuild a circuit, reattaching behaviour from the kind registry."""
    if not isinstance(data, dict):
        raise RTLError(
            f"circuit document must be a JSON object, not {type(data).__name__}"
        )
    if data.get("schema") != SCHEMA_VERSION:
        raise RTLError(f"unsupported circuit schema {data.get('schema')!r}")
    try:
        return _circuit_from_dict(data)
    except KeyError as error:
        raise RTLError(f"circuit document is missing key {error}") from None


def _circuit_from_dict(data: dict) -> RTLCircuit:
    circuit = RTLCircuit(data["name"])
    for net in data["nets"]:
        circuit.add_net(net["name"], net["width"])
    for block in data["blocks"]:
        spec = _builtin_spec(block["kind"])
        word_func = gate_expander = None
        if spec is not None:
            _, word_func, gate_expander = spec
        circuit.add_block(
            block["name"],
            block["inputs"],
            block["outputs"],
            kind=block["kind"],
            word_func=word_func,
            gate_expander=gate_expander,
        )
    for register in data["registers"]:
        circuit.add_register(register["name"], register["input"], register["output"])
    for name in data["primary_inputs"]:
        circuit.mark_input(name)
    for name in data["primary_outputs"]:
        circuit.mark_output(name)
    circuit.validate()
    return circuit


def dumps(circuit: RTLCircuit, indent: Optional[int] = 2) -> str:
    return json.dumps(circuit_to_dict(circuit), indent=indent)


def loads(text: str) -> RTLCircuit:
    return circuit_from_dict(json.loads(text))


def dump(circuit: RTLCircuit, path) -> None:
    with open(path, "w") as handle:
        handle.write(dumps(circuit))


def load(path) -> RTLCircuit:
    with open(path) as handle:
        return loads(handle.read())
