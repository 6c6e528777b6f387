"""Reader fuzzing: malformed BLIF, Bristol and JSON netlists fail loudly.

The writers' output for small seeded random XAGs is mutated once each: a line
is dropped, duplicated or swapped with another, a token is dropped or
replaced, or a character is inserted.  Parsing a mutant must either raise
``ValueError`` or give a network that its own writer and reader reproduce
(a network the reader accepts but the writer cannot express is a bug in one
of them).  Any other exception fails the test.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.io import read_blif, read_bristol, write_blif, write_bristol
from repro.testing import random_xag
from repro.xag import equivalent
from repro.xag.serialize import from_dict, to_dict

#: format → (writer, reader) over text.
FORMATS = {
    "blif": (write_blif, read_blif),
    "bristol": (write_bristol, read_bristol),
    "json": (lambda xag: json.dumps(to_dict(xag), indent=1),
             lambda text: from_dict(json.loads(text))),
}

#: characters an insertion draws from: digits, separators and the
#: punctuation each format gives meaning to.
INSERTED = "0129 -.#\n\"[]{},:nxy"

MUTANTS_PER_FORMAT = 2000


def _mutate(text: str, rng: random.Random) -> str:
    """``text`` with one seeded line, token or character mutation."""
    lines = text.splitlines()
    operation = rng.randrange(6)
    if operation == 0:
        del lines[rng.randrange(len(lines))]
    elif operation == 1:
        index = rng.randrange(len(lines))
        lines.insert(rng.randrange(len(lines) + 1), lines[index])
    elif operation == 2:
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif operation in (3, 4):
        candidates = [i for i, line in enumerate(lines) if line.split()]
        index = rng.choice(candidates)
        tokens = lines[index].split()
        position = rng.randrange(len(tokens))
        if operation == 3:
            del tokens[position]
        else:
            # a token seen elsewhere in the text, or a small number
            pool = text.split() + [str(rng.randrange(-2, 40))]
            tokens[position] = rng.choice(pool)
        lines[index] = " ".join(tokens)
    else:
        joined = "\n".join(lines)
        position = rng.randrange(len(joined) + 1)
        return joined[:position] + rng.choice(INSERTED) + joined[position:]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_mutated_netlists_raise_or_round_trip(fmt):
    write, read = FORMATS[fmt]
    rng = random.Random(f"reader-fuzz:{fmt}")
    parsed = 0
    for index in range(MUTANTS_PER_FORMAT):
        xag = random_xag(random.Random(index % 50),
                         num_pis=rng.randint(2, 5),
                         num_gates=rng.randint(0, 10),
                         num_pos=rng.randint(1, 2))
        mutant = _mutate(write(xag), rng)
        try:
            network = read(mutant)
        except ValueError:
            continue
        parsed += 1
        again = read(write(network))
        assert equivalent(network, again), f"{fmt} mutant {index}:\n{mutant}"
    # the mutations must leave some inputs readable, or nothing is checked
    assert parsed > MUTANTS_PER_FORMAT // 20, parsed
