"""The fold lane's block draws reproduce ``random.Random`` exactly.

The fold lane pre-draws a stream's uniforms as one numpy block: numpy's
legacy MT19937 is loaded from the stream's ``getstate()``, and the stream
is then advanced past the block with ``getrandbits`` (two 32-bit outputs
per value).  That is only sound if the block equals the stream's own
``random()`` calls value for value and the advanced stream's state
equals the state those calls leave, ``gauss_next`` included.
"""

import random

import pytest

from repro.kernel.engine import _draw_block, _skip

DRAWS = 1_000_000


def streams():
    for seed in (0, 1, 29, 2**63 - 1):
        yield pytest.param(random.Random(seed), id=f"seed-{seed}")
    served = random.Random(7)
    served.gauss(0.0, 1.0)  # leaves the pair's second normal cached
    assert served.gauss_next is not None
    yield pytest.param(served, id="after-one-gauss")


@pytest.mark.parametrize("stream", streams())
def test_block_equals_random_calls(stream):
    twin = random.Random()
    twin.setstate(stream.getstate())
    gauss_next = stream.gauss_next

    block = _draw_block(stream, DRAWS).tolist()

    assert block == [twin.random() for _ in range(DRAWS)]
    assert stream.getstate() == twin.getstate()
    assert stream.gauss_next == gauss_next
    assert stream.random() == twin.random()


@pytest.mark.parametrize("n", [1, 65535, 65536, 65537, 200_001])
def test_skip_equals_random_calls(n):
    stream, twin = random.Random(11), random.Random(11)
    twin.gauss(0.0, 1.0)
    stream.setstate(twin.getstate())
    _skip(stream, n)
    for _ in range(n):
        twin.random()
    assert stream.getstate() == twin.getstate()


def test_empty_block_leaves_the_stream():
    stream = random.Random(3)
    state = stream.getstate()
    assert len(_draw_block(stream, 0)) == 0
    assert stream.getstate() == state
