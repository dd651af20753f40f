import pytest

from gpextremes import DomainError, RngStream
from gpextremes.parallel import BLOCK_SIZE, MIN_REPLICATIONS, replicate

STREAM = RngStream(2718)


def record(Rb, block):
    return Rb, block(), block("coord", 1), block("tilt", 0)


class TestReplicate:
    def test_blocks_and_streams_in_block_order(self):
        out = replicate(5000, STREAM, 1, record)
        assert [Rb for Rb, *_ in out] == [BLOCK_SIZE, BLOCK_SIZE, 904]
        for b, (_, whole, coord, tilt) in enumerate(out):
            assert whole == STREAM.child("block", b)
            assert coord == STREAM.child("block", b, "coord", 1)
            assert tilt == STREAM.child("block", b, "tilt", 0)

    def test_worker_count_invariance(self):
        assert replicate(5000, STREAM, 3, record) == replicate(5000, STREAM, 1, record)

    @pytest.mark.parametrize("R", [MIN_REPLICATIONS - 1, 0])
    def test_r_precondition(self, R):
        with pytest.raises(DomainError):
            replicate(R, STREAM, 1, record)

    def test_stream_required(self):
        with pytest.raises(DomainError):
            replicate(5000, None, 1, record)
